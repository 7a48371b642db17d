"""Coefficient ring tests: GF(p^r) in the polynomial basis and Z_n."""

import time

import pytest

from skewcodes.coeffring import (
    Automorphism,
    all_automorphisms,
    fixed_subring,
    identity_aut,
    make_field,
    make_residue_ring,
    partial_norm,
)
from skewcodes.errors import (
    ContextMismatch,
    EnumerationCapExceeded,
    NonPrime,
    NonUnit,
    ReducibleModulus,
)

GF4 = make_field(2, 2)
GF8 = make_field(2, 3)
GF9 = make_field(3, 2)
Z6 = make_residue_ring(6)

OMEGA = GF4.from_json([0, 1])


def test_gf4_default_modulus():
    """The lex-smallest irreducible of degree 2 over F_2 is x^2 + x + 1."""
    assert GF4.modulus == (1, 1, 1)


def test_omega_square():
    assert OMEGA * OMEGA == GF4.from_json([1, 1])
    assert OMEGA * OMEGA * OMEGA == GF4.one


def test_gf256_builds_within_a_tenth_of_a_second():
    """The tables come from index arithmetic (10-15 ms on a 2-core host),
    not from 65,536 polynomial products and divisions (about 1 s)."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        make_field(2, 8)
        best = min(best, time.perf_counter() - t0)
    assert best <= 0.1


def test_nonprime_p_rejected():
    with pytest.raises(NonPrime):
        make_field(4, 1)
    with pytest.raises(NonPrime):
        make_field(1, 1)


def test_degenerate_sizes_rejected():
    with pytest.raises(ValueError, match="extension degree"):
        make_field(2, 0)
    with pytest.raises(ValueError, match="modulus must be >= 2"):
        make_residue_ring(1)


def test_reducible_modulus_rejected():
    with pytest.raises(ReducibleModulus):
        make_field(2, 2, modulus=[1, 0, 1])  # x^2 + 1 = (x+1)^2 over F_2


def test_wrong_degree_modulus_rejected():
    with pytest.raises(ReducibleModulus):
        make_field(2, 2, modulus=[1, 1])


def test_size_cap():
    with pytest.raises(EnumerationCapExceeded):
        make_field(2, 20)


@pytest.mark.parametrize("ctx", [GF4, GF8, GF9])
def test_field_axioms_exhaustive(ctx):
    """Associativity, commutativity, distributivity over every element triple."""
    for a in ctx.elements:
        for b in ctx.elements:
            assert a + b == b + a
            assert a * b == b * a
            for c in ctx.elements:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("ctx", [GF4, GF8, GF9, Z6])
def test_inverses(ctx):
    for u in ctx.units:
        assert u * u.inverse() == ctx.one
    for e in ctx.elements:
        if not e.is_unit():
            with pytest.raises(NonUnit):
                e.inverse()


@pytest.mark.parametrize("ctx", [GF4, GF9, Z6])
def test_negation_and_powers(ctx):
    """a - b = a + (-b), a + (-a) = 0, a^n a product of n copies of a, and a^-n = (a^-1)^n
    for a unit a (NonUnit otherwise), for n <= 6."""
    for a in ctx.elements:
        assert a + -a == ctx.zero
        for b in ctx.elements:
            assert a - b == a + -b
        power = ctx.one
        for n in range(7):
            assert a ** n == power
            if a.is_unit():
                assert a ** -n == a.inverse() ** n
                assert a ** -n * power == ctx.one
            elif n:
                with pytest.raises(NonUnit):
                    a ** -n
            power = power * a


def test_z6_units():
    assert [u.to_json() for u in Z6.units] == [1, 5]


def test_context_mismatch():
    with pytest.raises(ContextMismatch):
        GF4.one + GF8.one
    frob = Automorphism(GF4, 1)
    with pytest.raises(ContextMismatch):
        frob(GF8.one)
    with pytest.raises(ContextMismatch):
        partial_norm(frob, GF8.one, 2)


def test_from_json_roundtrip():
    for ctx in (GF4, GF9, Z6):
        for e in ctx.elements:
            assert ctx.from_json(e.to_json()) == e


def test_frobenius_order():
    assert Automorphism(GF4, 1).order == 2
    assert Automorphism(GF8, 1).order == 3
    assert Automorphism(GF8, 2).order == 3
    assert identity_aut(GF9).order == 1


def test_all_automorphisms():
    assert len(all_automorphisms(GF8)) == 3
    assert len(all_automorphisms(Z6)) == 1


def test_residue_ring_frobenius_rejected():
    with pytest.raises(ValueError):
        Automorphism(Z6, 1)


def test_automorphism_is_ring_hom():
    """Additive and multiplicative over exhaustive pairs (rings of size <= 16)."""
    for ctx in (GF4, GF8, GF9):
        for tau in all_automorphisms(ctx):
            for a in ctx.elements:
                for b in ctx.elements:
                    assert tau(a + b) == tau(a) + tau(b)
                    assert tau(a * b) == tau(a) * tau(b)


def test_frobenius_table_reads_exponent_mod_r():
    """On GF(8), e = -1 is e = 2 and e = 3 is the identity, kept once; on Z_6 every e
    gives the identity."""
    assert GF8.frobenius_table(-1) == GF8.frobenius_table(2)
    assert GF8.frobenius_table(3) is GF8.frobenius_table(0)
    assert GF8.frobenius_table(0) == list(range(8))
    for e in (-1, 0, 1, 2):
        assert Z6.frobenius_table(e) == list(range(6))


def test_frobenius_on_omega():
    frob = Automorphism(GF4, 1)
    assert frob(OMEGA) == OMEGA * OMEGA


def test_partial_norm_gf4():
    """N_2(w) = w * w^2 = 1 and N_3(w) = w under the Frobenius."""
    frob = Automorphism(GF4, 1)
    assert partial_norm(frob, OMEGA, 0) == GF4.one
    assert partial_norm(frob, OMEGA, 2) == GF4.one
    assert partial_norm(frob, OMEGA, 3) == OMEGA


def _norm_image(sigma, m):
    """The subgroup {N_m(beta) : beta a unit}, as a set."""
    return {partial_norm(sigma, u, m) for u in sigma.ctx.units}


def test_norm_image_gf4():
    frob = Automorphism(GF4, 1)
    assert _norm_image(frob, 2) == {GF4.one}
    assert _norm_image(frob, 3) == set(GF4.units)


@pytest.mark.parametrize("p,r", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_norm_image_size_identity(p, r):
    """|{N_m(beta)}| * gcd([m]_s, p^r - 1) == p^r - 1 under sigma = x -> x^(p^s)."""
    from math import gcd

    ctx = make_field(p, r)
    for s in range(1, r + 1):
        sigma = Automorphism(ctx, s % r)
        for m in range(1, 7):
            bracket = (p ** (s * m) - 1) // (p ** s - 1)
            assert len(_norm_image(sigma, m)) * gcd(bracket, p ** r - 1) == p ** r - 1


def test_norm_of_order_is_fixed():
    """N_n(beta) lands in the fixed field of sigma."""
    for ctx in (GF4, GF8, GF9):
        for e in range(1, ctx.r):
            sigma = Automorphism(ctx, e)
            n = sigma.order
            for beta in ctx.units:
                v = partial_norm(sigma, beta, n)
                assert sigma(v) == v


def test_fixed_subring():
    frob = Automorphism(GF9, 1)
    fixed = fixed_subring(frob)
    assert len(fixed) == 3  # the prime field
    assert all(x * x * x == x for x in fixed)


def test_aut_compose_and_inverse():
    frob = Automorphism(GF8, 1)
    for a in GF8.elements:
        assert frob.inverse()(frob(a)) == a
