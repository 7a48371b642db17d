"""Quotient algebra structure: multiplication mod_r f, associativity, nuclei."""

import itertools
import random

import pytest

from skewcodes.codes import build_code
from skewcodes.coeffring import Automorphism, identity_aut, make_field, make_residue_ring
from skewcodes.errors import NonMonic, NotARightDivisor
from skewcodes.petit import (
    PetitAlgebra,
    _eigenring_rows,
    _image_order,
    _left_ideal_span,
    probe_structure,
)
from skewcodes.skewpoly import (
    SkewPoly,
    TwistContext,
    all_monic_right_divisors,
    enumerate_monic_right_divisors,
    right_divide,
    skew_mul,
)
from skewcodes.verify import is_associative

GF4 = make_field(2, 2)
FROB = Automorphism(GF4, 1)
TW = TwistContext(GF4, FROB)
OMEGA = GF4.from_json([0, 1])


def consta(tw, m, d):
    ring = tw.ring
    return SkewPoly([-d] + [ring.zero] * (m - 1) + [ring.one], tw)


def f_is_two_sided(A: PetitAlgebra) -> bool:
    """Whether Rf is a two-sided ideal: f*t and f*a reduce to 0 mod_r f for every a in S.

    {g : f*g in Rf} is closed under + and * (f*g*h = u*f*h), and t and S
    generate R, so these factors decide it.
    """
    factors = [SkewPoly.t_power(1, A.twist)] + [SkewPoly([a], A.twist) for a in A.ring.elements]
    return all(right_divide(skew_mul(A.f, g), A.f)[1].is_zero for g in factors)


def t_step(A: PetitAlgebra, r):
    """t*r mod_r f as an index list of length m, apart from mul_indices: the reference shift.

    t*r = sum_k (t*r_k) t^k, read from t_times(1) (sigma, and delta when
    there is one), has degree at most m.  Subtracting c*f, c its coefficient
    of t^m, stays in the class of t*r (c*f lies in Rf) and leaves degree
    < m, as f is monic.
    """
    ring, m = A.ring, A.m
    add, t1 = ring._add, A.twist.t_times(1)
    out = [0] * (m + 1)
    for k, rk in enumerate(r):
        for l, c in t1[rk]:
            out[k + l] = add[out[k + l]][c]
    c = out.pop()
    if c:
        row, fv = ring._mul[ring._neg[c]], A.f.vals
        for j in range(m):
            out[j] = add[out[j]][row[fv[j]]]
    return out


T2_OMEGA = PetitAlgebra(consta(TW, 2, OMEGA))
T2_ONE = PetitAlgebra(consta(TW, 2, GF4.one))


def test_monomial_products():
    """t * t = w and t * (w t) = w^2 * w = 1 in the quotient by t^2 - w."""
    t = SkewPoly.t_power(1, TW)
    wt = SkewPoly([GF4.zero, OMEGA], TW)
    assert T2_OMEGA.mul(t, t) == SkewPoly([OMEGA], TW)
    assert T2_OMEGA.mul(t, wt) == SkewPoly.one(TW)


def test_mul_agrees_with_reduction():
    """The table-free product equals remainder of the ring product."""
    for A in (T2_OMEGA, T2_ONE):
        for x in A.elements():
            for y in A.elements():
                assert A.mul(x, y) == right_divide(skew_mul(x, y), A.f)[1]


def test_mul_agrees_with_reduction_inner_delta():
    tw = TwistContext(GF4, FROB, delta_beta=OMEGA)
    A = PetitAlgebra(SkewPoly([GF4.one, GF4.zero, GF4.one], tw))
    for x in A.elements():
        for y in A.elements():
            assert A.mul(x, y) == right_divide(skew_mul(x, y), A.f)[1]


@pytest.mark.parametrize("p,r,e", [(2, 3, 1), (2, 3, 2), (3, 2, 1)])
def test_mul_agrees_with_reduction_inner_delta_monomials(p, r, e):
    """delta != 0 over GF(8) and GF(9), m = 3, on every pair of monomials b t^i, c t^j.

    Both products are biadditive, so agreeing on the monomials, which
    generate (S_f, +), is agreeing everywhere.
    """
    K = make_field(p, r)
    beta = K.elements[-1]
    tw = TwistContext(K, Automorphism(K, e), delta_beta=beta)
    f = SkewPoly([K.elements[1], K.zero, K.elements[2], K.one], tw)
    A = PetitAlgebra(f)
    monomials = [SkewPoly.monomial(b, i, tw) for b in K.elements for i in range(A.m)]
    for x in monomials:
        for y in monomials:
            assert A.mul(x, y) == right_divide(skew_mul(x, y), f)[1]


def _twist(ring, e=0):
    return TwistContext(ring, Automorphism(ring, e))


REDUCTION_CASES = [
    ("GF(4) Frobenius", TW, 4),
    ("GF(4) inner delta", TwistContext(GF4, FROB, delta_beta=OMEGA), 4),
    ("GF(2)", _twist(make_field(2, 1)), 5),
    ("Z_4", _twist(make_residue_ring(4)), 4),
    ("Z_6", _twist(make_residue_ring(6)), 4),
]


@pytest.mark.parametrize("label,tw,m", REDUCTION_CASES, ids=[c[0] for c in REDUCTION_CASES])
def test_reductions_match_right_divide(label, tw, m):
    """_red[n] is the remainder of right_divide(t^n, f) for n <= (m-1)^2, every monic f of degree m.

    The table holds n <= m once S_f is built; _reductions extends it in place.
    The rows of _left_ideal_span, for every monic right divisor g of f of degree
    < m, start at g and follow t*row mod_r f, and t_step of the last row, of
    degree m before it is reduced, is right_divide(t*row, f)'s remainder too.
    """
    ring = tw.ring
    t = SkewPoly.t_power(1, tw)
    for tail in itertools.product(ring.elements, repeat=m):
        f = SkewPoly(list(tail) + [ring.one], tw)
        A = PetitAlgebra(f)
        assert len(A._red) == m + 1
        red = A._reductions((m - 1) ** 2)
        assert red is A._red and len(red) == (m - 1) ** 2 + 1
        for n, terms in enumerate(red):
            rem = right_divide(SkewPoly.t_power(n, tw), f)[1]
            assert terms == [(k, c.val) for k, c in enumerate(rem.coeffs) if not c.is_zero()], (f, n)
        for g in all_monic_right_divisors(f):
            if g.degree == m:
                continue
            rows = _left_ideal_span(tw, m, g.vals)
            assert len(rows) == m - g.degree
            assert SkewPoly.from_indices(rows[0], tw) == g
            for row, after in zip(rows, rows[1:] + [tuple(t_step(A, rows[-1]))]):
                assert len(after) == m
                expected = right_divide(skew_mul(t, SkewPoly.from_indices(row, tw)), f)[1]
                assert SkewPoly.from_indices(after, tw) == expected, (f, g, row)


@pytest.mark.parametrize("label,tw,m", REDUCTION_CASES, ids=[c[0] for c in REDUCTION_CASES])
def test_mul_indices_on_a_fresh_table(label, tw, m):
    """mul_indices on an algebra that has made no product yet equals right_divide(skew_mul(g, h), f).

    Each generator pair (b t^i, c t^j) gets its own fresh S_f, whose table
    holds t^0 ... t^m only, so every product first extends it through the
    guard, to t^(i+j) when i + j > m.  Every 7th monic f of degree m.
    """
    ring = tw.ring
    fs = [SkewPoly(list(tail) + [ring.one], tw)
          for tail in itertools.product(ring.elements, repeat=m)][::7]
    for f in fs:
        gens = PetitAlgebra(f)._generator_indices()
        for gv, hv in itertools.product(gens, gens):
            A = PetitAlgebra(f)
            got = A.mul_indices(gv, hv)
            assert len(A._red) == max(m + 1, len(gv) + len(hv) - 1), (f, gv, hv)
            want = right_divide(skew_mul(SkewPoly.from_indices(gv, tw),
                                         SkewPoly.from_indices(hv, tw)), f)[1]
            assert SkewPoly.from_indices(got, tw) == want, (f, gv, hv)


def test_requires_monic_degree_two():
    with pytest.raises(NonMonic):
        PetitAlgebra(SkewPoly([GF4.one, OMEGA], TW))
    with pytest.raises(ValueError):
        PetitAlgebra(SkewPoly([GF4.one, GF4.one], TW))


def test_t2_minus_omega_not_associative():
    """w is not fixed by the Frobenius, so the quotient is not associative."""
    assert not is_associative(T2_OMEGA)
    assert not f_is_two_sided(T2_OMEGA)


def test_t2_minus_one_associative():
    """1 is fixed and n = 2 divides m = 2."""
    assert is_associative(T2_ONE)
    assert f_is_two_sided(T2_ONE)


def test_associativity_matches_brute_force():
    """The reduced generator check equals the all-triples associator scan."""
    for A in (T2_OMEGA, T2_ONE):
        elems = list(A.elements())
        brute = all(
            A.mul(A.mul(x, y), z) == A.mul(x, A.mul(y, z))
            for x in elems for y in elems for z in elems
        )
        assert is_associative(A) == brute


TWO_SIDED_CONFIGS = [
    ("GF(4) Frobenius", TW, 3),
    ("GF(4) inner delta", TwistContext(GF4, FROB, delta_beta=OMEGA), 3),
    ("GF(8) sigma^2", _twist(make_field(2, 3), 2), 2),
    ("GF(9) Frobenius", _twist(make_field(3, 2), 1), 2),
    ("Z_6", _twist(make_residue_ring(6)), 2),
]


def test_two_sided_agrees_with_associative():
    """The two-sidedness oracle, the associator check and the probe agree on every monic f."""
    for label, tw, m in TWO_SIDED_CONFIGS:
        ring = tw.ring
        for tail in itertools.product(ring.elements, repeat=m):
            A = PetitAlgebra(SkewPoly(list(tail) + [ring.one], tw))
            rep = probe_structure(A)
            verdicts = {f_is_two_sided(A), is_associative(A), rep.f_two_sided, rep.is_associative}
            assert len(verdicts) == 1, (label, A.f)


def test_probe_structure_work_bound(monkeypatch):
    """The first probe of GF(4), t^9 + 1 makes m - 1 = 8 products of S_f, all table steps.

    Its rows read the table to t^17 = t^(2m-1); set-up holds it to t^9, so
    the probe extends it once, one step t*r per power, and a second probe
    makes no product and leaves the 18 rows as they are.
    """
    A = PetitAlgebra(consta(TW, 9, GF4.one))
    assert len(A._red) == 9 + 1
    calls = []
    method = PetitAlgebra.mul_indices

    def counted(self, gv, hv):
        calls.append(gv)
        return method(self, gv, hv)

    monkeypatch.setattr(PetitAlgebra, "mul_indices", counted)
    first = probe_structure(A)
    assert calls == [(0, GF4.one.val)] * 8
    assert len(A._red) == 2 * 9
    calls.clear()
    assert probe_structure(A) == first
    assert calls == []
    assert len(A._red) == 2 * 9


def _horner_rows(A: PetitAlgebra):
    """e(z) = (f*z) mod_r f = sum_i f_i L^i(z), L = t_step, on each generator z = b*t^j.

    t^i*z mod_r f is L^i(z), and right remainders are left S-linear.
    """
    add, mul, fv = A.ring._add, A.ring._mul, A.f.vals
    rows = []
    for z in A._generator_indices():
        z += [0] * (A.m - len(z))
        acc = [mul[fv[0]][v] for v in z]
        for fi in fv[1:]:
            z = t_step(A, z)
            acc = [add[a][mul[fi][v]] for a, v in zip(acc, z)]
        rows.append(acc)
    return rows


GF8, GF9 = make_field(2, 3), make_field(3, 2)
FROB9 = Automorphism(GF9, 1)
ROW_TWISTS = [
    ("GF(4) Frobenius", TW),
    ("GF(4) Frobenius, beta = 1", TwistContext(GF4, FROB, GF4.one)),
    ("GF(4) Frobenius, beta = w", TwistContext(GF4, FROB, OMEGA)),
    ("GF(9) Frobenius", TwistContext(GF9, FROB9)),
    ("GF(9) Frobenius, beta = 1", TwistContext(GF9, FROB9, GF9.one)),
    ("GF(8) sigma", _twist(GF8, 1)),
    ("GF(8) sigma^2", _twist(GF8, 2)),
    ("Z_4", _twist(make_residue_ring(4))),
    ("Z_6", _twist(make_residue_ring(6))),
]


@pytest.mark.parametrize("label,tw", ROW_TWISTS, ids=[c[0] for c in ROW_TWISTS])
def test_eigenring_rows_match_horner(label, tw):
    """The probe's rows, (f*b)*t^j read from the power table, equal the Horner rows.

    Every monic f of degree 2 and 3, entry for entry, in generator order.
    """
    ring = tw.ring
    for m in (2, 3):
        for tail in itertools.product(ring.elements, repeat=m):
            A = PetitAlgebra(SkewPoly(list(tail) + [ring.one], tw))
            assert _eigenring_rows(A) == _horner_rows(A), (label, A.f)


def test_probe_structure_report():
    rep = probe_structure(T2_ONE)
    assert rep.is_associative and rep.f_two_sided
    # associative: every nucleus is the whole algebra, dim 4 over the prime field
    assert (rep.left_nucleus_dim, rep.middle_nucleus_dim, rep.right_nucleus_dim) == (4, 4, 4)
    doc = rep.to_json()
    assert doc["associative"] is True
    assert doc["nucleus_dims"] == [4, 4, 4]


def test_probe_structure_reach_gf4_m9():
    """t^9 + 1 over GF(4) has 4^9 = 262,144 elements; no probe enumerates them."""
    rep = probe_structure(PetitAlgebra(consta(TW, 9, GF4.one)))
    # nonassociative: sigma has order 2, which does not divide m = 9
    assert not rep.is_associative
    assert (rep.left_nucleus_dim, rep.middle_nucleus_dim, rep.right_nucleus_dim) == (2, 2, 9)


def _eigenring_order(A):
    """|{g : deg g < m, f*g in Rf}|, by brute force over every residue g."""
    return sum(
        right_divide(skew_mul(A.f, g), A.f)[1].is_zero for g in A.elements()
    )


@pytest.mark.parametrize("p,r,e,m", [
    (2, 2, 1, 2), (2, 2, 1, 3), (2, 3, 1, 2), (2, 3, 2, 2), (3, 2, 1, 2),
])
def test_nuclei_match_petits_theorem(p, r, e, m):
    """Petit's theorem as an oracle, over every monic f of degree m.

    When S_f over a field is not associative, its left and middle nuclei are
    S and its right nucleus is the eigenring {g : f*g in Rf} (J.-C. Petit
    1966; C. Brown and S. Pumplün, "The automorphisms of Petit's algebras",
    Comm. Algebra 2018).  Nucleus dimensions are over F_p, so |S| = p^r has
    dimension r.
    """
    K = make_field(p, r)
    tw = TwistContext(K, Automorphism(K, e))
    nonassociative = 0
    for tail in itertools.product(K.elements, repeat=m):
        A = PetitAlgebra(SkewPoly(list(tail) + [K.one], tw))
        if is_associative(A):
            continue
        nonassociative += 1
        rep = probe_structure(A)
        assert not rep.is_associative
        assert (rep.left_nucleus_dim, rep.middle_nucleus_dim) == (r, r), A.f
        assert p ** rep.right_nucleus_dim == _eigenring_order(A), A.f
    assert nonassociative


@pytest.mark.parametrize("c", [2, 3, 4, 6, 8, 9, 12])
def test_image_order_matches_span_enumeration(c):
    """The echelon count equals the size of the span, closed by brute force.

    Over Z_n every S_f is associative (sigma = id, so delta = 0), so the
    algebras never reach a proper kernel over a composite c; random rows do.
    """
    rng = random.Random(c)
    for _ in range(40):
        width = rng.randint(1, 4)
        rows = [[rng.choice([0, 0, rng.randrange(c)]) for _ in range(width)]
                for _ in range(rng.randint(1, 3))]
        span = {(0,) * width}
        while True:
            grown = span | {tuple((x + y) % c for x, y in zip(v, r)) for v in span for r in rows}
            if grown == span:
                break
            span = grown
        assert _image_order([list(r) for r in rows], c) == len(span), rows


def test_nonassociative_nucleus_drops():
    rep = probe_structure(T2_OMEGA)
    assert not rep.is_associative
    assert rep.right_nucleus_dim < 4 or rep.middle_nucleus_dim < 4 \
        or rep.left_nucleus_dim < 4


def test_irreducible_f_has_no_proper_divisors():
    """t^2 - w has no monic right divisor of degree 1, hence no proper ideals."""
    assert enumerate_monic_right_divisors(T2_OMEGA.f, 1) == []


def test_left_ideal_span():
    """build_code's rows are g and t o g, for g = t + 1 dividing t^3 - 1."""
    f = SkewPoly.from_ints([1, 0, 0, 1], TW)  # t^3 - 1
    A = PetitAlgebra(f)
    g = SkewPoly.from_ints([1, 1], TW)
    span = [SkewPoly.from_indices(row, TW) for row in build_code(A, g).rows]
    assert len(span) == 2
    assert span[0] == g
    assert span[1] == A.mul(SkewPoly.t_power(1, TW), g)


def test_left_ideal_span_rejects_nondivisor():
    f = SkewPoly.from_ints([1, 0, 0, 1], TW)
    A = PetitAlgebra(f)
    with pytest.raises(NotARightDivisor):
        build_code(A, SkewPoly.from_ints([0, 1], TW))


def test_left_distributivity_and_linearity():
    A = T2_OMEGA
    elems = list(A.elements())
    for x in elems[::3]:
        for y in elems[::3]:
            for z in elems[::5]:
                assert A.mul(x + y, z) == A.mul(x, z) + A.mul(y, z)
                assert A.mul(x, y + z) == A.mul(x, y) + A.mul(x, z)
    for s in GF4.elements:
        for x in elems[::5]:
            for y in elems[::5]:
                assert A.mul(x.scale_left(s), y) == A.mul(x, y).scale_left(s)


def test_residue_ring_quotient():
    Z4 = make_residue_ring(4)
    tw = TwistContext(Z4, identity_aut(Z4))
    A = PetitAlgebra(SkewPoly.from_ints([-1, 0, 1], tw))  # t^2 - 1
    assert is_associative(A)  # sigma = id, delta = 0: commutative quotient
    assert f_is_two_sided(A)
