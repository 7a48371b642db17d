"""Generator-reduced exhaustive checks against all-pairs and all-triples brute force.

verify_witness_multiplicative and is_associative look only at additive
generators b*t^j of S_f, and probe_structure only at the eigenring kernel.
These tests keep the full scans, over multiplication tables of every
element, as the reference, and the generator associator kernels
(_nucleus_orders) as the oracle for probe_structure where tables are too big.
"""

import itertools
import random

import pytest

from skewcodes.classify import (
    IsometryWitness,
    _witness_map,
    valid_isometry_degrees,
    verify_witness_multiplicative,
)
from skewcodes.coeffring import (
    Automorphism,
    additive_generators,
    all_automorphisms,
    identity_aut,
    make_field,
    make_residue_ring,
    partial_norm,
)
from skewcodes.petit import (
    PetitAlgebra,
    StructureReport,
    _dim_from_count,
    _image_order,
    probe_structure,
)
from skewcodes.skewpoly import SkewPoly, TwistContext, right_divide, skew_mul
from skewcodes.verify import is_associative

GF2 = make_field(2, 1)
GF4 = make_field(2, 2)
GF8 = make_field(2, 3)
GF9 = make_field(3, 2)
Z4 = make_residue_ring(4)
Z6 = make_residue_ring(6)
OMEGA = GF4.from_json([0, 1])

TW2 = TwistContext(GF2, identity_aut(GF2))
TW4 = TwistContext(GF4, Automorphism(GF4, 1))
TW9 = TwistContext(GF9, Automorphism(GF9, 1))
TWZ4 = TwistContext(Z4, identity_aut(Z4))
TWZ6 = TwistContext(Z6, identity_aut(Z6))


def monics(tw, m):
    ring = tw.ring
    return [SkewPoly(list(tail) + [ring.one], tw)
            for tail in itertools.product(ring.elements, repeat=m)]


def consta(tw, m, d):
    ring = tw.ring
    return SkewPoly([-d] + [ring.zero] * (m - 1) + [ring.one], tw)


def isometry_image(poly, tau, alpha, k):
    """G(sum d_i t^i) = sum tau(d_i) N_i^(sigma^k)(alpha) t^(k i), not reduced, on Elements."""
    tw = poly.twist
    sigma_k = tw.sigma.power(k)
    coeffs = [tw.ring.zero] * (k * len(poly.vals))  # the degrees k*i are distinct
    for i, d in enumerate(poly.coeffs):
        coeffs[k * i] = tau(d) * partial_norm(sigma_k, alpha, i)
    return SkewPoly(coeffs, tw)


class Tables:
    """Multiplication tables of S_f over element indices, built once per f."""

    def __init__(self):
        self.cache = {}

    def __call__(self, A):
        key = (A.twist, A.f.coeffs)
        if key not in self.cache:
            elems = list(A.elements())
            index = {x.coeffs: i for i, x in enumerate(elems)}
            prod = [[index[A.mul(x, y).coeffs] for y in elems] for x in elems]
            self.cache[key] = (elems, index, prod)
        return self.cache[key]


def test_additive_generators():
    assert additive_generators(GF4) == [GF4.one, OMEGA]
    assert additive_generators(GF9) == [GF9.one, GF9.from_json([0, 1])]
    assert additive_generators(Z6) == [Z6.one]
    A = PetitAlgebra(consta(TW4, 3, OMEGA))
    assert len(A.additive_generators()) == 6  # r * m


# -- witness verification ---------------------------------------------------


def _witnesses(f, degrees=None):
    ring = f.twist.ring
    m = int(f.degree)
    if degrees is None:
        degrees = [1] + valid_isometry_degrees(m, f.twist.sigma.order)
    for k in degrees:
        for tau in all_automorphisms(ring):
            for alpha in ring.units:
                yield IsometryWitness(tau, alpha, k)


def _compare_witnesses(pairs, degrees=None):
    """Reduced vs all-pairs verdicts on every witness; the verdict counts."""
    tables = Tables()
    images = {}  # G depends on (h, witness) only
    verdicts = {True: 0, False: 0}
    for f, h in pairs:
        A, B = PetitAlgebra(f), PetitAlgebra(h)
        elems, index, prod_f = tables(A)
        _, _, prod_h = tables(B)
        n = len(elems)
        for w in _witnesses(f, degrees):
            key = (h.coeffs, w.tau.frob_exp, w.alpha.val, w.k)
            if key not in images:
                images[key] = [
                    index[right_divide(isometry_image(x, w.tau, w.alpha, w.k), h)[1].coeffs]
                    for x in elems
                ]
            g = images[key]
            brute = all(g[prod_f[i][j]] == prod_h[g[i]][g[j]]
                        for i in range(n) for j in range(n))
            assert verify_witness_multiplicative(A, B, w) == brute, (f, h, w)
            verdicts[brute] += 1
    return verdicts


def test_witnesses_gf4_m2_all_pairs():
    quads = monics(TW4, 2)
    verdicts = _compare_witnesses([(f, h) for f in quads for h in quads])
    assert verdicts[True] and verdicts[False]


def test_witnesses_gf4_constacyclic_m3():
    cubics = [consta(TW4, 3, d) for d in GF4.units]
    verdicts = _compare_witnesses([(f, h) for f in cubics for h in cubics])
    assert verdicts[True] and verdicts[False]


def test_witnesses_gf4_degrees_outside_the_valid_set():
    """k = 2, 3 with sigma of order 2 on quadratics.

    Here the pairs (t^i, t^j) alone miss maps that are not multiplicative;
    the pairs (t^i, w t^j) catch them.
    """
    quads = monics(TW4, 2)
    verdicts = _compare_witnesses([(f, h) for f in quads for h in quads], degrees=[2, 3])
    assert verdicts[True] and verdicts[False]


def test_witnesses_gf2_m5_monomial_degrees():
    quintics = monics(TW2, 5)
    pairs = random.Random(5).sample([(f, h) for f in quintics for h in quintics], 120)
    pairs.append((SkewPoly.from_ints([0, 0, 0, 0, 1, 1], TW2),
                  SkewPoly.from_ints([0, 0, 0, 1, 1, 1], TW2)))
    verdicts = _compare_witnesses(pairs, degrees=[2, 3, 4])
    assert verdicts[True] and verdicts[False]


def test_witnesses_z4_m2_all_pairs():
    quads = monics(TWZ4, 2)
    verdicts = _compare_witnesses([(f, h) for f in quads for h in quads])
    assert verdicts[True] and verdicts[False]


def test_witnesses_z4_m3():
    cubics = [consta(TWZ4, 3, d) for d in Z4.units]
    cubics += random.Random(7).sample(monics(TWZ4, 3), 8)
    verdicts = _compare_witnesses([(f, h) for f in cubics for h in cubics])
    assert verdicts[True] and verdicts[False]


def test_verification_rejects_a_bad_witness():
    """The generator-pair check catches a map that is not multiplicative."""
    f, h = consta(TW4, 3, GF4.one), consta(TW4, 3, OMEGA)
    bad = IsometryWitness(identity_aut(GF4), GF4.one, 1)
    assert not verify_witness_multiplicative(PetitAlgebra(f), PetitAlgebra(h), bad)


def _all_pairs_verdict(A, B, w):
    """The full generator-pair loop, the reference for verify_witness_multiplicative's shortcut.

    Every pair (t^i, b t^j) with i >= 1 and b t^j != 1, in the same order,
    x *_f y and G(x) *_h G(y) both from mul_indices; no pair decides alone.
    """
    G = _witness_map(B, w)
    one = A.ring.one.val
    gens = [y for y in A._generator_indices() if y != [one]]
    for i in range(A.m - 1, 0, -1):
        x = [0] * i + [one]
        for y in gens:
            if G(enumerate(A.mul_indices(x, y))) != B.mul_indices(G(enumerate(x)), G(enumerate(y))):
                return False
    return True


GF8 = make_field(2, 3)
# (label, twist, m, polynomials): every monic of degree m by stride, or the constacyclic ones
SHORTCUT_CONFIGS = [
    ("GF(2) m=4", TW2, 4, monics(TW2, 4)),
    ("Z_4 m=3", TWZ4, 3, monics(TWZ4, 3)[::2]),
    ("GF(4) id m=3", TwistContext(GF4, identity_aut(GF4)), 3,
     monics(TwistContext(GF4, identity_aut(GF4)), 3)[::2]),
    ("GF(4) Frobenius m=2", TW4, 2, monics(TW4, 2)),
    ("GF(4) Frobenius m=3", TW4, 3, monics(TW4, 3)[::2]),
    ("GF(4) Frobenius constacyclic m=4", TW4, 4, [consta(TW4, 4, d) for d in GF4.units]),
    ("GF(9) Frobenius m=2", TW9, 2, monics(TW9, 2)[::2]),
    ("GF(9) Frobenius constacyclic m=4", TW9, 4, [consta(TW9, 4, d) for d in GF9.units]),
    ("GF(8) sigma constacyclic m=3", TwistContext(GF8, Automorphism(GF8, 1)), 3,
     [consta(TwistContext(GF8, Automorphism(GF8, 1)), 3, d) for d in GF8.units]),
    ("GF(8) sigma^2 m=2", TwistContext(GF8, Automorphism(GF8, 2)), 2,
     monics(TwistContext(GF8, Automorphism(GF8, 2)), 2)[::2]),
]


@pytest.mark.parametrize("label,tw,m,polys", SHORTCUT_CONFIGS,
                         ids=[c[0] for c in SHORTCUT_CONFIGS])
def test_first_pair_shortcut_matches_all_pairs(label, tw, m, polys):
    """verify_witness_multiplicative equals the full pair loop on every (f, h, tau, alpha, k),
    on the shared algebras and on fresh ones that nothing has multiplied in yet.

    k runs over 2..2m-1, so it covers the degrees outside valid_isometry_degrees,
    where sigma^k != sigma and the pair (t^(m-1), t) alone does not decide.
    A fresh S_f holds its power table to t^m only, so the pair loop's first
    products extend it through mul_indices's guard; k >= m makes G(t) a
    reduced row of S_h's table.  The shared algebras have long since been
    extended by then.
    """
    assert len(polys) <= 41
    algebras = {f: PetitAlgebra(f) for f in polys}
    verdicts = {True: 0, False: 0}
    for f, h in itertools.product(polys, polys):
        for w in _witnesses(f, range(2, 2 * m)):
            want = _all_pairs_verdict(algebras[f], algebras[h], w)
            assert verify_witness_multiplicative(algebras[f], algebras[h], w) == want, (f, h, w)
            A, B = PetitAlgebra(f), PetitAlgebra(h)
            assert len(A._red) == len(B._red) == m + 1
            assert verify_witness_multiplicative(A, B, w) == want, (f, h, w, "fresh")
            verdicts[want] += 1
    assert verdicts[True] and verdicts[False]


def _check_image_identity(polys, degrees):
    """_witness_map's G(x) = sum_j tau(x_j) * G(t^j) against isometry_image(x) mod_r h on
    every x."""
    witnesses = 0
    for h in polys:
        tw = h.twist
        elems = list(PetitAlgebra(h).elements())
        for w in _witnesses(h, degrees):
            G = _witness_map(PetitAlgebra(h), w)
            for x in elems:
                got = G((j, c.val) for j, c in enumerate(x.coeffs))
                want = right_divide(isometry_image(x, w.tau, w.alpha, w.k), h)[1]
                assert SkewPoly.from_indices(got, tw) == want, (h, w, x)
            witnesses += 1
    return witnesses


def test_image_table_gf4_frobenius_m3():
    polys = [consta(TW4, 3, d) for d in GF4.units]
    polys += random.Random(11).sample(monics(TW4, 3), 9)
    assert _check_image_identity(polys, [1]) == 12 * 6


def test_image_table_gf2_m5():
    assert _check_image_identity(monics(TW2, 5), [2, 3, 4]) == 32 * 3


def test_image_table_z4_m3():
    assert _check_image_identity(monics(TWZ4, 3), [2]) == 64 * 2


def _verdict_on_elements(f, h, w, A, B):
    """The generator-pair loop on Elements and SkewPolys, each image by isometry_image."""
    def G(x):
        return right_divide(isometry_image(x, w.tau, w.alpha, w.k), h)[1]

    return all(G(A.mul(x, y)) == B.mul(G(x), G(y))
               for x, y in itertools.product(A.basis(), A.additive_generators()))


def _compare_with_element_loop(pairs, degrees):
    verdicts = {True: 0, False: 0}
    for f, h in pairs:
        A, B = PetitAlgebra(f), PetitAlgebra(h)
        for w in _witnesses(f, degrees):
            want = _verdict_on_elements(f, h, w, A, B)
            assert verify_witness_multiplicative(A, B, w) == want, (f, h, w)
            verdicts[want] += 1
    return verdicts


def test_witnesses_match_element_loop_gf7_m3():
    """Constacyclic GF(7), sigma = id, m = 3: k = 2 maps t -> alpha t^2 are genuine isometries."""
    gf7 = make_field(7, 1)
    tw = TwistContext(gf7, identity_aut(gf7))
    cubics = [consta(tw, 3, d) for d in gf7.units]
    pairs = [(f, h) for f in cubics for h in cubics]
    k2 = _compare_with_element_loop(pairs, [2])
    assert k2[True] and k2[False]
    k1 = _compare_with_element_loop(pairs, [1])
    assert k1[True] and k1[False]


def test_witnesses_match_element_loop_gf8_m5():
    """Constacyclic GF(8), Frobenius, m = 5: k = 1 and the valid degree k = 4."""
    gf8 = make_field(2, 3)
    tw = TwistContext(gf8, Automorphism(gf8, 1))
    assert valid_isometry_degrees(5, 3) == [4]
    u = gf8.units
    pairs = [(consta(tw, 5, u[i]), consta(tw, 5, u[j]))
             for i, j in ((0, 0), (1, 3), (5, 2), (6, 6), (2, 4), (3, 0))]
    verdicts = _compare_with_element_loop(pairs, [1, 4])
    assert verdicts[True] and verdicts[False]


# -- associativity and nuclei -----------------------------------------------


def _brute_structure(A, tables):
    """All-triples associativity and the three nucleus sizes."""
    elems, _, prod = tables(A)
    n = range(len(elems))

    def assoc(u, v, w):
        return prod[prod[u][v]][w] == prod[u][prod[v][w]]

    sizes = (
        sum(all(assoc(x, y, z) for y in n for z in n) for x in n),
        sum(all(assoc(y, x, z) for y in n for z in n) for x in n),
        sum(all(assoc(y, z, x) for y in n for z in n) for x in n),
    )
    return sizes[0] == len(elems), sizes


def _nucleus_orders(A: PetitAlgebra):
    """Orders of the left, middle and right nuclei of S_f, as kernels of generator associators.

    With c the characteristic of S (p for GF(p^r), n for Z_n), the base-c
    digits of coefficient indices give (S_f, +) = Z_c^N, N = rm, with the
    generators g_i = b*t^j as basis.  The associator is additive in every
    slot (see is_associative), so the nucleus of a slot is the kernel of the
    Z-linear phi(x) = ([x in that slot] on all generator pairs of the others),
    of order c^N / |im phi|; im phi is spanned by the rows phi(g_i), read off
    the N^3 generator associators, computed once for the three slots on
    index lists, each as add[l][neg[r]] coefficientwise.
    """
    ring = A.ring
    c, add, neg = ring.characteristic, ring._add, ring._neg
    mul = A.mul_indices
    gens = A._generator_indices()
    digits = [[v // b.val % c for b in additive_generators(ring)] for v in range(ring.size)]
    prod = [[mul(x, y) for y in gens] for x in gens]
    rows = [[[] for _ in gens] for _ in range(3)]
    for i, j, k in itertools.product(range(len(gens)), repeat=3):
        lhs, rhs = mul(prod[i][j], gens[k]), mul(gens[i], prod[j][k])
        coords = [d for l, r in zip(lhs, rhs) for d in digits[add[l][neg[r]]]]
        for slot, x in enumerate((i, j, k)):
            rows[slot][x].extend(coords)
    return [c ** len(gens) // _image_order(slot_rows, c) for slot_rows in rows]


def _oracle_report(A, orders):
    """The StructureReport of nucleus orders: S_f is associative when its left nucleus is S_f."""
    associative = orders[0] == A.ring.size ** A.m
    return StructureReport(associative, *(_dim_from_count(A, n) for n in orders), associative)


def _compare_structure(polys):
    """probe_structure, is_associative and the generator oracle against all-triples tables.

    f is two-sided when f*g lies in Rf for every g of degree < m, each
    checked by skew_mul and right_divide.
    """
    tables = Tables()
    seen = set()
    for f in polys:
        A = PetitAlgebra(f)
        associative, sizes = _brute_structure(A, tables)
        two_sided = all(right_divide(skew_mul(f, g), f)[1].is_zero for g in tables(A)[0])
        assert two_sided == associative, f
        brute = StructureReport(associative, *(_dim_from_count(A, n) for n in sizes), two_sided)
        assert is_associative(A) == associative, f
        assert tuple(_nucleus_orders(A)) == sizes, f
        assert probe_structure(A) == brute, f
        seen.add(associative)
    return seen


def test_structure_gf4_m2():
    assert _compare_structure(monics(TW4, 2)) == {True, False}


def test_structure_gf4_m3():
    polys = [consta(TW4, 3, d) for d in GF4.units]
    polys += [SkewPoly.t_power(3, TW4)]  # R t^3 is two-sided
    polys += random.Random(3).sample(monics(TW4, 3), 3)
    assert _compare_structure(polys) == {True, False}


def test_structure_gf8_sigma2_m2():
    """sigma^2 has order 3, so t^2 - d is never associative; R t^2 is two-sided."""
    tw = TwistContext(GF8, Automorphism(GF8, 2))
    polys = [consta(tw, 2, d) for d in GF8.units[:2]] + [SkewPoly.t_power(2, tw)]
    polys += random.Random(8).sample(monics(tw, 2), 2)
    assert _compare_structure(polys) == {True, False}


def test_structure_gf9_m2():
    polys = [consta(TW9, 2, d) for d in GF9.units]
    assert _compare_structure(polys) == {True, False}


def test_structure_residue_rings_m2():
    # sigma = id and delta = 0: every quotient is commutative and associative
    assert _compare_structure(monics(TWZ4, 2)) == {True}
    assert _compare_structure(monics(TWZ6, 2)) == {True}


def test_structure_gf4_inner_delta():
    """delta != 0 with beta = w and beta = 1: every monic f of degree 2."""
    for beta in (OMEGA, GF4.one):
        tw = TwistContext(GF4, Automorphism(GF4, 1), delta_beta=beta)
        assert _compare_structure(monics(tw, 2)) == {True, False}


ORACLE_CONFIGS = [
    ("GF(2)", TW2, 1),
    ("GF(4) id", TwistContext(GF4, identity_aut(GF4)), 1),
    ("GF(4) Frobenius", TW4, 1),
    ("GF(4) Frobenius, delta", TwistContext(GF4, Automorphism(GF4, 1), delta_beta=OMEGA), 1),
    ("GF(8) sigma", TwistContext(GF8, Automorphism(GF8, 1)), 4),
    ("GF(8) sigma^2", TwistContext(GF8, Automorphism(GF8, 2)), 4),
    ("GF(9) Frobenius", TW9, 1),
    ("Z_4", TWZ4, 1),
    ("Z_6", TWZ6, 1),
]


@pytest.mark.parametrize("label,tw,stride", ORACLE_CONFIGS, ids=[c[0] for c in ORACLE_CONFIGS])
def test_probe_structure_matches_associator_oracle(label, tw, stride):
    """probe_structure equals the generator associator kernels on every monic f of degree 2 and 3.

    PetitAlgebra's cached associativity flag, which the witness check reads,
    agrees with the report and with verify.is_associative.  GF(8) at m = 3
    takes every stride-th f: the oracle's N^3 = 729 associators per algebra
    make its 512 algebras several seconds.
    """
    seen = set()
    for m in (2, 3):
        polys = monics(tw, m)
        for f in polys[::stride if m == 3 else 1]:
            A = PetitAlgebra(f)
            report = probe_structure(A)
            assert report == _oracle_report(A, _nucleus_orders(A)), f
            assert A._associative == report.is_associative == report.f_two_sided \
                == is_associative(A), f
            seen.add(report.is_associative)
    assert seen == ({True, False} if tw.sigma.frob_exp or tw.has_delta else {True})
