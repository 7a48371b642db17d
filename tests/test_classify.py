"""Equivalence, isometry, fast filters, and class counting."""

import hashlib
import itertools
import json
import math

import pytest

from skewcodes.catalogue import partition_classes, run_catalogue
from skewcodes.classify import (
    IsometryWitness,
    Relation,
    check_equivalence,
    check_isometry_k,
    classify_pair,
    count_constacyclic_classes,
    count_constacyclic_classes_formula,
    equivalence_class_of,
    _norms,
    _witness_map,
    fast_reject,
    valid_isometry_degrees,
    verify_witness_multiplicative,
)
from skewcodes.coeffring import (
    Automorphism,
    all_automorphisms,
    identity_aut,
    make_field,
    make_residue_ring,
    partial_norm,
)
from skewcodes.errors import (
    ContextMismatch,
    DegreeMismatch,
    DeltaNotZero,
    InvalidConfig,
    InvalidK,
    NonMonic,
    NonUnit,
    NotConstacyclic,
)
from skewcodes.petit import PetitAlgebra
from skewcodes.skewpoly import SkewPoly, TwistContext, psi

GF2 = make_field(2, 1)
GF4 = make_field(2, 2)
FROB = Automorphism(GF4, 1)
TW = TwistContext(GF4, FROB)
OMEGA = GF4.from_json([0, 1])
OMEGA2 = OMEGA * OMEGA
Z4 = make_residue_ring(4)


def consta(tw, m, d):
    ring = tw.ring
    return SkewPoly([-d] + [ring.zero] * (m - 1) + [ring.one], tw)


def monic_polys(tw, degree):
    ring = tw.ring
    return [SkewPoly(list(tail) + [ring.one], tw)
            for tail in itertools.product(ring.elements, repeat=degree)]


def trailing_coeffs(f):
    """The a_i with f = t^m - sum a_i t^i, on Elements."""
    return [-f.coeff(i) for i in range(int(f.degree))]


def test_trailing_coeffs_sign():
    f = consta(TW, 2, OMEGA)  # t^2 - w, stored as t^2 + w in char 2
    assert trailing_coeffs(f) == [OMEGA, GF4.zero]


def test_frobenius_merges_conjugate_constants():
    """t^2 - w and t^2 - w^2 are equivalent via tau = Frobenius, alpha = 1."""
    f = consta(TW, 2, OMEGA)
    h = consta(TW, 2, OMEGA2)
    assert check_equivalence(f, h, FROB, GF4.one)
    assert classify_pair(f, h, chen_only=True, k=1).witness is None
    w = classify_pair(f, h, k=1).witness
    assert w is not None and w.tau == FROB


def test_chen_witness_for_cyclic_pair():
    """t^3 - 1 ~ t^3 - w via alpha with N_3(alpha) = w."""
    f = consta(TW, 3, GF4.one)
    h = consta(TW, 3, OMEGA)
    w = classify_pair(f, h, chen_only=True, k=1).witness
    assert w is not None
    assert w.tau.is_identity
    # N_3(alpha) * b = a reads N_3(alpha) * w = 1
    assert partial_norm(FROB, w.alpha, 3) * OMEGA == GF4.one


def test_check_equivalence_guards():
    f = consta(TW, 2, OMEGA)
    with pytest.raises(DegreeMismatch):
        check_equivalence(f, consta(TW, 3, OMEGA), FROB, GF4.one)
    tw_d = TwistContext(GF4, FROB, delta_beta=OMEGA)
    with pytest.raises(DeltaNotZero):
        check_equivalence(consta(tw_d, 2, GF4.one), consta(tw_d, 2, GF4.one),
                          FROB, GF4.one)
    with pytest.raises(DeltaNotZero):
        equivalence_class_of(consta(tw_d, 2, GF4.one))
    # omega t^2 + 1 is not monic, and neither is 0 (whose degree is -inf)
    with pytest.raises(NonMonic):
        equivalence_class_of(SkewPoly([GF4.one, GF4.zero, OMEGA], TW))
    with pytest.raises(NonMonic):
        equivalence_class_of(SkewPoly([], TW))
    with pytest.raises(InvalidConfig):
        partition_classes(TW, -1, False, 2 ** 20)
    tw4 = _twist(Z4)
    with pytest.raises(NonUnit):  # 2 is a nonzero non-unit of Z_4
        check_equivalence(consta(tw4, 2, Z4.one), consta(tw4, 2, Z4.one),
                          identity_aut(Z4), Z4.from_json(2))


def test_isometry_witness_guards():
    with pytest.raises(NonUnit):
        IsometryWitness(identity_aut(Z4), Z4.from_json(2))
    with pytest.raises(NonUnit):
        IsometryWitness(FROB, GF4.zero, 3)
    with pytest.raises(InvalidK):
        IsometryWitness(FROB, GF4.one, 0)


def test_equivalence_class_partition():
    """Reflexive, symmetric, transitive over all monic quadratics over GF(4)."""
    for chen in (False, True):
        polys = monic_polys(TW, 2)
        classes = {f: set(equivalence_class_of(f, chen_only=chen)) for f in polys}
        for f in polys:
            assert f in classes[f]
            for h in classes[f]:
                assert classes[h] == classes[f]
        # membership agrees with witness search
        for f in polys:
            for h in polys:
                assert (h in classes[f]) == \
                    (classify_pair(f, h, chen_only=chen, k=1).witness is not None)


def _twist(ring, e=0):
    return TwistContext(ring, Automorphism(ring, e))


ORBIT_CONFIGS = [
    ("GF(4) Frobenius m=3", TW, 3),
    ("Z_4 m=3", _twist(make_residue_ring(4)), 3),
    ("GF(9) Frobenius m=2", _twist(make_field(3, 2), 1), 2),
]


@pytest.mark.parametrize("label,tw,m", ORBIT_CONFIGS, ids=[c[0] for c in ORBIT_CONFIGS])
def test_class_orbit_matches_witness_search(label, tw, m):
    """equivalence_class_of(f) is {h : classify_pair(f, h, k=1).witness is not None}
    over every monic h, sorted, for every monic f; the same with chen_only=True."""
    polys = monic_polys(tw, m)
    for chen in (False, True):
        for f in polys:
            expected = [h for h in polys
                        if classify_pair(f, h, chen_only=chen, k=1).witness is not None]
            assert equivalence_class_of(f, chen_only=chen) == expected, (f, chen)


def _equivalence_reference(f, h, tau, alpha):
    """tau(a_i) = N_(m-i)(sigma^i(alpha)) * b_i for all i, on Elements with partial_norm."""
    sigma = f.twist.sigma
    m = int(f.degree)
    a, b = trailing_coeffs(f), trailing_coeffs(h)
    return all(
        tau(a[i]) == partial_norm(sigma, sigma.power(i)(alpha), m - i) * b[i] for i in range(m)
    )


EQUIVALENCE_CONFIGS = [
    ("GF(4) Frobenius m=2", TW, 2),
    ("GF(9) Frobenius m=2", _twist(make_field(3, 2), 1), 2),
    ("Z_4 m=2", _twist(make_residue_ring(4)), 2),
]


@pytest.mark.parametrize("label,tw,m", EQUIVALENCE_CONFIGS,
                         ids=[c[0] for c in EQUIVALENCE_CONFIGS])
def test_check_equivalence_matches_partial_norms(label, tw, m):
    """The index test agrees with the Element-level identity on every (f, h, tau, alpha)."""
    ring = tw.ring
    polys = monic_polys(tw, m)
    for f, h in itertools.product(polys, repeat=2):
        for tau in all_automorphisms(ring):
            for alpha in ring.units:
                assert check_equivalence(f, h, tau, alpha) == \
                    _equivalence_reference(f, h, tau, alpha), (f, h, tau, alpha)


def test_check_equivalence_context_guards():
    """h, tau or alpha of another ring, or f and h under different twists, raise."""
    f = consta(TW, 2, OMEGA)
    GF8 = make_field(2, 3)
    with pytest.raises(ContextMismatch):
        check_equivalence(f, consta(_twist(GF8, 1), 2, GF8.one), FROB, GF4.one)
    with pytest.raises(ContextMismatch):
        check_equivalence(f, f, Automorphism(GF8, 1), GF4.one)
    with pytest.raises(ContextMismatch):
        check_equivalence(f, f, FROB, GF8.one)
    # the same pair under sigma = id: f's sigma must not decide it
    with pytest.raises(ContextMismatch):
        check_equivalence(f, consta(_twist(GF4), 2, OMEGA), FROB, GF4.one)


def test_class_of_t2_minus_omega():
    f = consta(TW, 2, OMEGA)
    assert equivalence_class_of(f, chen_only=True) == [f]
    assert set(equivalence_class_of(f)) == {f, consta(TW, 2, OMEGA2)}


def test_classify_pair_relations():
    f1 = consta(TW, 3, GF4.one)
    assert classify_pair(f1, consta(TW, 3, OMEGA)).relation == Relation.CHEN_EQUIVALENT
    f2 = consta(TW, 2, OMEGA)
    assert classify_pair(f2, consta(TW, 2, OMEGA2)).relation == Relation.EQUIVALENT
    res = classify_pair(f2, consta(TW, 2, GF4.one))
    assert res.relation == Relation.NOT_RELATED
    assert res.witness is None


def test_fast_reject_support_mismatch():
    f = SkewPoly.from_ints([1, 1, 1], TW)  # t^2 + t + 1
    h = consta(TW, 2, GF4.one)
    reason = fast_reject(f, h)
    assert reason is not None and "support" in reason


def test_fast_reject_invertibility_pattern_z6():
    """Over Z_6, a zero-divisor constant can never match a unit constant."""
    Z6 = make_residue_ring(6)
    tw = TwistContext(Z6, identity_aut(Z6))
    f = SkewPoly.from_ints([-2, 0, 1], tw)  # t^2 - 2, constant not a unit
    h = SkewPoly.from_ints([-1, 0, 1], tw)  # t^2 - 1
    reason = fast_reject(f, h)
    assert reason is not None and "invertibility" in reason
    assert classify_pair(f, h, k=1).witness is None


def test_fast_reject_sound_on_quadratics():
    polys = monic_polys(TW, 2)
    for f in polys:
        for h in polys:
            if fast_reject(f, h) is not None:
                assert classify_pair(f, h, k=1).witness is None


def test_witness_multiplicative():
    f = consta(TW, 3, GF4.one)
    h = consta(TW, 3, OMEGA)
    w = classify_pair(f, h, k=1).witness
    assert verify_witness_multiplicative(PetitAlgebra(f), PetitAlgebra(h), w)


def test_witness_verification_has_no_size_cap():
    """GF(4), m = 7: 4^14 element pairs, checked exhaustively on 7 * 14 generator pairs."""
    ident = identity_aut(GF4)
    tw = TwistContext(GF4, ident)
    f, h = consta(tw, 7, GF4.one), consta(tw, 7, OMEGA)
    # t -> t^3 maps t^7 - 1 onto t^7 - w because w^3 = 1
    A, B = PetitAlgebra(f), PetitAlgebra(h)
    assert verify_witness_multiplicative(A, B, IsometryWitness(ident, GF4.one, 3))
    assert not verify_witness_multiplicative(A, B, IsometryWitness(ident, GF4.one, 1))
    f = SkewPoly.from_ints([1, 0, 1, 0, 0, 0, 0, 1], TW)
    h = SkewPoly.from_ints([2, 1, 0, 0, 1, 0, 0, 1], TW)
    assert classify_pair(f, h).relation == Relation.NOT_RELATED


def _pairs_checked(monkeypatch, A, B, w):
    """verify_witness_multiplicative(A, B, w) and the number of generator pairs it checks.

    Each checked pair makes one product of S_h.  B's power table is first
    extended to t^(k(m-1)), the most _witness_map reads, and to t^(2m-1),
    the most a product of S_h (2m - 2) or B._associative reads, so no table
    step is made inside the check, whatever the caller read before, and only
    the pairs' products are counted.
    """
    B._reductions(max(w.k * (B.m - 1), 2 * B.m - 1))
    products = []
    mul = B.mul_indices
    monkeypatch.setattr(B, "mul_indices", lambda g, h: products.append(g) or mul(g, h))
    return verify_witness_multiplicative(A, B, w), len(products)


def test_witness_pairs_checked(monkeypatch):
    """(t^(m-1), t) alone decides a witness into an associative S_h with sigma^k = sigma.

    GF(4), sigma = id, m = 7: S_h is associative and the k = 3 witness holds
    after 1 pair of the 6 * 13 = 78.  GF(4) with the Frobenius, t^3 - w: S_h
    is not associative, so the k = 1 witness runs all 2 * 5 = 10 pairs.
    """
    ident = identity_aut(GF4)
    tw = TwistContext(GF4, ident)
    A, B = PetitAlgebra(consta(tw, 7, GF4.one)), PetitAlgebra(consta(tw, 7, OMEGA))
    assert B._associative
    assert _pairs_checked(monkeypatch, A, B, IsometryWitness(ident, GF4.one, 3)) == (True, 1)
    f, h = consta(TW, 3, GF4.one), consta(TW, 3, OMEGA)
    A, B = PetitAlgebra(f), PetitAlgebra(h)
    assert not B._associative
    assert _pairs_checked(monkeypatch, A, B, classify_pair(f, h, k=1).witness) == (True, 10)


def test_classify_pair_reads_associativity_once(monkeypatch):
    """GF(4) with the Frobenius, m = 4: two k = 3 witnesses pass (t^(m-1), t) into a
    nonassociative S_h, and its associativity is computed once."""
    import skewcodes.classify as classify
    import skewcodes.petit as petit

    f = SkewPoly([GF4.from_json(c) for c in ([0, 0], [0, 0], [0, 0], [1, 1])] + [GF4.one], TW)
    h = SkewPoly([GF4.from_json(c) for c in ([0, 0], [0, 0], [1, 0], [1, 0])] + [GF4.one], TW)
    verified, computed = [], []
    verify, rows = classify.verify_witness_multiplicative, petit._eigenring_rows

    def counting(A, B, w):
        verified.append((A, B, w))
        return verify(A, B, w)

    monkeypatch.setattr(classify, "verify_witness_multiplicative", counting)
    monkeypatch.setattr(petit, "_eigenring_rows", lambda A: computed.append(A.f) or rows(A))
    assert classify_pair(f, h).relation == Relation.NOT_RELATED
    assert sum(_pair_holds(*v) for v in verified) == 2
    assert computed == [h]


def test_classify_pair_gf2_m5_all_pairs_hash():
    """classify_pair over all 1,024 ordered pairs of monic quintics over GF(2), pinned."""
    tw = TwistContext(GF2, identity_aut(GF2))
    polys = monic_polys(tw, 5)
    out = json.dumps([classify_pair(f, h).to_json() for f in polys for h in polys],
                     sort_keys=True)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6b37b4979cdbe758d83adcfd4c4b6626e7e2ab6369cd5bfd492a2ca10d40c1e1")


def test_classify_pair_verifies_no_witness_twice(monkeypatch):
    """NotRelated over GF(4), m = 4: each (f, h, tau, alpha, k) is verified once."""
    import skewcodes.classify as classify

    seen = []
    verify = classify.verify_witness_multiplicative

    def counting(A, B, w):
        seen.append((A.f.coeffs, B.f.coeffs, w.tau.frob_exp, w.alpha.val, w.k))
        return verify(A, B, w)

    monkeypatch.setattr(classify, "verify_witness_multiplicative", counting)
    f = SkewPoly([GF4.from_json(c) for c in ([1, 1], [1, 0], [1, 0], [1, 0])] + [GF4.one], TW)
    h = SkewPoly([GF4.from_json(c) for c in ([1, 0], [1, 0], [1, 1], [1, 0])] + [GF4.one], TW)
    assert classify_pair(f, h).relation == Relation.NOT_RELATED
    # k = 3 is the one valid degree; tau = id and the Frobenius, 3 units each
    assert len(seen) == 6
    assert len(set(seen)) == len(seen)


def test_classify_pair_builds_each_algebra_once(monkeypatch):
    """NotRelated over GF(4), m = 4: the Chen and the full isometry search share S_f and S_h."""
    import skewcodes.classify as classify

    built = []
    init = classify.PetitAlgebra.__init__

    def counting(self, f):
        built.append(f)
        init(self, f)

    monkeypatch.setattr(classify.PetitAlgebra, "__init__", counting)
    f = SkewPoly([GF4.from_json(c) for c in ([1, 1], [1, 0], [1, 0], [1, 0])] + [GF4.one], TW)
    h = SkewPoly([GF4.from_json(c) for c in ([1, 0], [1, 0], [1, 1], [1, 0])] + [GF4.one], TW)
    assert classify_pair(f, h).relation == Relation.NOT_RELATED
    assert sorted(built, key=SkewPoly.sort_key) == sorted([f, h], key=SkewPoly.sort_key)


def test_classify_pair_first_pairs_make_no_product_of_s_f(monkeypatch):
    """NotRelated over GF(2), sigma = id, m = 5: the k = 2, 3, 4 verifications each stop at
    (t^(m-1), t), which reads row t^m of S_f's table and rows of S_h's.

    S_f makes no product, so the pair loop never runs, and G is built once
    per verification; S_h makes the 3 first-pair products and 11 table
    steps, to t^16 = t^(4(m-1)).
    """
    import skewcodes.classify as classify

    tw = TwistContext(GF2, identity_aut(GF2))
    f = SkewPoly.from_ints([1, 0, 1, 0, 0, 1], tw)
    h = SkewPoly.from_ints([1, 1, 0, 0, 0, 1], tw)
    products, maps, verified = [], [], []
    mul, witness_map = PetitAlgebra.mul_indices, classify._witness_map
    verify = classify.verify_witness_multiplicative

    def counting_mul(self, gv, hv):
        products.append(self.f)
        return mul(self, gv, hv)

    monkeypatch.setattr(PetitAlgebra, "mul_indices", counting_mul)
    monkeypatch.setattr(classify, "_witness_map", lambda B, w: maps.append(w) or witness_map(B, w))
    monkeypatch.setattr(classify, "verify_witness_multiplicative",
                        lambda A, B, w: verified.append(w.k) or verify(A, B, w))
    assert classify_pair(f, h).relation == Relation.NOT_RELATED
    assert verified == [2, 3, 4]
    assert [w.k for w in maps] == [2, 3, 4]
    assert products == [h] * 14


@pytest.mark.parametrize("f, h, relation", [
    (consta(TW, 2, OMEGA), consta(TW, 2, OMEGA2), Relation.EQUIVALENT),
    (consta(TW, 3, GF4.one), consta(TW, 3, OMEGA), Relation.CHEN_EQUIVALENT),
    (SkewPoly([GF4.from_json(c) for c in ([1, 1], [1, 0], [1, 0], [1, 0])] + [GF4.one], TW),
     SkewPoly([GF4.from_json(c) for c in ([1, 0], [1, 0], [1, 1], [1, 0])] + [GF4.one], TW),
     Relation.NOT_RELATED),
])
def test_classify_pair_checks_no_equivalence_twice(monkeypatch, f, h, relation):
    """One equivalence scan: each (tau, alpha) is checked at most once per call."""
    import skewcodes.classify as classify

    seen = []
    check = classify.check_equivalence

    def counting(f, h, tau, alpha):
        seen.append((tau.frob_exp, alpha.val))
        return check(f, h, tau, alpha)

    monkeypatch.setattr(classify, "check_equivalence", counting)
    assert classify_pair(f, h).relation == relation
    assert seen
    assert len(set(seen)) == len(seen)


def test_classify_pair_single_degree():
    tw = TwistContext(GF4, identity_aut(GF4))
    f, h = consta(tw, 5, GF4.one), consta(tw, 5, OMEGA)
    w = classify_pair(f, h, k=3).witness
    assert (w.k, w.alpha) == (3, GF4.one)  # N_5(alpha) * w^3 = 1
    w = classify_pair(f, h, k=1).witness
    assert (w.k, w.alpha) == (1, OMEGA)  # N_5(alpha) * w = 1
    with pytest.raises(InvalidK):
        classify_pair(f, h, k=5)  # k must be below m
    with pytest.raises(InvalidK):
        classify_pair(consta(TW, 5, GF4.one), consta(TW, 5, OMEGA), k=2)  # even, n = 2


MULTIPLICATIVITY_CONFIGS = [
    ("GF(4) Frobenius m=2", TW, 2),
    ("GF(4) Frobenius m=3", TW, 3),
    ("Z_4 m=3", _twist(make_residue_ring(4)), 3),
]


@pytest.mark.parametrize(
    "label,tw,m", MULTIPLICATIVITY_CONFIGS, ids=[c[0] for c in MULTIPLICATIVITY_CONFIGS]
)
def test_equivalence_is_multiplicativity(label, tw, m):
    """For m >= 2, check_equivalence(f, h, tau, alpha) is the multiplicativity of the
    k = 1 witness (tau, alpha), on every (f, h, tau, alpha); the proof is in
    check_equivalence's docstring."""
    polys = monic_polys(tw, m)
    algebras = [PetitAlgebra(f) for f in polys]
    taus = all_automorphisms(tw.ring)
    for f, A in zip(polys, algebras):
        for h, B in zip(polys, algebras):
            for tau in taus:
                for alpha in tw.ring.units:
                    w = IsometryWitness(tau, alpha)
                    assert check_equivalence(f, h, tau, alpha) == \
                        verify_witness_multiplicative(A, B, w), (f, h, w)


# the ladder of classify_pair's docstring, strongest first, written out apart from it
_RUNGS = [
    (Relation.CHEN_EQUIVALENT, True, True),
    (Relation.EQUIVALENT, True, False),
    (Relation.CHEN_ISOMETRIC, False, True),
    (Relation.ISOMETRIC, False, False),
]


def _all_witnesses(f, h, algebras):
    """Every witness (k, tau, alpha) of the pair in degree -> tau -> alpha order, checked by
    check_equivalence at k = 1 and verify_witness_multiplicative above it."""
    tw = f.twist
    found = []
    for k in [1] + valid_isometry_degrees(int(f.degree), tw.sigma.order):
        for tau in all_automorphisms(tw.ring):
            for alpha in tw.ring.units:
                w = IsometryWitness(tau, alpha, k)
                if (check_equivalence(f, h, tau, alpha) if k == 1
                        else verify_witness_multiplicative(*algebras, w)):
                    found.append(w)
    return found


def _strongest(found, chen_only, k):
    """The strongest relation among the witnesses in the mode's range, with that rung's
    first witness."""
    found = [w for w in found if (not chen_only or w.tau.is_identity) and k in (None, w.k)]
    for relation, equivalence, chen in _RUNGS:
        rung = [w for w in found if (w.k == 1, w.tau.is_identity) == (equivalence, chen)]
        if rung:
            return relation, rung[0]
    return Relation.NOT_RELATED, None


GF7_ID = _twist(make_field(7, 1))
GF9_FROB = _twist(make_field(3, 2), 1)
GF16_FROB = _twist(make_field(2, 4), 1)
# (label, polys, K, stride): every f against every stride-th h; K None where m has no
# valid degree k > 1.  Over GF(16) the non-Chen rung has three taus: on 8 of the 768
# pairs left, scanning alpha before tau would change its first witness.  On the
# Frobenius constacyclic configs sigma moves some constants, and 4, 50 and 100
# NotRelated pairs reach the k > 1 rungs
LADDER_CONFIGS = [
    ("GF(4) id m=3", monic_polys(_twist(GF4), 3), 2, 3),
    ("GF(7) constacyclic m=3", [consta(GF7_ID, 3, a) for a in GF7_ID.ring.units], 2, 1),
    ("GF(4) id constacyclic m=5", [consta(_twist(GF4), 5, a) for a in GF4.units], 3, 1),
    ("GF(16) Frobenius m=2", monic_polys(GF16_FROB, 2), None, 88),
    ("GF(4) Frobenius constacyclic m=4", [consta(TW, 4, a) for a in GF4.units], 3, 1),
    ("GF(9) Frobenius constacyclic m=4",
     [consta(GF9_FROB, 4, a) for a in GF9_FROB.ring.units], 3, 1),
    ("GF(16) Frobenius constacyclic m=6",
     [consta(GF16_FROB, 6, a) for a in GF16_FROB.ring.units], 5, 1),
]


@pytest.mark.parametrize("label,polys,K,stride", LADDER_CONFIGS,
                         ids=[c[0] for c in LADDER_CONFIGS])
def test_classify_pair_ladder_oracle(label, polys, K, stride):
    """classify_pair in all six modes, chen_only in {False, True} x k in {None, 1, K},
    against a brute force over the mode's (k, tau, alpha).  The strides keep the run
    short; over GF(4) m = 3 the 1,408 pairs left reach every relation each mode can give.

    This checks the ladder's order and labels, not soundness: both sides take
    verify_witness_multiplicative's verdict for k > 1, so a multiplicative map that is
    no isometry passes both (the monomial test is still missing there).
    """
    algebras = {f: PetitAlgebra(f) for f in polys}
    for f in polys:
        for h in polys[::stride]:
            found = _all_witnesses(f, h, (algebras[f], algebras[h]))
            reason = fast_reject(f, h)
            for chen_only in (False, True):
                for k in dict.fromkeys((None, 1, K)):
                    relation, witness = _strongest(found, chen_only, k)
                    got = classify_pair(f, h, chen_only=chen_only, k=k)
                    assert (got.relation, got.witness) == (relation, witness), \
                        (f, h, chen_only, k)
                    if relation == Relation.NOT_RELATED:
                        assert got.filter_reason == reason


NORM_RINGS = [
    ("GF(4)", GF4), ("GF(8)", make_field(2, 3)), ("GF(9)", make_field(3, 2)),
    ("Z_6", make_residue_ring(6)), ("Z_9", make_residue_ring(9)),
]


@pytest.mark.parametrize("label,ring", NORM_RINGS, ids=[c[0] for c in NORM_RINGS])
def test_norms_match_partial_norm(label, ring):
    """_norms(ring, e, a, n)[i] is partial_norm(x -> x^(p^e), a, i) for every e < r, every a
    (units and non-units) and every i <= n <= 6."""
    for e in range(ring.r):
        sigma = Automorphism(ring, e)
        for a in ring.elements:
            for n in range(7):
                want = [partial_norm(sigma, a, i).val for i in range(n + 1)]
                assert _norms(ring, e, a.val, n) == want, (e, a, n)


def test_valid_isometry_degrees():
    # n = 1: every 1 < k < m coprime to m qualifies
    assert valid_isometry_degrees(6, 1) == [5]
    # n = 2: k must be odd and coprime to m
    assert valid_isometry_degrees(8, 2) == [3, 5, 7]
    assert valid_isometry_degrees(3, 2) == []


def test_check_isometry_k_guards():
    f = consta(TW, 5, GF4.one)
    h = consta(TW, 5, OMEGA)
    with pytest.raises(InvalidK):
        check_isometry_k(f, h, FROB, GF4.one, 2)  # k even, n = 2
    with pytest.raises(NotConstacyclic):
        check_isometry_k(SkewPoly.from_ints([1, 1, 0, 0, 0, 1], TW), h,
                         FROB, GF4.one, 3)
    with pytest.raises(NonUnit):
        check_isometry_k(f, h, FROB, GF4.zero, 3)


# (label, twist, m, accepted witnesses): every constacyclic pair of the config
PREFILTER_CONFIGS = [
    ("GF(7) m=3", _twist(make_field(7, 1)), 3, 36),
    ("GF(7) m=6", _twist(make_field(7, 1)), 6, 36),
    ("GF(13) m=4", _twist(make_field(13, 1)), 4, 144),
    ("GF(4) id m=5", _twist(GF4), 5, 54),
    ("GF(4) Frobenius m=4", TW, 4, 6),
    ("GF(4) Frobenius m=6", TW, 6, 6),
    ("Z_9 m=3", _twist(make_residue_ring(9)), 3, 36),
    ("GF(9) Frobenius m=4", _twist(make_field(3, 2), 1), 4, 32),
]


@pytest.mark.parametrize("label,tw,m,accepted", PREFILTER_CONFIGS,
                         ids=[c[0] for c in PREFILTER_CONFIGS])
def test_constacyclic_prefilter_hides_no_witness(label, tw, m, accepted):
    """Every constacyclic (tau, alpha, k > 1) that verify_witness_multiplicative accepts
    also passes the public check_isometry_k, here also where sigma moves b: a measured
    property of the closed form on these configs, proved only for sigma(b) = b
    (test_check_isometry_k_is_the_pair_for_sigma_fixed_b)."""
    ring = tw.ring
    polys = [consta(tw, m, a) for a in ring.units]
    algebras = {f: PetitAlgebra(f) for f in polys}
    found = 0
    for f in polys:
        for h in polys:
            for k in valid_isometry_degrees(m, tw.sigma.order):
                for tau in all_automorphisms(ring):
                    for alpha in ring.units:
                        w = IsometryWitness(tau, alpha, k)
                        if verify_witness_multiplicative(algebras[f], algebras[h], w):
                            found += 1
                            assert check_isometry_k(f, h, tau, alpha, k), (f, h, w)
    assert found == accepted


def _pair_holds(A, B, w):
    """G(t^(m-1) *_f t) == G(t^(m-1)) *_h G(t) for G = _witness_map(B, w), on index lists."""
    G = _witness_map(B, w)
    m, one = A.m, A.ring.one.val
    return G(enumerate(A.mul_indices([0] * (m - 1) + [one], [0, one]))) == \
        B.mul_indices(G([(m - 1, one)]), G([(1, one)]))


GF7 = make_field(7, 1)
# (label, twist, m): h = t^m - b runs over the b that sigma fixes
SIGMA_FIXED_CONFIGS = [
    ("GF(7) m=3", _twist(GF7), 3),
    ("GF(7) m=6", _twist(GF7), 6),
    ("GF(4) Frobenius m=4, b in F_2", TW, 4),
    ("GF(9) Frobenius m=4, b in F_3", _twist(make_field(3, 2), 1), 4),
]


@pytest.mark.parametrize("label,tw,m", SIGMA_FIXED_CONFIGS,
                         ids=[c[0] for c in SIGMA_FIXED_CONFIGS])
def test_check_isometry_k_is_the_pair_for_sigma_fixed_b(label, tw, m):
    """For sigma(b) = b, check_isometry_k(f, h, tau, alpha, k) is the pair (t^(m-1), t)
    of verify_witness_multiplicative, for every constacyclic f, k = 1 and every valid k,
    tau and alpha."""
    ring = tw.ring
    fs = [consta(tw, m, a) for a in ring.units]
    hs = [consta(tw, m, b) for b in ring.units if tw.sigma(b) == b]
    algebras = {f: PetitAlgebra(f) for f in fs}
    verdicts = set()
    for f, h in itertools.product(fs, hs):
        for k in [1] + valid_isometry_degrees(m, tw.sigma.order):
            for tau, alpha in itertools.product(all_automorphisms(ring), ring.units):
                got = check_isometry_k(f, h, tau, alpha, k)
                assert got == _pair_holds(algebras[f], algebras[h],
                                          IsometryWitness(tau, alpha, k)), (f, h, tau, alpha, k)
                verdicts.add(got)
    assert verdicts == {True, False}


def test_witness_of_another_ring_raises():
    """tau and alpha of GF(8) against GF(4) algebras: ContextMismatch, as in
    check_equivalence, not an IndexError or a verdict read off the wrong tables."""
    GF8 = make_field(2, 3)
    f = consta(TW, 3, GF4.one)
    A = PetitAlgebra(f)
    for alpha in (GF8.from_json([1, 1, 1]), GF8.from_json([0, 1, 0])):
        w = IsometryWitness(identity_aut(GF8), alpha)
        with pytest.raises(ContextMismatch):
            verify_witness_multiplicative(A, A, w)
        with pytest.raises(ContextMismatch):
            check_isometry_k(f, f, w.tau, alpha, 1)
    # tau alone from GF(8), alpha of the ring of f
    with pytest.raises(ContextMismatch):
        verify_witness_multiplicative(A, A, IsometryWitness(identity_aut(GF8), GF4.one))
    with pytest.raises(ContextMismatch):
        check_isometry_k(f, f, Automorphism(GF8, 1), GF4.one, 1)


def test_check_isometry_k_necessary_condition():
    """k = 3 on quintics over GF(4): the closed condition has solutions."""
    f = consta(TW, 5, GF4.one)
    hits = [
        (tau.frob_exp, alpha, k)
        for k in valid_isometry_degrees(5, 2)
        for tau in (identity_aut(GF4), FROB)
        for alpha in GF4.units
        if check_isometry_k(f, f, tau, alpha, k)
    ]
    assert hits  # alpha = 1 always satisfies N(1) * 1 = 1
    assert any(alpha == GF4.one for _, alpha, _ in hits)


def test_counting_gf4():
    assert count_constacyclic_classes(GF4, FROB, 2) == (2, 1)
    assert count_constacyclic_classes(GF4, FROB, 3) == (1, 0)
    assert count_constacyclic_classes_formula(2, 2, 1, 2) == (2, 1)
    assert count_constacyclic_classes_formula(2, 2, 1, 3) == (1, 0)


def test_counting_identity_sigma():
    """sigma = id: every class is associative; count = gcd(m, q - 1)."""
    ident = identity_aut(GF4)
    for m in range(1, 7):
        nonassoc, assoc = count_constacyclic_classes(GF4, ident, m)
        assert nonassoc == 0
        assert assoc == count_constacyclic_classes_formula(2, 2, 2, m)[1]


def test_counting_enumeration_matches_formula():
    for p, r in ((2, 3), (3, 2)):
        K = make_field(p, r)
        for s in (1, r):
            sigma = Automorphism(K, s % r)
            for m in range(1, 7):
                assert count_constacyclic_classes(K, sigma, m) == \
                    count_constacyclic_classes_formula(p, r, s, m)


def test_counting_z6():
    """Residue ring: only the identity; counts come from the norm cosets."""
    Z6 = make_residue_ring(6)
    ident = identity_aut(Z6)
    nonassoc, assoc = count_constacyclic_classes(Z6, ident, 2)
    assert nonassoc == 0  # identity twist is always associative-compatible
    assert assoc >= 1


def test_counting_rejects_sigma_of_another_ring():
    """sigma must act on the ring counted, for m divisible by its order or not."""
    GF8 = make_field(2, 3)
    for m in (2, 3):
        with pytest.raises(ContextMismatch):
            count_constacyclic_classes(GF8, FROB, m)


def test_formula_requires_s_dividing_r():
    with pytest.raises(ValueError):
        count_constacyclic_classes_formula(2, 4, 3, 2)


def _bridge_parts(f, h, tau, alpha):
    """The constacyclic decomposition of check_equivalence(f, h, tau, alpha)."""
    m = int(f.degree)
    a, b = trailing_coeffs(f), trailing_coeffs(h)
    return all(x.is_zero() == y.is_zero() for x, y in zip(a, b)) and all(
        check_equivalence(consta(f.twist, m - i, a[i]), consta(f.twist, m - i, b[i]),
                          tau, f.twist.sigma.power(i)(alpha))
        for i in range(m) if not a[i].is_zero()
    )


def test_bridge_agreement():
    """Polycyclic equivalence decomposes into constacyclic conditions.

    f ~ h via (tau, alpha) exactly when a_i and b_i have the same support and,
    for every a_i != 0, t^(m-i) - a_i ~ t^(m-i) - b_i via (tau, sigma^i(alpha)).
    Sampled pairs are mostly not equivalent, so the orbit samples add
    h = f_(tau, alpha), with h_i = N_(m-i)(sigma^i(alpha))^-1 * tau(f_i), over
    GF(4) with the Frobenius at m = 4 and alpha = w, w^2, which sigma does not
    fix: there N_(m-i)(sigma^i(alpha)) != N_(m-i)(alpha) at i = 1 and 3.
    """
    m = 3
    polys = monic_polys(TW, m)
    for f in polys[::5]:
        for h in polys[::7]:
            for tau in (identity_aut(GF4), FROB):
                for alpha in GF4.units:
                    assert check_equivalence(f, h, tau, alpha) == _bridge_parts(f, h, tau, alpha)
    m = 4
    for f in monic_polys(TW, m)[::5]:
        for tau in (identity_aut(GF4), FROB):
            for alpha in (OMEGA, OMEGA2):
                conj = [FROB.power(j)(alpha) for j in range(m)]
                norms = [math.prod(conj[i:], start=GF4.one) for i in range(m)]
                h = SkewPoly([norms[i].inverse() * tau(f.coeff(i)) for i in range(m)] + [GF4.one], TW)
                assert check_equivalence(f, h, tau, alpha)
                assert _bridge_parts(f, h, tau, alpha), (f, h, tau, alpha)


ZERO_DERIVATIONS = [
    ("Z_4, beta = 1", Z4, Z4.one),
    ("GF(4) sigma = id, beta = w", GF4, OMEGA),
]


def _without_delta(value):
    """A parsed catalogue line with every polynomial's "delta" field dropped."""
    if isinstance(value, dict):
        return {k: _without_delta(v) for k, v in value.items() if k != "delta"}
    if isinstance(value, list):
        return [_without_delta(v) for v in value]
    return value


@pytest.mark.parametrize("label,ring,beta", ZERO_DERIVATIONS, ids=[c[0] for c in ZERO_DERIVATIONS])
def test_zero_derivation_is_no_delta(label, ring, beta):
    """With sigma = id, delta(a) = beta*(a - a) = 0, so the twist behaves as the delta-free one.

    classify_pair agrees on every ordered monic pair at m = 2 and 3, and the
    catalogue lines agree once the "delta" field is dropped.
    """
    plain, zero = _twist(ring), TwistContext(ring, identity_aut(ring), beta)
    assert not zero.has_delta
    for m in (2, 3):
        for fv, hv in itertools.product([f.vals for f in monic_polys(plain, m)], repeat=2):
            pair = [SkewPoly.from_indices(v, tw) for tw in (plain, zero) for v in (fv, hv)]
            assert classify_pair(*pair[:2]).to_json() == classify_pair(*pair[2:]).to_json()
        lines = [[_without_delta(json.loads(line)) for line in run_catalogue(tw, m)]
                 for tw in (plain, zero)]
        assert lines[0] == lines[1]
    f = consta(zero, 3, ring.one)
    assert psi(f).vals == f.vals
    assert [g.vals for g in equivalence_class_of(f)] == \
        [g.vals for g in equivalence_class_of(consta(plain, 3, ring.one))]


def test_nonzero_derivation_has_delta():
    """sigma != id and beta != 0 give delta != 0: over GF(4), GF(8) and GF(9)."""
    for K in (GF4, make_field(2, 3), make_field(3, 2)):
        for e in range(1, K.r):
            for beta in K.units:
                assert TwistContext(K, Automorphism(K, e), beta).has_delta
