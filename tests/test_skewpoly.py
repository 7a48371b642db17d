"""Skew polynomial arithmetic and Euclidean division."""

import itertools
import random
import tracemalloc

import pytest

from skewcodes.coeffring import Automorphism, Element, identity_aut, make_field, make_residue_ring
from skewcodes.errors import (
    ContextMismatch,
    DeltaNotZero,
    EnumerationCapExceeded,
    NonInvertibleLeadingCoefficient,
)
from skewcodes.skewpoly import (
    SkewPoly,
    TwistContext,
    _left_divide,
    all_monic_right_divisors,
    enumerate_monic_right_divisors,
    left_divide,
    monic_right_divisor_lists,
    monic_right_divisor_table,
    monic_scale,
    psi,
    right_divide,
    skew_mul,
)

GF4 = make_field(2, 2)
FROB = Automorphism(GF4, 1)
TW = TwistContext(GF4, FROB)
OMEGA = GF4.from_json([0, 1])
OMEGA2 = OMEGA * OMEGA


def P(*ints):
    return SkewPoly.from_ints(ints, TW)


def test_commutation_rule():
    """t * w = w^2 * t under the Frobenius."""
    t = SkewPoly.t_power(1, TW)
    w = SkewPoly([OMEGA], TW)
    assert skew_mul(t, w) == SkewPoly([GF4.zero, OMEGA2], TW)


def test_normalization_strips_leading_zeros():
    g = SkewPoly([GF4.one, GF4.zero, GF4.zero], TW)
    assert g.degree == 0
    assert SkewPoly([GF4.zero], TW).is_zero


def test_degree_law():
    """deg(g*h) = deg g + deg h when a leading coefficient is a unit."""
    polys = [SkewPoly(list(tail), TW) for tail in
             itertools.product(GF4.elements, repeat=3)]
    for g in polys:
        for h in polys:
            if g.is_zero or h.is_zero:
                assert skew_mul(g, h).is_zero
            else:
                assert skew_mul(g, h).degree == g.degree + h.degree


def test_sigma_id_matches_commutative():
    """With sigma = id and delta = 0 the product is the ordinary one."""
    tw = TwistContext(GF4, identity_aut(GF4))
    polys = [SkewPoly(list(tail), tw) for tail in
             itertools.product(GF4.elements, repeat=3)]
    for g in polys:
        for h in polys:
            expected = [GF4.zero] * 5
            for i, gi in enumerate(g.coeffs):
                for j, hj in enumerate(h.coeffs):
                    expected[i + j] = expected[i + j] + gi * hj
            assert skew_mul(g, h) == SkewPoly(expected, tw)


def test_skew_mul_noncommutative():
    t = SkewPoly.t_power(1, TW)
    w = SkewPoly([OMEGA], TW)
    assert skew_mul(t, w) != skew_mul(w, t)


def test_operators_match_hand_arithmetic():
    """-g, g - h and g * h, on Z_4[t] and on GF(9)[t; x -> x^3]."""
    Z4 = make_residue_ring(4)
    tw = TwistContext(Z4, identity_aut(Z4))

    def Z(*ints):
        return SkewPoly.from_ints(ints, tw)

    assert -Z(1, 1) == Z(3, 3)
    assert -(-Z(1, 2, 3)) == Z(1, 2, 3)
    assert Z(1, 1) - Z(3, 1) == Z(2)
    assert (Z(1, 1) - Z(1, 1)).is_zero
    assert Z(1, 1) * Z(3, 1) == Z(3, 0, 1)  # (t + 1)(t - 1) = t^2 - 1
    GF9 = make_field(3, 2)
    tw9 = TwistContext(GF9, Automorphism(GF9, 1))
    x = GF9.from_json([0, 1])
    t, a = SkewPoly.t_power(1, tw9), SkewPoly([x], tw9)
    assert t * a == SkewPoly([GF9.zero, x ** 3], tw9)  # t * x = x^3 * t
    assert t * a - a * t == SkewPoly([GF9.zero, x ** 3 - x], tw9)
    assert not (t * a - a * t).is_zero  # x is not in GF(3)


def test_ring_associativity_delta_zero():
    polys = [SkewPoly(list(tail), TW) for tail in
             itertools.product(GF4.elements, repeat=3)]
    for g in polys[:16]:
        for h in polys:
            for k in polys[::5]:
                assert skew_mul(skew_mul(g, h), k) == skew_mul(g, skew_mul(h, k))


def test_ring_associativity_inner_delta():
    """Exhaustive degree <= 1 triples with delta = inner derivation by w."""
    tw = TwistContext(GF4, FROB, delta_beta=OMEGA)
    assert tw.has_delta
    polys = [SkewPoly(list(tail), tw) for tail in
             itertools.product(GF4.elements, repeat=2)]
    for g in polys:
        for h in polys:
            for k in polys:
                assert skew_mul(skew_mul(g, h), k) == skew_mul(g, skew_mul(h, k))


def test_inner_delta_satisfies_derivation_law():
    """delta(ab) = sigma(a)delta(b) + delta(a)b for delta(a) = beta*(sigma(a) - a) and every
    beta, the identity TwistContext's docstring proves, on GF(4) with the Frobenius, GF(8)
    with sigma and sigma^2 and GF(9) with the Frobenius."""
    GF8, GF9 = make_field(2, 3), make_field(3, 2)
    for sigma in (FROB, Automorphism(GF8, 1), Automorphism(GF8, 2), Automorphism(GF9, 1)):
        ring = sigma.ctx
        for beta in ring.elements:
            def delta(a):
                return beta * (sigma(a) - a)

            for a, b in itertools.product(ring.elements, repeat=2):
                assert delta(a * b) == sigma(a) * delta(b) + delta(a) * b, (sigma, beta, a, b)


def test_residue_ring_rejects_frobenius_twist():
    Z6 = make_residue_ring(6)
    with pytest.raises(ValueError):
        Automorphism(Z6, 1)
    # identity twist is fine
    TwistContext(Z6, identity_aut(Z6))


def test_right_division_example():
    """t^2 = (t+1)(t-1) + 1 in characteristic 2."""
    g = P(0, 0, 1)
    f = P(1, 1)
    q, rem = right_divide(g, f)
    assert q == P(1, 1)
    assert rem == P(1)


def test_left_division_example():
    g = SkewPoly([GF4.zero, GF4.zero, GF4.one], TW)
    f = SkewPoly([OMEGA, GF4.one], TW)
    q, rem = left_divide(g, f)
    assert skew_mul(f, q) + rem == g
    assert rem.degree < f.degree


def test_division_reconstruction_small():
    """g = q*f + rem and g = f*q' + rem' over all small GF(4) instances."""
    polys = [SkewPoly(list(tail), TW) for tail in
             itertools.product(GF4.elements, repeat=4)]
    monics = [f for f in polys if not f.is_zero and f.is_monic and f.degree >= 1]
    for g in polys[::3]:
        for f in monics[::2]:
            q, rem = right_divide(g, f)
            assert skew_mul(q, f) + rem == g
            assert rem.degree < f.degree
            q, rem = left_divide(g, f)
            assert skew_mul(f, q) + rem == g
            assert rem.degree < f.degree


def test_division_reconstruction_inner_delta():
    """Both divisions with delta != 0: every g of degree <= 3 by every monic f of degree 1..3."""
    tw = TwistContext(GF4, FROB, delta_beta=OMEGA)
    polys = [SkewPoly(list(tail), tw) for tail in itertools.product(GF4.elements, repeat=4)]
    monics = [SkewPoly(list(tail) + [GF4.one], tw)
              for d in (1, 2, 3) for tail in itertools.product(GF4.elements, repeat=d)]
    for g in polys:
        for f in monics:
            q, rem = right_divide(g, f)
            assert skew_mul(q, f) + rem == g
            assert rem.degree < f.degree
            q, rem = left_divide(g, f)
            assert skew_mul(f, q) + rem == g
            assert rem.degree < f.degree


def _t_times_reference(tw, b, i):
    """The nonzero terms of t^i * b, applying t*a = sigma(a)*t + beta*(sigma(a) - a) i times."""
    zero = tw.ring.zero
    beta = tw.delta_beta
    poly = [b]
    for _ in range(i):
        out = [zero] * (len(poly) + 1)
        for l, c in enumerate(poly):
            out[l + 1] = out[l + 1] + tw.sigma(c)
            if beta is not None:
                out[l] = out[l] + beta * (tw.sigma(c) - c)
        poly = out
    return [(l, c) for l, c in enumerate(poly) if not c.is_zero()]


@pytest.mark.parametrize("inner", [False, True])
@pytest.mark.parametrize("p,r,e", [(2, 2, 1), (2, 3, 1), (2, 3, 2), (3, 2, 1)])
def test_t_times_matches_commutation_rule(p, r, e, inner):
    """t_times(i)[b] over GF(4), GF(8), GF(9), with delta = 0 and inner delta != 0, i <= 5.

    The table holds index terms (l, c.val) of the reference's Element terms."""
    K = make_field(p, r)
    tw = TwistContext(K, Automorphism(K, e), delta_beta=K.elements[-1] if inner else None)
    assert tw.has_delta == inner
    for i in range(6):
        table = tw.t_times(i)
        assert table is tw.t_times(i)
        for b in K.elements:
            assert table[b.val] == [(l, c.val) for l, c in _t_times_reference(tw, b, i)]


def test_division_by_zero_divisor_leading_coeff():
    Z6 = make_residue_ring(6)
    tw = TwistContext(Z6, identity_aut(Z6))
    g = SkewPoly.from_ints([1, 1], tw)
    f = SkewPoly.from_ints([1, 2], tw)  # leading coefficient 2 is not a unit
    with pytest.raises(NonInvertibleLeadingCoefficient):
        right_divide(g, f)
    with pytest.raises(NonInvertibleLeadingCoefficient):
        left_divide(g, f)


def test_divisors_of_t3_minus_1():
    """Monic right divisors of t^3 - 1 over GF(4) with the Frobenius."""
    f = P(1, 0, 0, 1)
    divs = all_monic_right_divisors(f)
    assert SkewPoly.one(TW) in divs
    assert P(1, 1) in divs  # t - 1
    assert P(1, 1, 1) in divs  # t^2 + t + 1
    assert f in divs
    for g in divs:
        assert right_divide(f, g)[1].is_zero


def test_top_degree_divisor_is_f_itself():
    """The brute-force degree-m scan finds exactly f, which is appended without a scan."""
    for tail in itertools.product(GF4.elements, repeat=2):
        f = SkewPoly(list(tail) + [GF4.one], TW)
        assert enumerate_monic_right_divisors(f, 2) == [f]
        assert [g for g in all_monic_right_divisors(f) if g.degree == 2] == [f]


def test_constant_divisors_listed_once():
    """A constant f has the one monic right divisor 1, listed once, monic or not."""
    for tw in (TW, TwistContext(GF4, FROB, delta_beta=OMEGA)):
        for c in (GF4.one, OMEGA):
            f = SkewPoly([c], tw)
            assert all_monic_right_divisors(f) == [SkewPoly.one(tw)] == _per_degree_scan(f), f
        # batches of mixed degree: each polynomial's own degree decides whether 1 leads its list
        linear = SkewPoly([GF4.one, GF4.one], tw)
        quadratic = SkewPoly([GF4.one, GF4.zero, GF4.one], tw)
        for c in (GF4.one, OMEGA):
            constant = SkewPoly([c], tw)
            for batch in ([linear, constant], [constant, quadratic], [quadratic, constant, linear]):
                assert monic_right_divisor_lists(batch) == [_per_degree_scan(f) for f in batch], batch


def _per_degree_scan(f):
    """Every degree scanned; a monic f is its own only monic divisor of top degree."""
    m = int(f.degree)
    out = [g for d in range(m) for g in enumerate_monic_right_divisors(f, d)]
    return out + ([f] if f.is_monic else enumerate_monic_right_divisors(f, m))


def _monics(tw, m, constacyclic):
    ring = tw.ring
    if constacyclic:
        return [SkewPoly([-a] + [ring.zero] * (m - 1) + [ring.one], tw) for a in ring.units]
    return [SkewPoly(list(tail) + [ring.one], tw)
            for tail in itertools.product(ring.elements, repeat=m)]


def _tw(ring, e=0):
    return TwistContext(ring, Automorphism(ring, e))


HALVED_CONFIGS = [
    ("GF(4) id m=3", _tw(GF4, 0), 3, False),
    ("GF(4) Frobenius m=3", _tw(GF4, 1), 3, False),
    ("GF(4) Frobenius m=4", _tw(GF4, 1), 4, False),
    ("GF(2) m=6", _tw(make_field(2, 1)), 6, False),
    ("GF(4) Frobenius m=5 constacyclic", _tw(GF4, 1), 5, True),
    ("GF(8) sigma^2 m=4 constacyclic", _tw(make_field(2, 3), 2), 4, True),
    ("GF(9) Frobenius m=3 constacyclic", _tw(make_field(3, 2), 1), 3, True),
    ("GF(9) Frobenius m=4 constacyclic", _tw(make_field(3, 2), 1), 4, True),
    ("Z_4 m=3", _tw(make_residue_ring(4)), 3, False),
    ("Z_6 m=3", _tw(make_residue_ring(6)), 3, False),
    ("Z_9 m=2", _tw(make_residue_ring(9)), 2, False),
]


@pytest.mark.parametrize("label,tw,m,constacyclic", HALVED_CONFIGS,
                         ids=[c[0] for c in HALVED_CONFIGS])
def test_all_divisors_match_per_degree_scan(label, tw, m, constacyclic):
    """The psi-halved search (monic f, delta = 0) equals the brute-force scan of every degree."""
    for f in _monics(tw, m, constacyclic):
        assert all_monic_right_divisors(f) == _per_degree_scan(f), f


PRODUCT_CONFIGS = [
    ("GF(4) Frobenius m=4", _tw(GF4, 1), 4),
    ("Z_4 m=3", _tw(make_residue_ring(4)), 3),
    ("GF(9) Frobenius m=3", _tw(make_field(3, 2), 1), 3),
    ("GF(8) sigma m=3", _tw(make_field(2, 3), 1), 3),
    ("Z_8 m=3", _tw(make_residue_ring(8)), 3),
    ("GF(4) inner delta m=3", TwistContext(GF4, FROB, delta_beta=OMEGA), 3),
]


@pytest.mark.parametrize("label,tw,m", PRODUCT_CONFIGS, ids=[c[0] for c in PRODUCT_CONFIGS])
def test_all_divisors_match_products(label, tw, m):
    """Product-side oracle: the monic right divisors of every monic f of degree m
    are the g of all monic products q*g = f with deg q + deg g = m.

    All but the delta != 0 config take the psi-halved path (over GF(8), psi(f)
    lives under sigma^-1 != sigma), the delta != 0 one the scan of every
    degree; no division is used to build the oracle."""
    oracle = {}
    for d in range(m + 1):
        for q in _monics(tw, m - d, False):
            for g in _monics(tw, d, False):
                oracle.setdefault(skew_mul(q, g), set()).add(g)
    for f in _monics(tw, m, False):
        assert all_monic_right_divisors(f) == sorted(oracle[f], key=SkewPoly.sort_key), f


def test_all_divisors_match_per_degree_scan_on_products():
    """f = h*g of degree 5 over GF(4) with the Frobenius, g over every monic quadratic:
    degrees 3 and 4 come from divisors of psi(f) of degree 2 and 1, and psi^-1
    moves the t-coefficient w of a quadratic to w^2."""
    h = SkewPoly([GF4.one, OMEGA, GF4.zero, GF4.one], TW)
    for g in _monics(TW, 2, False):
        f = skew_mul(h, g)
        divs = all_monic_right_divisors(f)
        assert g in divs
        assert divs == _per_degree_scan(f), f


def test_all_divisors_on_products_use_psi_inverse():
    """f = h*g of degree 5 over GF(8) with sigma: x -> x^2, h = t^2 + x*t + x and g
    over every 16th monic cubic: g is the left quotient of f by psi^-1(psi(h)) = h,
    and h's t-coefficient x is not fixed by sigma^2 = sigma^-1, so psi in place of
    psi^-1 there gives another quotient (sigma^-1 = sigma in the test above)."""
    x = make_field(2, 3).from_json([0, 1, 0])
    tw = _tw(x.ctx, 1)
    h = SkewPoly([x, x, x.ctx.one], tw)
    for g in _monics(tw, 3, False)[::16]:
        f = skew_mul(h, g)
        divs = all_monic_right_divisors(f)
        assert g in divs
        assert divs == _per_degree_scan(f), f


def test_all_divisors_brute_force_paths():
    """delta != 0 and a non-monic f keep the scan of every degree."""
    tw = TwistContext(GF4, FROB, delta_beta=OMEGA)
    for f in _monics(tw, 3, False):
        assert all_monic_right_divisors(f) == _per_degree_scan(f), f
    for tail in itertools.product(GF4.elements, repeat=3):
        f = SkewPoly(list(tail) + [OMEGA], TW)  # leading coefficient w
        divs = all_monic_right_divisors(f)
        assert divs == _per_degree_scan(f), f
        assert divs[-1] == monic_scale(f)


BATCH_CONFIGS = [
    *[(f"GF(4) Frobenius m={m}", _tw(GF4, 1), m) for m in range(1, 5)],
    *[(f"Z_4 m={m}", _tw(make_residue_ring(4)), m) for m in range(1, 5)],
    ("GF(8) sigma^2 m=3", _tw(make_field(2, 3), 2), 3),
    ("GF(9) Frobenius m=3", _tw(make_field(3, 2), 1), 3),
    ("GF(4) inner delta m=3", TwistContext(GF4, FROB, delta_beta=OMEGA), 3),
]


@pytest.mark.parametrize("label,tw,m", BATCH_CONFIGS, ids=[c[0] for c in BATCH_CONFIGS])
def test_divisor_lists_match_per_degree_scan(label, tw, m):
    """One batch over every monic f of degree m, where high parts are shared,
    equals the scan of every degree for each f on its own.  delta != 0 takes
    the unhalved path; under sigma^2 on GF(8), psi(f) lives under sigma, so a
    table shared across the two twists would give wrong divisors."""
    fs = _monics(tw, m, False)
    assert monic_right_divisor_lists(fs) == [_per_degree_scan(f) for f in fs]


def test_divisor_lists_mix_monic_and_non_monic():
    """Monic f and f with leading coefficient w in one batch keep their own degree ranges."""
    fs = [SkewPoly(list(tail) + [lead], TW)
          for tail in itertools.product(GF4.elements, repeat=3) for lead in (GF4.one, OMEGA)]
    lists = monic_right_divisor_lists(fs)
    assert lists == [_per_degree_scan(f) for f in fs]
    assert all(divs[-1] == monic_scale(f) for f, divs in zip(fs, lists))


def test_divisor_table_keys_low_parts():
    """Asked for every low part, the table of one high part holds every candidate
    once, keyed by the low part of the one f with that high part it divides, as
    right_divide finds, and keeps right_divide's quotient next to it; asked for
    some, it keeps only theirs."""
    high = P(1, 0, 1, 1).vals[2:]
    lows = list(itertools.product(range(4), repeat=2))
    table = monic_right_divisor_table(TW, 2, high, lows)
    assert sum(len(tails) for tails in table.values()) == 16
    one = (GF4.one.val,)
    for low, tails in table.items():
        h = SkewPoly.from_indices(low + high, TW)
        expected = [g for g in _monics(TW, 2, False) if right_divide(h, g)[1].is_zero]
        assert [SkewPoly.from_indices(t + one, TW) for t in tails] == expected
        for tail, quotient in tails.items():
            assert quotient == right_divide(h, SkewPoly.from_indices(tail + one, TW))[0].vals
    some = list(table)[::2]
    assert monic_right_divisor_table(TW, 2, high, some) == {low: table[low] for low in some}


def test_divisor_table_memory_keeps_only_asked_lows():
    """One degree-3 table over GF(16), 4,096 candidates, asked for one low part:
    it holds that low part's divisors only, so its peak under tracemalloc stays
    under 64 KiB (keeping every candidate tail took about 0.7 MiB)."""
    field = make_field(2, 4)
    tw = _tw(field, 1)
    one = (field.one.val,)
    g = SkewPoly.from_indices((3, 5, 7) + one, tw)
    f = skew_mul(SkewPoly.from_indices((2, 9, 11) + one, tw), g)
    args = (tw, 3, f.vals[3:], [f.vals[:3]])
    table = monic_right_divisor_table(*args)  # builds the t_times levels it reads
    tracemalloc.start()
    try:
        table = monic_right_divisor_table(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(table) == [f.vals[:3]] and g.vals[:3] in table[f.vals[:3]]
    assert peak < 64 * 1024, peak


def test_divisor_lists_cap():
    """The batch raises EnumerationCapExceeded at the first degree over the cap."""
    fs = _monics(TW, 4, False)
    with pytest.raises(EnumerationCapExceeded):
        monic_right_divisor_lists(fs, cap=15)
    assert len(monic_right_divisor_lists(fs, cap=16)) == len(fs)


SCAN_CONFIGS = [
    ("GF(4) Frobenius m=3", _tw(GF4, 1), 3, None),
    ("GF(4) inner delta m=3", TwistContext(GF4, FROB, delta_beta=OMEGA), 3, None),
    ("GF(4) Frobenius m=3, leading w", _tw(GF4, 1), 3, OMEGA),
    ("GF(9) Frobenius m=2", _tw(make_field(3, 2), 1), 2, None),
    ("Z_4 m=3", _tw(make_residue_ring(4)), 3, None),
]


@pytest.mark.parametrize("label,tw,m,lead", SCAN_CONFIGS, ids=[c[0] for c in SCAN_CONFIGS])
def test_monic_scan_matches_right_divide(label, tw, m, lead):
    """The divisor scan's step for a monic candidate keeps right_divide's test:
    for every f of degree m (monic, or with leading coefficient lead) and every
    degree d <= m, it finds exactly the monic g of degree d that right_divide
    leaves no remainder for, in the same order."""
    ring = tw.ring
    for tail in itertools.product(ring.elements, repeat=m):
        f = SkewPoly(list(tail) + [lead or ring.one], tw)
        for d in range(m + 1):
            expected = [g for g in _monics(tw, d, False) if right_divide(f, g)[1].is_zero]
            assert enumerate_monic_right_divisors(f, d) == expected, (f, d)


def test_t2_minus_omega_has_no_linear_divisor():
    """N_2(c) = c^3 = 1 for every unit, so t - c never divides t^2 - w."""
    f = SkewPoly([OMEGA, GF4.zero, GF4.one], TW)
    assert enumerate_monic_right_divisors(f, 1) == []


def test_enumeration_cap():
    f = P(1, 0, 0, 1)
    with pytest.raises(EnumerationCapExceeded):
        enumerate_monic_right_divisors(f, 3, cap=10)


def test_monic_scale():
    g = SkewPoly([GF4.one, OMEGA], TW)
    h = monic_scale(g)
    assert h.is_monic
    assert h == g.scale_left(OMEGA.inverse())
    zero = SkewPoly([], TW)
    assert monic_scale(zero) is zero
    Z4 = make_residue_ring(4)
    with pytest.raises(NonInvertibleLeadingCoefficient):  # 2t + 1: 2 is not a unit of Z_4
        monic_scale(SkewPoly.from_ints([1, 2], TwistContext(Z4, identity_aut(Z4))))


def test_psi_example():
    """psi(w t) = sigma^(-1)(w) t = w^2 t."""
    g = SkewPoly([GF4.zero, OMEGA], TW)
    img = psi(g)
    assert img.coeffs == (GF4.zero, OMEGA2)
    assert img.twist.sigma == FROB.inverse()


def test_psi_involution_and_antimultiplicative():
    polys = [SkewPoly(list(tail), TW) for tail in
             itertools.product(GF4.elements, repeat=3)]
    for g in polys:
        assert psi(psi(g)) == g
        for h in polys[::7]:
            assert psi(skew_mul(g, h)) == skew_mul(psi(h), psi(g))


LEFT_QUOTIENT_CONFIGS = [
    ("GF(4) Frobenius m=4", _tw(GF4, 1), 4, 1),
    ("GF(8) sigma m=3", _tw(make_field(2, 3), 1), 3, 5),
    ("Z_8 m=3", _tw(make_residue_ring(8)), 3, 5),
]


@pytest.mark.parametrize("label,tw,m,stride", LEFT_QUOTIENT_CONFIGS,
                         ids=[c[0] for c in LEFT_QUOTIENT_CONFIGS])
def test_index_left_quotient_matches_left_divide(label, tw, m, stride):
    """The index-level left division behind left_divide (no divisor list reads
    it: the upper half comes off the scans' quotients), over every stride-th
    monic f of degree m and every monic q of degree 1..m-1, returns
    left_divide's quotient and remainder, the quotient already trimmed (monic
    of degree m - deg q), and f = q*quotient + remainder."""
    qs = [q for d in range(1, m) for q in _monics(tw, d, False)]
    for f in _monics(tw, m, False)[::stride]:
        for q in qs:
            quot, rem = _left_divide(tw, f.vals, q.vals)
            expected = left_divide(f, q)
            assert (tuple(quot), SkewPoly.from_indices(rem, tw)) == (expected[0].vals, expected[1])
            assert skew_mul(q, expected[0]) + expected[1] == f, (f, q)


def test_psi_rejects_delta():
    tw = TwistContext(GF4, FROB, delta_beta=OMEGA)
    with pytest.raises(DeltaNotZero):
        psi(SkewPoly.one(tw))


def test_context_mismatch():
    other = TwistContext(GF4, identity_aut(GF4))
    with pytest.raises(ContextMismatch):
        skew_mul(SkewPoly.one(TW), SkewPoly.one(other))


def test_foreign_coefficients_rejected():
    """Coefficients of another ring would be read in the wrong tables."""
    GF3 = make_field(3, 1)
    with pytest.raises(ContextMismatch):
        SkewPoly([GF3.one, GF3.one], TW)
    with pytest.raises(ContextMismatch):
        SkewPoly.monomial(GF3.one, 2, TW)
    with pytest.raises(ContextMismatch):
        P(1, 1).scale_left(GF3.one)


def test_twist_rejects_foreign_sigma_and_beta():
    GF8 = make_field(2, 3)
    with pytest.raises(ContextMismatch):
        TwistContext(GF4, Automorphism(GF8, 1))
    with pytest.raises(ContextMismatch):
        TwistContext(GF4, FROB, delta_beta=GF8.one)


def test_stores_only_indices():
    g = SkewPoly([OMEGA, GF4.zero, OMEGA2, GF4.zero], TW)
    assert SkewPoly.__slots__ == ("vals", "twist")
    assert g.vals == (OMEGA.val, 0, OMEGA2.val)
    assert SkewPoly.from_indices([OMEGA.val, 0, OMEGA2.val, 0, 0], TW) == g


def test_coeffs_view_round_trips():
    for tail in itertools.product(GF4.elements, repeat=3):
        p = SkewPoly(tail, TW)
        assert all(isinstance(c, Element) for c in p.coeffs)
        assert p.coeffs == tail[:len(p.vals)]
        assert SkewPoly(p.coeffs, TW) == p


def test_sort_key_matches_element_keys():
    """Index keys order polynomials as keys read off their coefficient Elements do:
    every polynomial of degree <= 3 over GF(4), the monic cubics among them."""
    polys = [SkewPoly(tail, TW) for tail in itertools.product(GF4.elements, repeat=4)]
    random.Random(0).shuffle(polys)

    def element_key(p):
        return (len(p.coeffs), tuple(c.val for c in p.coeffs))

    assert sorted(polys, key=SkewPoly.sort_key) == sorted(polys, key=element_key)
    cubics = [p for p in polys if p.degree == 3 and p.is_monic]
    assert len(cubics) == 64
    assert sorted(cubics, key=SkewPoly.sort_key) == sorted(cubics, key=element_key)
