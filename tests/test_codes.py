"""Code construction: generator matrices, shift closure, distance, code transport."""

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewcodes.catalogue import partition_classes, run_catalogue
from skewcodes.classify import (
    IsometryWitness,
    _Orbits,
    check_equivalence,
    classify_pair,
)
from skewcodes.codes import (
    LinearCode,
    _min_distance,
    apply_isometry_to_code,
    build_code,
    code_class_codes,
    min_hamming_distance,
    shift_closure_check,
)
from skewcodes.coeffring import (
    Automorphism,
    all_automorphisms,
    identity_aut,
    make_field,
    make_residue_ring,
    partial_norm,
)
from skewcodes.errors import DegreeTooHigh, EnumerationCapExceeded, NonMonic, WitnessInvalid
from skewcodes.petit import PetitAlgebra, _left_ideal_span
from skewcodes.skewpoly import (
    SkewPoly,
    TwistContext,
    all_monic_right_divisors,
    monic_scale,
    skew_mul,
)
from test_petit import t_step

GF4 = make_field(2, 2)
FROB = Automorphism(GF4, 1)
TW = TwistContext(GF4, FROB)
OMEGA = GF4.from_json([0, 1])

F_CYCLIC3 = SkewPoly.from_ints([1, 0, 0, 1], TW)  # t^3 - 1
A3 = PetitAlgebra(F_CYCLIC3)


def test_cyclic_example_code():
    """g = t - 1 inside t^3 - 1 gives the [3, 2] parity-style code."""
    g = SkewPoly.from_ints([1, 1], TW)
    C = build_code(A3, g)
    assert C.length == 3
    assert C.dimension == 2
    one, zero = GF4.one, GF4.zero
    assert C.gen_matrix == ((one, one, zero), (zero, one, one))
    assert min_hamming_distance(C) == 2


def test_build_code_rejects_bad_generators():
    """g must be nonzero, of degree below m = 3 and monic."""
    with pytest.raises(DegreeTooHigh):
        build_code(A3, F_CYCLIC3)
    with pytest.raises(DegreeTooHigh):
        build_code(A3, SkewPoly([], TW))
    with pytest.raises(NonMonic):
        build_code(A3, SkewPoly([OMEGA, OMEGA], TW))  # w*t + w = w*(t + 1)


def test_dimension_formula():
    """dim = m - deg g for every right divisor."""
    for C in code_class_codes(A3):
        assert C.dimension == A3.m - int(C.g.degree)


def test_codeword_count():
    g = SkewPoly.from_ints([1, 1], TW)
    C = build_code(A3, g)
    assert len(C.codewords()) == GF4.size ** 2


GF9 = make_field(3, 2)
DELTA_SHIFTS = [
    (TwistContext(GF4, FROB, OMEGA), 3),
    (TwistContext(GF4, FROB, GF4.one), 3),
    (TwistContext(GF9, Automorphism(GF9, 1), GF9.one), 2),
]


def test_every_built_code_is_shift_closed():
    """Two fixed f without delta, and every monic f under three inner derivations
    (GF(4) Frobenius with beta = w and beta = 1 at m = 3, GF(9) Frobenius with
    beta = 1 at m = 2), whose shift reads delta."""
    targets = [F_CYCLIC3, SkewPoly([OMEGA, GF4.zero, GF4.zero, GF4.one], TW)]
    for tw, m in DELTA_SHIFTS:
        targets += [SkewPoly(list(tail) + [tw.ring.one], tw)
                    for tail in itertools.product(tw.ring.elements, repeat=m)]
    checked = 0
    for f in targets:
        A = PetitAlgebra(f)
        for C in code_class_codes(A):
            assert shift_closure_check(C), (f, C.g)
            checked += f.twist.has_delta
    assert checked == 546


def test_raw_span_not_shift_closed():
    """A span that is not an ideal fails the closure check.

    The code of g = t + w in S_f, f = t^3 + w t^2 over GF(4) Frobenius, is no
    ideal once delta(a) = w(sigma(a) - a) twists t (t*w = w^2 t + w): its rows
    fail under beta = w and pass without delta.
    """
    rows = [(GF4.one.val, GF4.zero.val, GF4.zero.val)]
    C = LinearCode(A3, None, rows)
    assert not shift_closure_check(C)
    rows = _left_ideal_span(TW, 3, (OMEGA.val, GF4.one.val))
    for tw, closed in ((TW, True), (DELTA_SHIFTS[0][0], False)):
        f = SkewPoly([GF4.zero, GF4.zero, OMEGA, GF4.one], tw)
        assert shift_closure_check(LinearCode(PetitAlgebra(f), None, rows)) is closed


def test_min_distance_of_full_algebra():
    C = build_code(A3, SkewPoly.one(TW))
    assert C.dimension == 3
    assert min_hamming_distance(C) == 1


def test_zero_code_has_no_distance():
    with pytest.raises(ValueError):
        min_hamming_distance(LinearCode(A3, None, []))


def _twist(ring, e=0):
    return TwistContext(ring, Automorphism(ring, e))


def test_codewords_cap_holds_on_every_call():
    """A smaller cap on a later call still raises: the binary [7,4] code has 16 words."""
    tw = _twist(make_field(2, 1))
    A = PetitAlgebra(SkewPoly.from_ints([1, 0, 0, 0, 0, 0, 0, 1], tw))  # t^7 - 1
    C = build_code(A, SkewPoly.from_ints([1, 1, 0, 1], tw))  # t^3 + t + 1
    assert len(C.codewords(cap=16)) == 16
    with pytest.raises(EnumerationCapExceeded):
        C.codewords(cap=15)


def test_raw_span_without_distinct_unit_pivots():
    """Rows sharing a pivot column, or ending in a non-unit, have no systematic form."""
    one, zero = GF4.one.val, GF4.zero.val
    C = LinearCode(A3, None, [(one, zero, one), (zero, one, one)])
    with pytest.raises(ValueError):
        min_hamming_distance(C)
    Z4 = make_residue_ring(4)
    A = PetitAlgebra(SkewPoly.from_ints([1, 0, 0, 1], _twist(Z4)))
    two = Z4.from_int(2)
    with pytest.raises(ValueError):
        min_hamming_distance(LinearCode(A, None, [(Z4.one.val, two.val, Z4.zero.val)]))


def brute_force_distance(C):
    """Minimum weight over every nonzero codeword."""
    weights = (sum(1 for c in word if not c.is_zero()) for word in C.codewords())
    return min(w for w in weights if w)


CATALOGUES = [
    ("GF(4) Frobenius m=3", _twist(GF4, 1), 3, False),
    ("GF(9) Frobenius m=3 constacyclic", _twist(make_field(3, 2), 1), 3, True),
    ("Z_4 m=3", _twist(make_residue_ring(4)), 3, False),
    ("Z_6 m=3", _twist(make_residue_ring(6)), 3, False),
    ("Z_9 m=2", _twist(make_residue_ring(9)), 2, False),
]


@pytest.mark.parametrize("label,tw,m,constacyclic", CATALOGUES, ids=[c[0] for c in CATALOGUES])
def test_min_distance_matches_codewords_on_catalogues(label, tw, m, constacyclic):
    """The information-set search equals the minimum weight over every codeword,
    for every code of every member of every class."""
    checked = 0
    for cls in partition_classes(tw, m, constacyclic, 2 ** 20):
        for f in cls["members"]:
            for C in code_class_codes(PetitAlgebra(f)):
                assert min_hamming_distance(C) == brute_force_distance(C), (f, C.g)
                checked += 1
    assert checked > 0


@pytest.mark.parametrize("label,tw,m,constacyclic", CATALOGUES, ids=[c[0] for c in CATALOGUES])
def test_catalogue_codes_match_each_representative(label, tw, m, constacyclic):
    """Each record's codes, whose parameters the catalogue computes once per
    generator, equal the codes of its own representative's algebra; and a
    generator that divides two representatives spans the same rows in both,
    when each row is stepped by t*row mod_r the representative's f."""
    rows_of = {}
    shared = 0
    classes = partition_classes(tw, m, constacyclic, 2 ** 20)
    for line, cls in zip(run_catalogue(tw, m, constacyclic), classes, strict=True):
        A = PetitAlgebra(cls["members"][0])
        codes = code_class_codes(A)
        assert json.loads(line)["codes"] == [
            {"g": _form(C.g), "length": C.length, "dim": C.dimension,
             "min_dist": min_hamming_distance(C)}
            for C in codes
        ]
        for C in codes:
            rows = [C.rows[0]]
            while len(rows) < C.dimension:
                rows.append(tuple(t_step(A, rows[-1])))
            assert rows == _left_ideal_span(tw, m, C.g.vals)
            if C.g.vals in rows_of:
                shared += 1
                assert rows_of[C.g.vals] == rows, (cls["members"][0], C.g)
            rows_of[C.g.vals] = rows
    assert shared >= len(classes) - 1  # g = 1 divides every representative


def _related(f, polys, chen_only=False):
    """(the g in polys with classify_pair(f, g, chen_only, k=1).witness, the other g), in
    order."""
    found = [classify_pair(f, g, chen_only=chen_only, k=1).witness is not None for g in polys]
    return ([g for g, x in zip(polys, found) if x], [g for g, x in zip(polys, found) if not x])


def _witness_partition(tw, m, constacyclic):
    """The classes from the witness search: the members of a class are the candidates g
    with classify_pair(f, g, k=1).witness for its first candidate f, and the Chen subclass
    of a member g is the members x with classify_pair(g, x, chen_only=True, k=1).witness."""
    ring = tw.ring
    zero, one = ring.zero, ring.one
    if constacyclic:
        candidates = [[-u] + [zero] * (m - 1) + [one] for u in ring.units]
    else:
        candidates = [list(tail) + [one] for tail in itertools.product(ring.elements, repeat=m)]
    pending = [SkewPoly(c, tw) for c in candidates]
    classes = []
    while pending:
        members, pending = _related(pending[0], pending)
        chen, left = [], members
        while left:
            sub, left = _related(left[0], left, chen_only=True)
            chen.append(sorted(x.vals for x in sub))
        classes.append((sorted(g.vals for g in members), sorted(chen)))
    return sorted(classes)


PARTITIONS = [
    ("GF(4) Frobenius m=3", _twist(GF4, 1), 3, False),
    ("GF(8) sigma m=3", _twist(make_field(2, 3), 1), 3, False),
    ("GF(8) sigma^2 m=3", _twist(make_field(2, 3), 2), 3, False),
    ("GF(9) Frobenius m=3", _twist(make_field(3, 2), 1), 3, False),
    ("GF(9) Frobenius m=3 constacyclic", _twist(make_field(3, 2), 1), 3, True),
    ("Z_4 m=3", _twist(make_residue_ring(4)), 3, False),
    ("Z_6 m=3", _twist(make_residue_ring(6)), 3, False),
    ("GF(16) Frobenius m=2", _twist(make_field(2, 4), 1), 2, False),
]


@pytest.mark.parametrize("label,tw,m,constacyclic", PARTITIONS, ids=[c[0] for c in PARTITIONS])
def test_partition_one_pass_matches_two_pass(label, tw, m, constacyclic):
    """The tau-images of one Chen class per class give the same members and Chen
    subclasses as the witness search over the candidates."""
    one_pass = [
        ([g.vals for g in cls["members"]], [[g.vals for g in sub] for sub in cls["chen"]])
        for cls in partition_classes(tw, m, constacyclic, 2 ** 20)
    ]
    assert one_pass == _witness_partition(tw, m, constacyclic)


ORBIT_TWISTS = [
    ("GF(4) Frobenius m=2", _twist(GF4, 1), 2),
    ("GF(4) Frobenius m=3", _twist(GF4, 1), 3),
    ("GF(4) Frobenius m=4", _twist(GF4, 1), 4),
    ("GF(8) sigma m=3", _twist(make_field(2, 3), 1), 3),
    ("GF(8) sigma^2 m=3", _twist(make_field(2, 3), 2), 3),
    ("GF(9) Frobenius m=3", _twist(make_field(3, 2), 1), 3),
    ("Z_4 m=4", _twist(make_residue_ring(4)), 4),
    ("Z_8 m=3", _twist(make_residue_ring(8)), 3),
    ("GF(2) m=6", _twist(make_field(2, 1)), 6),
]


@pytest.mark.parametrize("label,tw,m", ORBIT_TWISTS, ids=[c[0] for c in ORBIT_TWISTS])
def test_min_distance_constant_on_generator_orbits(label, tw, m):
    """For every monic g of degree 1..m-1, each member x of g's class (the orbit
    of an _Orbits of degree deg g) spans a code of length m with g's minimum
    distance, each distance computed from x's own rows: the catalogue computes
    one per class."""
    ring = tw.ring
    dist = {}

    def distance(x):
        if x not in dist:
            dist[x] = _min_distance(ring, _left_ideal_span(tw, m, x), 2 ** 20)
        return dist[x]

    moved = 0
    for d in range(1, m):
        orbits = _Orbits(tw, d)
        for tail in itertools.product(range(ring.size), repeat=d):
            g = tail + (ring.one.val,)
            members = orbits.orbit(g)[0]
            assert g in members
            for x in members:
                assert distance(x) == distance(g), (g, x)
            moved += len(members) - 1
    assert moved > 0 or len(ring.units) * len(orbits.taus) == 1  # GF(2): every class is {g}


def test_catalogue_cap_checked_before_any_norm_row(monkeypatch):
    """GF(256), m = 400: the 256^400 candidates exceed the cap, and run_catalogue
    raises before any norm row is built, so classify._scales never runs (it
    does run for a catalogue within the cap)."""
    import skewcodes.classify as classify

    calls = []
    scales = classify._scales

    def counted_scales(*args):
        calls.append(args)
        return scales(*args)

    monkeypatch.setattr(classify, "_scales", counted_scales)
    with pytest.raises(EnumerationCapExceeded):
        run_catalogue(_twist(make_field(2, 8)), 400)
    assert calls == []
    run_catalogue(_twist(make_field(2, 1)), 2)
    assert calls


@pytest.mark.parametrize("tw,m,constacyclic", [(_twist(GF4, 1), 7, True),
                                               (_twist(make_residue_ring(4)), 4, False)],
                         ids=["GF(4) m=7 constacyclic", "Z_4 m=4"])
def test_codes_for_builds_one_orbit_object_per_generator_degree(monkeypatch, tw, m,
                                                                constacyclic):
    """run_catalogue builds one _Orbits of degree m for the partition and one per
    generator degree its codes meet, and none for a degree they do not meet
    (GF(4), m = 7, constacyclic: no generator of degree 2 or 5)."""
    import skewcodes.catalogue as catalogue

    built = []

    class CountedOrbits(_Orbits):
        def __init__(self, twist, d):
            built.append(d)
            super().__init__(twist, d)

    monkeypatch.setattr(catalogue, "_Orbits", CountedOrbits)
    lines = run_catalogue(tw, m, constacyclic)
    met = {len(code["g"]["coeffs"]) - 1 for line in lines for code in json.loads(line)["codes"]}
    assert sorted(built) == sorted(met) + [m]
    assert constacyclic == (len(met) < m)


HYPOTHESIS_TWISTS = [
    _twist(make_field(2, 1)),
    _twist(make_field(3, 1)),
    _twist(GF4, 0),
    _twist(GF4, 1),
    _twist(make_field(2, 3), 1),
    _twist(make_field(3, 2), 1),
    _twist(make_residue_ring(4)),
    _twist(make_residue_ring(6)),
    _twist(make_residue_ring(8)),
]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_min_distance_matches_codewords_property(data):
    """f = h*g for random monic h, g with deg f = 2..6 (at most 4096 residues),
    so that f has a nontrivial right divisor; every monic right divisor of f."""
    tw = data.draw(st.sampled_from(HYPOTHESIS_TWISTS))
    ring = tw.ring
    m = data.draw(st.integers(2, max(d for d in range(2, 7) if ring.size ** d <= 4096)))
    d = data.draw(st.integers(1, m - 1))

    def monic(degree):
        tail = data.draw(st.lists(st.sampled_from(ring.elements), min_size=degree,
                                  max_size=degree))
        return SkewPoly(tail + [ring.one], tw)

    g = monic(d)
    f = skew_mul(monic(m - d), g)
    codes = code_class_codes(PetitAlgebra(f))
    assert g in [C.g for C in codes]
    for C in codes:
        assert min_hamming_distance(C) == brute_force_distance(C)


def test_min_distance_word_inside_the_information_set():
    """Rows 1110 and 1101 over GF(2) have weight 3, but their sum 0011 has weight 2 and
    is zero off the pivots: the weight-2 messages must be searched although best = 3."""
    K = make_field(2, 1)
    A = PetitAlgebra(SkewPoly.from_ints([1, 0, 0, 0, 1], _twist(K)))
    one, zero = K.one.val, K.zero.val
    C = LinearCode(A, None, [(one, one, one, zero), (one, one, zero, one)])
    assert min_hamming_distance(C) == 2 == brute_force_distance(C)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_min_distance_matches_codewords_on_pivoted_rows(data):
    """Random rows ending in units at distinct columns, in any order: a span of raw rows
    that need not be shift closed, against every codeword."""
    tw = data.draw(st.sampled_from(HYPOTHESIS_TWISTS))
    ring = tw.ring
    m = data.draw(st.integers(2, 7))
    k = data.draw(st.integers(1, max(j for j in range(1, m + 1) if ring.size ** j <= 4096)))
    pivots = data.draw(st.lists(st.integers(0, m - 1), min_size=k, max_size=k, unique=True))
    rows = []
    for col in pivots:
        head = data.draw(st.lists(st.sampled_from(ring.elements), min_size=col, max_size=col))
        unit = data.draw(st.sampled_from(ring.units))
        rows.append(tuple([c.val for c in head + [unit] + [ring.zero] * (m - col - 1)]))
    A = PetitAlgebra(SkewPoly([ring.one] + [ring.zero] * (m - 1) + [ring.one], tw))
    C = LinearCode(A, None, rows)
    assert min_hamming_distance(C) == brute_force_distance(C)


def test_transport_preserves_parameters():
    """Moving a code along an equivalence witness keeps (m, k, d)."""
    f = F_CYCLIC3
    h = SkewPoly([OMEGA, GF4.zero, GF4.zero, GF4.one], TW)  # t^3 - w
    w = classify_pair(f, h, k=1).witness
    assert w is not None
    for g in all_monic_right_divisors(f):
        if g.degree >= 3:
            continue
        C = build_code(PetitAlgebra(f), g)
        D = apply_isometry_to_code(C, w, PetitAlgebra(h))
        assert (C.length, C.dimension) == (D.length, D.dimension)
        assert min_hamming_distance(C) == min_hamming_distance(D)
        assert shift_closure_check(D)


def test_transport_rejects_bad_witness():
    f = F_CYCLIC3
    h = SkewPoly([OMEGA, GF4.zero, GF4.zero, GF4.one], TW)
    C = build_code(PetitAlgebra(f), SkewPoly.from_ints([1, 1], TW))
    B = PetitAlgebra(h)
    bogus = IsometryWitness(identity_aut(GF4), GF4.one, 1)
    with pytest.raises(WitnessInvalid, match="certify"):
        apply_isometry_to_code(C, bogus, B)
    with pytest.raises(WitnessInvalid, match="degree-1"):
        apply_isometry_to_code(C, IsometryWitness(identity_aut(GF4), GF4.one, 2), B)
    w = classify_pair(f, h, k=1).witness
    with pytest.raises(WitnessInvalid, match="no generator"):
        apply_isometry_to_code(LinearCode(C.algebra, None, C.rows), w, B)


def _image_oracle(g, w):
    """G(g) = sum tau(g_i) N_i(alpha) t^i for a k = 1 witness, on Elements; deg g < m, so
    G(g) needs no reduction."""
    sigma = g.twist.sigma
    return SkewPoly([w.tau(c) * partial_norm(sigma, w.alpha, i) for i, c in enumerate(g.coeffs)],
                    g.twist)


TRANSPORTS = [
    ("GF(4) Frobenius m=2", TW, 2),
    ("GF(4) Frobenius m=3", TW, 3),
    ("Z_4 m=3", _twist(make_residue_ring(4)), 3),
]


@pytest.mark.parametrize("label,tw,m", TRANSPORTS, ids=[c[0] for c in TRANSPORTS])
def test_transported_generator_is_the_scaled_image(label, tw, m):
    """apply_isometry_to_code(C, w, S_h).g is the monic scaling of the oracle's G(C.g), for
    every k = 1 witness (f, h, tau, alpha) over the monic f, h of degree m and every code
    of f."""
    ring = tw.ring
    polys = [SkewPoly(list(tail) + [ring.one], tw)
             for tail in itertools.product(ring.elements, repeat=m)]
    algebras = {f: PetitAlgebra(f) for f in polys}
    witnesses = 0
    for f in polys:
        codes = code_class_codes(algebras[f])
        for h, tau, alpha in itertools.product(polys, all_automorphisms(ring), ring.units):
            if check_equivalence(f, h, tau, alpha):
                w = IsometryWitness(tau, alpha)
                for C in codes:
                    assert apply_isometry_to_code(C, w, algebras[h]).g == \
                        monic_scale(_image_oracle(C.g, w)), (f, h, w, C.g)
                witnesses += 1
    # each (f, tau, alpha) certifies exactly one h
    assert witnesses == len(polys) * len(all_automorphisms(ring)) * len(ring.units)


def _form(g):
    """g's JSON form from its coefficients' Element.to_json forms."""
    beta = g.twist.delta_beta
    return {"coeffs": [c.to_json() for c in g.coeffs],
            "delta": None if beta is None else {"inner": beta.to_json()},
            "sigma_exp": g.twist.sigma.frob_exp}


CANONICAL = [
    ("GF(4) Frobenius m=2", _twist(GF4, 1), 2, False),
    ("Z_4 m=2", _twist(make_residue_ring(4)), 2, False),
    ("GF(4) Frobenius m=3", _twist(GF4, 1), 3, False),
    ("Z_4 m=3", _twist(make_residue_ring(4)), 3, False),
    ("Z_6 m=3", _twist(make_residue_ring(6)), 3, False),
    ("GF(8) sigma^2 m=3", _twist(make_field(2, 3), 2), 3, False),
    ("GF(9) Frobenius m=3 constacyclic", _twist(make_field(3, 2), 1), 3, True),
    ("GF(4) Frobenius delta_beta=0 m=3", TwistContext(GF4, FROB, GF4.zero), 3, False),
]


@pytest.mark.parametrize("label,tw,m,constacyclic", CANONICAL, ids=[c[0] for c in CANONICAL])
def test_catalogue_lines_are_canonical_element_json(label, tw, m, constacyclic):
    """Each line, assembled from per-polynomial text, is the sort_keys json.dumps of
    what it parses to, and every polynomial in it (representative, full class, Chen
    subclasses, code generators) parses to its coefficients' Element.to_json forms:
    digit lists over a field, ints over Z_n.  A delta_beta that is the zero element
    leaves has_delta False, so the catalogue runs, and it is written as {"inner": ...}."""
    lines = run_catalogue(tw, m, constacyclic)
    classes = partition_classes(tw, m, constacyclic, 2 ** 20)
    for line, cls in zip(lines, classes, strict=True):
        rec = json.loads(line)
        assert line == json.dumps(rec, sort_keys=True)
        rep = cls["members"][0]
        assert rec["representative"] == _form(rep)
        assert rec["full_class"] == [_form(g) for g in cls["members"]]
        assert rec["chen_classes"] == [[_form(g) for g in sub] for sub in cls["chen"]]
        assert [c["g"] for c in rec["codes"]] == [
            _form(C.g) for C in code_class_codes(PetitAlgebra(rep))
        ]
