"""Built-in cross-check suites.

Each suite re-derives a batch of results two independent ways (brute force
vs. closed formula, certified witness vs. direct multiplicativity, ...) and
reports any mismatching parameter tuple.  The CLI `verify` subcommand and
the acceptance tests both run these.
"""

from __future__ import annotations

import itertools
import json

from .catalogue import partition_classes, run_catalogue
from .classify import (
    IsometryWitness,
    check_equivalence,
    classify_pair,
    count_constacyclic_classes,
    count_constacyclic_classes_formula,
    fast_reject,
    verify_witness_multiplicative,
)
from .codes import (
    apply_isometry_to_code,
    build_code,
    code_class_codes,
    min_hamming_distance,
    shift_closure_check,
)
from .coeffring import (
    Automorphism,
    all_automorphisms,
    identity_aut,
    make_field,
    make_residue_ring,
    partial_norm,
)
from .petit import PetitAlgebra, probe_structure
from .skewpoly import (
    DEFAULT_ENUM_CAP,
    SkewPoly,
    TwistContext,
    left_divide,
    monic_right_divisor_lists,
    psi,
    right_divide,
    skew_mul,
)


def _divisors(r: int):
    return [s for s in range(1, r + 1) if r % s == 0]


def _report(name: str, failures: list, checked: int) -> dict:
    return {
        "name": name,
        "passed": not failures,
        "checked": checked,
        "failures": failures[:20],
        "failure_count": len(failures),
    }


def _gf4_frobenius():
    K = make_field(2, 2)
    return K, TwistContext(K, Automorphism(K, 1))


def _constacyclic(tw: TwistContext, m: int, d) -> SkewPoly:
    ring = tw.ring
    return SkewPoly([-d] + [ring.zero] * (m - 1) + [ring.one], tw)


def is_associative(A: PetitAlgebra) -> bool:
    """Exhaustive associator check over additive generators, the reference for probe_structure.

    The associator [x, y, z] = (x*y)*z - x*(y*z) is additive in every slot,
    because the product of S_f is biadditive (with or without delta).  It is
    also left S-linear in the first slot: a*(g*h) = (a*g)*h in R, and if
    g = q*f + r then a*g = (a*q)*f + a*r, so right remainders are left
    S-linear.  Hence [x, y, z] = sum_i a_i [t^i, y, z] for x = sum a_i t^i,
    and y, z may range over the additive generators b*t^j of S_f.  Vanishing
    on the m * (rm)^2 triples (t^i, b t^j, c t^k), with b and c in
    additive_generators(S) (r = 1 over Z_n), is therefore equivalent to
    vanishing on all triples.  The products run on index lists.
    """
    mul = A.mul_indices
    gens = A._generator_indices()
    one = A.ring.one.val
    for i in range(A.m):
        x = [0] * i + [one]
        for y in gens:
            xy = mul(x, y)
            for z in gens:
                if mul(xy, z) != mul(x, mul(y, z)):
                    return False
    return True


def check_associativity_criterion() -> dict:
    """Brute-force associativity of t^m - d matches d in Fix(sigma) and n | m.

    The probe's associativity and two-sidedness, read off the eigenring
    kernel, must agree with it too (one check per algebra).
    """
    failures = []
    checked = 0
    for p, r in ((2, 2), (2, 3), (3, 2)):
        K = make_field(p, r)
        for s in _divisors(r):
            sigma = Automorphism(K, s % r)
            n = sigma.order
            tw = TwistContext(K, sigma)
            for m in (2, 3, 4):
                for d in K.units:
                    A = PetitAlgebra(_constacyclic(tw, m, d))
                    expected = sigma(d) == d and m % n == 0
                    got = is_associative(A)
                    report = probe_structure(A)
                    checked += 1
                    if not (got == expected == report.is_associative == report.f_two_sided):
                        failures.append(
                            {"p": p, "r": r, "s": s, "m": m, "d": d.to_json(),
                             "expected": expected, "got": got, "probe": report.to_json()}
                        )
    return _report("associativity-criterion", failures, checked)


def check_counting_formulas() -> dict:
    """Coset enumeration of constacyclic class counts equals the closed formulas."""
    failures = []
    checked = 0
    fields = [(p, r) for p in (2, 3, 5, 7, 11, 13) for r in (1, 2, 3, 4) if p ** r <= 16]
    for p, r in fields:
        K = make_field(p, r)
        for s in _divisors(r):
            sigma = Automorphism(K, s % r)
            for m in range(1, 7):
                enum = count_constacyclic_classes(K, sigma, m)
                form = count_constacyclic_classes_formula(p, r, s, m)
                checked += 1
                if enum != form:
                    failures.append(
                        {"p": p, "r": r, "s": s, "m": m, "enum": enum, "formula": form}
                    )
    # pinned small cases
    K = make_field(2, 2)
    frob = Automorphism(K, 1)
    for m, expected in ((2, (2, 1)), (3, (1, 0))):
        checked += 1
        got = count_constacyclic_classes(K, frob, m)
        if got != expected:
            failures.append({"p": 2, "r": 2, "s": 1, "m": m, "enum": got, "formula": expected})
    return _report("counting-formulas", failures, checked)


def _monic_polys(tw: TwistContext, degree: int):
    ring = tw.ring
    for tail in itertools.product(ring.elements, repeat=degree):
        yield SkewPoly(list(tail) + [ring.one], tw)


def check_witness_soundness() -> dict:
    """Every certified equivalence witness induces a multiplicative map.

    Degree 2 over GF(4): every monic pair, every witness.  Degree 3: every
    monic pair, its first witness.  Each witness is verified exhaustively,
    on algebras built once per polynomial.
    """
    K, tw = _gf4_frobenius()
    failures = []
    checked = 0
    quads = {f: PetitAlgebra(f) for f in _monic_polys(tw, 2)}
    for f, A in quads.items():
        for h, B in quads.items():
            for tau in all_automorphisms(K):
                for alpha in K.units:
                    if not check_equivalence(f, h, tau, alpha):
                        continue
                    checked += 1
                    w = IsometryWitness(tau, alpha, 1)
                    if not verify_witness_multiplicative(A, B, w):
                        failures.append(
                            {"f": [c.to_json() for c in f.coeffs],
                             "h": [c.to_json() for c in h.coeffs],
                             "witness": w.to_json()}
                        )
    cubics = {f: PetitAlgebra(f) for f in _monic_polys(tw, 3)}
    for f, A in cubics.items():
        for h, B in cubics.items():
            w = classify_pair(f, h, k=1).witness
            if w is None:
                continue
            checked += 1
            if not verify_witness_multiplicative(A, B, w):
                failures.append(
                    {"f": [c.to_json() for c in f.coeffs],
                     "h": [c.to_json() for c in h.coeffs],
                     "witness": w.to_json()}
                )
    return _report("witness-soundness", failures, checked)


def check_catalogue_structure() -> dict:
    """GF(4), m = 2 constacyclic: 3 Chen classes collapsing to 2 full classes."""
    K, tw = _gf4_frobenius()
    records = [json.loads(line) for line in run_catalogue(tw, 2, constacyclic=True)]
    failures = []
    chen_total = sum(len(rec["chen_classes"]) for rec in records)
    if len(records) != 2:
        failures.append({"full_classes": len(records), "expected": 2})
    if chen_total != 3:
        failures.append({"chen_classes": chen_total, "expected": 3})
    # the two Frobenius-conjugate constants must share a full class
    omega = K.from_json([0, 1])
    omega2 = omega * omega
    merged = None
    for rec in records:
        constants = {tuple(poly["coeffs"][0]) for poly in rec["full_class"]}
        if tuple((-omega).to_json()) in constants:
            merged = constants
    if merged != {tuple((-omega).to_json()), tuple((-omega2).to_json())}:
        failures.append({"merged_class": sorted(merged) if merged else None})
    return _report("catalogue-structure", failures, len(records))


def _constacyclic_classes_gf4_m2():
    """The members of each full class of constacyclic f over GF(4), Frobenius, m = 2."""
    _, tw = _gf4_frobenius()
    return [cls["members"] for cls in partition_classes(tw, 2, True, DEFAULT_ENUM_CAP)]


def _nonconstacyclic_classes(tw: TwistContext, m: int):
    """The members of each full class of non-constacyclic f.

    A class holds only constacyclic members or none, so its first member decides.
    """
    return [
        cls["members"] for cls in partition_classes(tw, m, False, DEFAULT_ENUM_CAP)
        if any(cls["members"][0].vals[1:m])
    ]


def _ordered_pairs(members):
    """members, with every ordered pair of distinct members."""
    return members, [(f, h) for f in members for h in members if f != h]


def check_parameter_preservation() -> dict:
    """Witness-transported codes keep (length, dimension, minimum distance).

    Pairs: every ordered pair of distinct members of the constacyclic GF(4)
    classes at m = 2 and one pair at m = 3, then of the non-constacyclic
    classes over GF(4) with the Frobenius at m = 3, GF(8) with sigma at m = 2
    and GF(9) with the Frobenius at m = 2.  Each member's algebra, codes and
    their minimum distances are computed once, from one
    monic_right_divisor_lists call per class.  A transported code D with
    generator g in S_h takes its minimum distance from h's code of g, the
    same span of the rows t^i*g.  Each pair's witness is checked once here,
    where a failure is reported, and each code goes through
    apply_isometry_to_code.
    """
    K, tw = _gf4_frobenius()
    omega = K.from_json([0, 1])
    f3 = _constacyclic(tw, 3, K.one)
    h3 = _constacyclic(tw, 3, omega)
    groups = [_ordered_pairs(members) for members in _constacyclic_classes_gf4_m2()]
    groups.append(([f3, h3], [(f3, h3)]))
    for p, r, m in ((2, 2, 3), (2, 3, 2), (3, 2, 2)):
        field = make_field(p, r)
        twist = TwistContext(field, Automorphism(field, 1))
        groups.extend(map(_ordered_pairs, _nonconstacyclic_classes(twist, m)))
    failures = []
    checked = 0
    for members, pairs in groups:
        if not pairs:
            continue
        codes = {}  # member -> {generator: (code, (length, dimension, minimum distance))}
        algebras = {}
        for f, divisors in zip(members, monic_right_divisor_lists(members)):
            A = algebras[f] = PetitAlgebra(f)
            built = [build_code(A, g) for g in divisors if g.degree < A.m]
            codes[f] = {C.g: (C, (C.length, C.dimension, min_hamming_distance(C))) for C in built}
        for f, h in pairs:
            w = classify_pair(f, h, k=1).witness
            if w is None or not check_equivalence(f, h, w.tau, w.alpha):
                failures.append({"pair": (repr(f), repr(h)),
                                 "error": "no witness" if w is None else "witness not certified"})
                continue
            images = set()
            for C, before in codes[f].values():
                D = apply_isometry_to_code(C, w, algebras[h])
                images.add(D.g)
                checked += 1
                known = codes[h].get(D.g)  # None only if D.g does not divide h
                after = (D.length, D.dimension,
                         min_hamming_distance(D) if known is None else known[1][2])
                if before != after:
                    failures.append(
                        {"pair": (repr(f), repr(h)), "g": repr(C.g),
                         "before": before, "after": after}
                    )
            if images != codes[h].keys():
                failures.append(
                    {"pair": (repr(f), repr(h)), "error": "divisor map is not a bijection"}
                )
    return _report("parameter-preservation", failures, checked)


def check_filter_soundness() -> dict:
    """fast_reject never fires when an exhaustive witness search succeeds."""
    _, tw = _gf4_frobenius()
    failures = []
    checked = 0
    for degree in (1, 2, 3):
        for f in _monic_polys(tw, degree):
            for h in _monic_polys(tw, degree):
                checked += 1
                reason = fast_reject(f, h)
                if reason is not None and classify_pair(f, h, k=1).witness is not None:
                    failures.append(
                        {"f": [c.to_json() for c in f.coeffs],
                         "h": [c.to_json() for c in h.coeffs],
                         "reason": reason}
                    )
    return _report("filter-soundness", failures, checked)


def _all_polys(tw: TwistContext, max_degree: int):
    ring = tw.ring
    for tail in itertools.product(ring.elements, repeat=max_degree + 1):
        yield SkewPoly(tail, tw)


def check_division_reconstruction() -> dict:
    """g == q*f + rem (right) and g == f*q + rem (left), exhaustively."""
    K2 = make_field(2, 1)
    tw2 = TwistContext(K2, identity_aut(K2))
    K4, tw4 = _gf4_frobenius()
    failures = []
    checked = 0
    for tw in (tw2, tw4):
        monics = [f for d in range(1, 5) for f in _monic_polys(tw, d)]
        for g in _all_polys(tw, 4):
            for f in monics:
                q, rem = right_divide(g, f)
                checked += 1
                if skew_mul(q, f) + rem != g or rem.degree >= f.degree:
                    failures.append({"g": repr(g), "f": repr(f), "side": "right"})
                q, rem = left_divide(g, f)
                checked += 1
                if skew_mul(f, q) + rem != g or rem.degree >= f.degree:
                    failures.append({"g": repr(g), "f": repr(f), "side": "left"})
    return _report("division-reconstruction", failures, checked)


def check_psi_antimultiplicative() -> dict:
    """psi(g*h) == psi(h)*psi(g) and psi is an involution."""
    _, tw4 = _gf4_frobenius()
    K8 = make_field(2, 3)
    tw8 = TwistContext(K8, Automorphism(K8, 1))
    failures = []
    checked = 0
    for tw, max_deg in ((tw4, 2), (tw8, 1)):
        polys = list(_all_polys(tw, max_deg))
        for g in polys:
            if psi(psi(g)) != g:
                failures.append({"g": repr(g), "error": "not an involution"})
            for h in polys:
                checked += 1
                if psi(skew_mul(g, h)) != skew_mul(psi(h), psi(g)):
                    failures.append({"g": repr(g), "h": repr(h)})
    return _report("psi-antimultiplicative", failures, checked)


def check_norm_cocycle() -> dict:
    """N_(i+j)(beta) == N_i(beta) * tau^i(N_j(beta)) over all small rings."""
    rings = [make_field(2, 2), make_field(2, 3), make_field(3, 2), make_residue_ring(6)]
    failures = []
    checked = 0
    for ctx in rings:
        for tau in all_automorphisms(ctx):
            for beta in ctx.units:
                for i in range(6):
                    for j in range(6):
                        checked += 1
                        lhs = partial_norm(tau, beta, i + j)
                        rhs = partial_norm(tau, beta, i) * tau.power(i)(
                            partial_norm(tau, beta, j)
                        )
                        if lhs != rhs:
                            failures.append(
                                {"ring": ctx.kind, "beta": beta.to_json(), "i": i, "j": j}
                            )
    return _report("norm-cocycle", failures, checked)


def check_shift_closure() -> dict:
    """Every code built from a right divisor is closed under the twisted shift."""
    K4, tw4 = _gf4_frobenius()
    omega = K4.from_json([0, 1])
    Z4 = make_residue_ring(4)
    twz = TwistContext(Z4, identity_aut(Z4))
    targets = [
        _constacyclic(tw4, 2, K4.one),
        _constacyclic(tw4, 2, omega),
        _constacyclic(tw4, 3, K4.one),
        _constacyclic(tw4, 3, omega),
        _constacyclic(twz, 2, Z4.one),
    ]
    failures = []
    checked = 0
    for f in targets:
        for C in code_class_codes(PetitAlgebra(f)):
            checked += 1
            if not shift_closure_check(C):
                failures.append({"f": repr(f), "g": repr(C.g)})
    return _report("shift-closure", failures, checked)


def check_structural_identities() -> dict:
    """Bundle of the division, psi, norm and shift-closure property suites."""
    parts = [
        check_division_reconstruction(),
        check_psi_antimultiplicative(),
        check_norm_cocycle(),
        check_shift_closure(),
    ]
    failures = [
        {"suite": part["name"], "failures": part["failures"]}
        for part in parts
        if not part["passed"]
    ]
    return _report(
        "structural-identities", failures, sum(part["checked"] for part in parts)
    )


def run_verify() -> list[dict]:
    """All suites, in acceptance order."""
    return [
        check_associativity_criterion(),
        check_counting_formulas(),
        check_witness_soundness(),
        check_catalogue_structure(),
        check_parameter_preservation(),
        check_filter_soundness(),
        check_structural_identities(),
    ]
