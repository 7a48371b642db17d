"""Checks of the program's outputs against the reference computations.

Every checker takes an input spec (plain data made by ``inputs``) and the
program's output in its JSON form, and returns a list of error strings; an
empty list means the output is correct.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from reference import (
    RELATIONS,
    Ring,
    Twist,
    class_counts_formula,
    equivalence_holds,
    isometry_degrees,
    min_distance,
    monomial_map_is_multiplicative,
    nucleus_dims,
    orbit,
    right_divisors,
    strongest_relation,
    trailing,
    two_sided,
)


@lru_cache(maxsize=None)
def ring_of(spec) -> Ring:
    """The reference ring of a spec ("field", p, r, modulus) or ("residue", n)."""
    if spec[0] == "field":
        return Ring(p=spec[1], r=spec[2], modulus=spec[3])
    return Ring(n=spec[1])


@lru_cache(maxsize=None)
def twist_of(spec, sigma, beta=None) -> Twist:
    return Twist(ring_of(spec), sigma, beta)


def candidates(R: Ring, m: int, constacyclic: bool):
    """The catalogue's candidate set: all monic f of degree m, or t^m - a for units a."""
    if constacyclic:
        return {(R.neg[a],) + (0,) * (m - 1) + (1,) for a in R.units}
    return {tail + (1,) for tail in itertools.product(range(R.size), repeat=m)}


def check_catalogue(cfg, records):
    """A catalogue config's records: partition, orbits, counts, divisors and codes."""
    R, tw, m = ring_of(cfg["ring"]), twist_of(cfg["ring"], cfg["sigma"]), cfg["m"]
    errors = []

    def poly(obj):
        if obj["sigma_exp"] != cfg["sigma"] % R.r or obj["delta"] is not None:
            errors.append(f"{obj}: wrong twist")
        return tuple(R.from_json(c) for c in obj["coeffs"])

    cands = candidates(R, m, cfg["constacyclic"])
    covered = set()
    reps = []
    chen_total = chen_fixed = 0
    for rec in records:
        rep = poly(rec["representative"])
        members = [poly(x) for x in rec["full_class"]]
        member_set = set(members)
        tag = f"class of {list(rep)}"
        reps.append(rep)
        if len(member_set) != len(members) or rep not in member_set:
            errors.append(f"{tag}: duplicate members or representative not a member")
        if member_set & covered:
            errors.append(f"{tag}: overlaps an earlier class")
        covered |= member_set
        if member_set != orbit(tw, list(rep)) & cands:
            errors.append(f"{tag}: members differ from the (tau, alpha) orbit of the representative")
        chen = [[poly(x) for x in sub] for sub in rec["chen_classes"]]
        flat = [g for sub in chen for g in sub]
        if len(flat) != len(set(flat)) or set(flat) != member_set:
            errors.append(f"{tag}: Chen classes do not partition the class")
        heads = {sub[0] for sub in chen if sub}
        for sub in chen:
            if not sub or set(sub) != orbit(tw, list(sub[0]), chen_only=True) & member_set:
                errors.append(f"{tag}: a Chen class differs from a tau = id orbit")
            elif orbit(tw, list(sub[0]), chen_only=True) & heads != {sub[0]}:
                errors.append(f"{tag}: two Chen classes are related by tau = id")
        chen_total += len(chen)
        chen_fixed += sum(1 for sub in chen if sub and tw.sig[R.neg[sub[0][0]]] == R.neg[sub[0][0]])
        errors.extend(_check_codes(tw, m, rep, rec["codes"], poly, tag))
    rep_set = set(reps)
    for rep in reps:
        if orbit(tw, list(rep)) & rep_set != {rep}:
            errors.append(f"class of {list(rep)}: related to another representative")
    if covered != cands:
        errors.append(f"classes cover {len(covered)} of {len(cands)} candidates")
    if cfg["constacyclic"] and R.kind == "field":
        s = cfg["sigma"] % R.r or R.r
        nonassoc, assoc = class_counts_formula(R.p, R.r, s, m)
        if (chen_total - chen_fixed, chen_fixed) != (nonassoc, assoc):
            errors.append(
                f"Chen class counts {(chen_total - chen_fixed, chen_fixed)} != formula {(nonassoc, assoc)}"
            )
    return errors


def _check_codes(tw, m, rep, codes, poly, tag):
    errors = []
    gens = [poly(c["g"]) for c in codes]
    expected = {tuple(g) for g in right_divisors(tw, list(rep), m)}
    if len(set(gens)) != len(gens) or set(gens) != expected:
        errors.append(f"{tag}: generators are not the monic right divisors of degree < m")
    for g, code in zip(gens, codes):
        dim = m - (len(g) - 1)
        if code["length"] != m or code["dim"] != dim:
            errors.append(f"{tag}, g={list(g)}: length/dim {code['length']}/{code['dim']}")
            continue
        d = min_distance(tw, list(g), m)
        if code["min_dist"] != d or not 1 <= d <= m - dim + 1:
            errors.append(f"{tag}, g={list(g)}: min_dist {code['min_dist']}, reference {d}")
    return errors


def check_classification(pair, out):
    """A classify_pair verdict: witness re-verified, and no stronger relation holds."""
    R, tw = ring_of(pair["ring"]), twist_of(pair["ring"], pair["sigma"])
    f, h = pair["f"], pair["h"]
    tag = f"pair {f} ~ {h}"
    errors = []
    relation, _ = strongest_relation(tw, f, h)
    if out["relation"] != relation:
        errors.append(f"{tag}: verdict {out['relation']}, strongest relation {relation}")
    w = out["witness"]
    if out["relation"] == "NotRelated" or out["relation"] not in RELATIONS:
        if w is not None:
            errors.append(f"{tag}: {out['relation']} carries a witness")
        return errors
    if w is None:
        return errors + [f"{tag}: {out['relation']} without a witness"]
    tau, alpha, k = R.frobenius(w["tau_frob_exp"]), R.from_json(w["alpha"]), w["k"]
    chen = out["relation"].startswith("Chen")
    if chen and tau != list(range(R.size)):
        errors.append(f"{tag}: Chen witness with tau != id")
    if alpha not in R.units:
        errors.append(f"{tag}: witness alpha is not a unit")
    elif out["relation"].endswith("Equivalent"):
        if k != 1 or not equivalence_holds(tw, trailing(R, f), trailing(R, h), tau, alpha):
            errors.append(f"{tag}: witness {w} fails the coefficient condition")
    elif k not in isometry_degrees(len(f) - 1, tw.n) or not monomial_map_is_multiplicative(
        tw, f, h, tau, alpha, k
    ):
        errors.append(f"{tag}: witness {w} is not multiplicative")
    return errors


def check_structure(alg, out):
    """A probe_structure report against associator kernels and the associativity criterion."""
    R = ring_of(alg["ring"])
    tw = twist_of(alg["ring"], alg["sigma"], alg["beta"])
    f = alg["f"]
    m = len(f) - 1
    tag = f"algebra {f} (beta={alg['beta']})"
    assoc, *dims = nucleus_dims(tw, f)
    errors = []
    if out["associative"] != assoc or out["two_sided_f"] != assoc:
        errors.append(f"{tag}: associative/two-sided {out['associative']}/{out['two_sided_f']}, reference {assoc}")
    if two_sided(tw, f) != assoc:
        errors.append(f"{tag}: reference two-sidedness disagrees with associativity")
    if out["nucleus_dims"] != dims:
        errors.append(f"{tag}: nucleus dims {out['nucleus_dims']}, reference {dims}")
    if alg["beta"] is None and all(c == 0 for c in f[1:-1]):
        d = R.neg[f[0]]
        criterion = tw.sig[d] == d and m % tw.n == 0
        if criterion != assoc:
            errors.append(f"{tag}: associativity {assoc} but sigma(d) = d and n | m is {criterion}")
    return errors
