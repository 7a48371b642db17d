"""Deduplicated catalogues of code classes for a fixed (ring, sigma, m)."""

from __future__ import annotations

import itertools

from .classify import _class_orbit
from .codes import code_class_codes, min_hamming_distance
from .errors import EnumerationCapExceeded, InvalidConfig
from .petit import PetitAlgebra
from .skewpoly import DEFAULT_ENUM_CAP, SkewPoly, TwistContext

SCHEMA_VERSION = 1


def _poly_encoder(twist: TwistContext):
    """The JSON form of a polynomial under twist, as a function of its index tuple.

    Each element's JSON form is computed once.  A field element's is a digit
    list, so every coefficient gets its own copy: no two records share a list.
    """
    ring = twist.ring
    forms = [e.to_json() for e in ring.elements]
    fresh = list if ring.kind == "field" else int
    sigma_exp, beta = twist.sigma.frob_exp, twist.delta_beta

    def encode(vals):
        return {
            "coeffs": [fresh(forms[v]) for v in vals],
            "sigma_exp": sigma_exp,
            "delta": None if beta is None else {"inner": fresh(forms[beta.val])},
        }

    return encode


def poly_to_json(poly: SkewPoly) -> dict:
    return _poly_encoder(poly.twist)(poly.vals)


def _candidates(twist: TwistContext, m: int, constacyclic: bool, cap: int):
    """Monic degree-m candidates as index tuples, in canonical order."""
    ring = twist.ring
    one = ring.one.val
    if constacyclic:
        if len(ring.units) > cap:
            raise EnumerationCapExceeded("unit enumeration exceeds cap")
        return [(ring._neg[a.val],) + (0,) * (m - 1) + (one,) for a in ring.units]
    if ring.size ** m > cap:
        raise EnumerationCapExceeded(f"{ring.size}^{m} candidate polynomials exceed cap {cap}")
    return [tail + (one,) for tail in itertools.product(range(ring.size), repeat=m)]


def partition_classes(twist: TwistContext, m: int, constacyclic: bool, cap: int):
    """Full-equivalence classes (each with its Chen subclasses), canonically ordered.

    Candidates, members and Chen subclasses are keyed by index tuples, which
    sort in sort_key order; they become SkewPolys on the way out.
    """
    candidates = _candidates(twist, m, constacyclic, cap)
    pending = dict.fromkeys(candidates)  # insertion ordered
    classes = []
    for f in candidates:
        if f not in pending:
            continue
        members = sorted(g for g in _class_orbit(twist, f, chen_only=False) if g in pending)
        for g in members:
            del pending[g]
        member_set = set(members)
        chen = []
        seen = set()
        for g in members:
            if g in seen:
                continue
            sub = sorted(x for x in _class_orbit(twist, g, chen_only=True) if x in member_set)
            seen.update(sub)
            chen.append(sub)
        chen.sort(key=lambda sub: sub[0])
        classes.append((members, chen))
    classes.sort(key=lambda cls: cls[0][0])
    poly = SkewPoly.from_indices
    return [
        {
            "members": [poly(g, twist) for g in members],
            "chen": [[poly(g, twist) for g in sub] for sub in chen],
        }
        for members, chen in classes
    ]


def _codes_for(f: SkewPoly, cap: int, encode):
    return [
        {
            "g": encode(C.g.vals),
            "length": C.length,
            "dim": C.dimension,
            "min_dist": min_hamming_distance(C, cap=cap),
        }
        for C in code_class_codes(PetitAlgebra(f), cap=cap)
    ]


def run_catalogue(
    twist: TwistContext,
    m: int,
    constacyclic: bool = False,
    cap: int = DEFAULT_ENUM_CAP,
):
    """One record per full-equivalence class, in canonical order."""
    if m < 2:
        raise InvalidConfig("catalogue needs degree m > 1")
    encode = _poly_encoder(twist)
    records = []
    for cls in partition_classes(twist, m, constacyclic, cap):
        rep = cls["members"][0]
        records.append(
            {
                "schema_version": SCHEMA_VERSION,
                "representative": encode(rep.vals),
                "full_class": [encode(g.vals) for g in cls["members"]],
                "chen_classes": [[encode(g.vals) for g in sub] for sub in cls["chen"]],
                "codes": _codes_for(rep, cap, encode),
            }
        )
    return records
