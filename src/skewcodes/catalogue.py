"""Deduplicated catalogues of code classes for a fixed (ring, sigma, m)."""

from __future__ import annotations

import itertools

from .classify import _class_orbit
from .codes import code_class_codes, min_hamming_distance
from .errors import EnumerationCapExceeded, InvalidConfig
from .petit import PetitAlgebra
from .skewpoly import DEFAULT_ENUM_CAP, SkewPoly, TwistContext

SCHEMA_VERSION = 1


def poly_to_json(poly: SkewPoly) -> dict:
    tw = poly.twist
    return {
        "coeffs": [c.to_json() for c in poly.coeffs],
        "sigma_exp": tw.sigma.frob_exp,
        "delta": None if tw.delta_beta is None else {"inner": tw.delta_beta.to_json()},
    }


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


def _codes_for(f: SkewPoly, cap: int):
    return [
        {
            "g": poly_to_json(C.g),
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
    classes = partition_classes(twist, m, constacyclic, cap)
    records = []
    for cls in classes:
        rep = cls["members"][0]
        records.append(
            {
                "schema_version": SCHEMA_VERSION,
                "representative": poly_to_json(rep),
                "full_class": [poly_to_json(g) for g in cls["members"]],
                "chen_classes": [
                    [poly_to_json(g) for g in sub] for sub in cls["chen"]
                ],
                "codes": _codes_for(rep, cap),
            }
        )
    return records
