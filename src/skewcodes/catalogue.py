"""Deduplicated catalogues of code classes for a fixed (ring, sigma, m)."""

from __future__ import annotations

import itertools
import json

from .classify import _Orbits
from .codes import _orbit_distances
from .errors import EnumerationCapExceeded, InvalidConfig
from .skewpoly import DEFAULT_ENUM_CAP, SkewPoly, TwistContext, _divisor_cap, _divisor_tuples

SCHEMA_VERSION = 1


def _poly_text(twist: TwistContext):
    """A polynomial's JSON text under twist, as a function of its index tuple; each built once.

    The text is the sort_keys json.dumps of {"coeffs": the coefficients' Element.to_json
    forms, "delta": None or {"inner": beta's form}, "sigma_exp": sigma's exponent},
    composed from json.dumps of each element's form as run_catalogue argues.
    """
    forms = [json.dumps(e.to_json()) for e in twist.ring.elements]
    beta = twist.delta_beta
    delta = "null" if beta is None else '{"inner": %s}' % forms[beta.val]
    tail = '], "delta": %s, "sigma_exp": %d}' % (delta, twist.sigma.frob_exp)
    texts = {}

    def text(vals):
        if vals not in texts:
            texts[vals] = '{"coeffs": [' + ", ".join([forms[v] for v in vals]) + tail
        return texts[vals]

    return text


def _candidate_cap(ring, m: int, constacyclic: bool, cap: int):
    """EnumerationCapExceeded if _candidates would exceed cap; |S|^m is read as in _divisor_cap."""
    if constacyclic:
        if len(ring.units) > cap:
            raise EnumerationCapExceeded("unit enumeration exceeds cap")
    elif ring.size ** min(m, cap.bit_length()) > cap:
        raise EnumerationCapExceeded(f"{ring.size}^{m} candidate polynomials exceed cap {cap}")


def _candidates(twist: TwistContext, m: int, constacyclic: bool):
    """Monic degree-m candidates as index tuples, sorted (_partition relies on it).

    The constacyclic t^m - a are sorted by -a's index: negation is not
    monotone on indices in odd characteristic, so the unit order is not.
    """
    ring = twist.ring
    one = ring.one.val
    if constacyclic:
        return sorted((ring._neg[a.val],) + (0,) * (m - 1) + (one,) for a in ring.units)
    return [tail + (one,) for tail in itertools.product(range(ring.size), repeat=m)]


def _partition(orbits: _Orbits, candidates):
    """Full-equivalence classes as (members, Chen subclasses) of index tuples, canonically ordered.

    Each class is the orbit of its first pending candidate under orbits, the
    _Orbits of degree m, the candidates as _candidates returns them.  Classes are
    orbits, so one found from its first pending candidate holds no member of
    an earlier class.  Candidates, members and Chen subclasses are index
    tuples, which sort in sort_key order.  The candidates come sorted
    (_candidates) and every member of a class is one, so the first pending
    candidate is the least member of its class (a lesser one would have come
    first, pending or in an earlier class): the classes come out ordered by
    least member.
    """
    pending = set(candidates)
    classes = []
    for f in candidates:
        if f not in pending:
            continue
        members, chen = orbits.orbit(f)
        pending.difference_update(members)
        classes.append((members, chen))
    return classes


def partition_classes(twist: TwistContext, m: int, constacyclic: bool, cap: int):
    """_partition's classes as {"members": [...], "chen": [[...], ...]} of SkewPolys."""
    if m < 1:
        raise InvalidConfig(f"class partitions need degree m >= 1, got {m}")
    _candidate_cap(twist.ring, m, constacyclic, cap)
    poly = SkewPoly.from_indices
    return [{"members": [poly(g, twist) for g in members],
             "chen": [[poly(g, twist) for g in sub] for sub in chen]}
            for members, chen in _partition(_Orbits(twist, m), _candidates(twist, m, constacyclic))]


def _codes_for(twist: TwistContext, m: int, cap: int, text):
    """A function from f's monic right divisors (index tuples) to the JSON text of the
    code of each one of degree < m, for one run_catalogue call.

    The code of g, of degree d, has m - d rows and never reads f, so its text,
    with the minimum distance of codes._orbit_distances, is built once per g.
    """
    distance = _orbit_distances(twist, m, cap)
    texts = {}  # generator index tuple -> its code's text

    def codes(divisors):
        out = []
        for g in divisors:
            if len(g) > m:
                continue
            if g not in texts:
                texts[g] = '{"dim": %d, "g": %s, "length": %d, "min_dist": %d}' % (
                    m + 1 - len(g), text(g), m, distance(g))
            out.append(texts[g])
        return out

    return codes


def run_catalogue(twist: TwistContext, m: int, constacyclic: bool = False,
                  cap: int = DEFAULT_ENUM_CAP):
    """One JSON line per full-equivalence class, in canonical order.

    A line has the bytes of json.dumps(record, sort_keys=True) for the record
    {"chen_classes", "codes", "full_class", "representative",
    "schema_version"}, but no record is built.  With sort_keys and the default
    separators json.dumps writes a dict as "{" + the ", "-joined '"key": value'
    in sorted key order + "}" and a list as "[" + its ", "-joined items + "]",
    each value and item written the same way.  Text composed in that shape
    from json.dumps of the leaves (the element forms of _poly_text) and ints
    written by %d, as json.dumps writes them, therefore has the same bytes.

    One _divisor_tuples call gives every representative's monic right divisors,
    one pass per degree 1..m // 2 for all of them.  The candidates' and those
    degrees' caps are checked, in that order, before anything of size m is built.
    """
    if m < 2:
        raise InvalidConfig("catalogue needs degree m > 1")
    _candidate_cap(twist.ring, m, constacyclic, cap)
    if not twist.has_delta:  # else _Orbits raises DeltaNotZero first
        _divisor_cap(twist.ring, range(1, m // 2 + 1), cap)
    classes = _partition(_Orbits(twist, m), _candidates(twist, m, constacyclic))
    text = _poly_text(twist)
    codes = _codes_for(twist, m, cap, text)
    lists = _divisor_tuples(twist, [members[0] for members, _ in classes], cap)
    return [
        '{"chen_classes": [%s], "codes": [%s], "full_class": [%s], "representative": %s, '
        '"schema_version": %d}' % (
            ", ".join(["[" + ", ".join(map(text, sub)) + "]" for sub in chen]),
            ", ".join(codes(divisors)),
            ", ".join(map(text, members)), text(members[0]), SCHEMA_VERSION)
        for (members, chen), divisors in zip(classes, lists)
    ]
