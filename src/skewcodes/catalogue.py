"""Deduplicated catalogues of code classes for a fixed (ring, sigma, m)."""

from __future__ import annotations

import itertools
import json

from .classify import _Orbits
from .codes import _min_distance
from .errors import EnumerationCapExceeded, InvalidConfig
from .petit import _left_ideal_span
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


def _candidates(twist: TwistContext, m: int, constacyclic: bool, cap: int):
    """Monic degree-m candidates as index tuples, sorted (_partition relies on it).

    The constacyclic t^m - a are sorted by -a's index: negation is not
    monotone on indices in odd characteristic, so the unit order is not.
    """
    ring = twist.ring
    one = ring.one.val
    if constacyclic:
        if len(ring.units) > cap:
            raise EnumerationCapExceeded("unit enumeration exceeds cap")
        return sorted((ring._neg[a.val],) + (0,) * (m - 1) + (one,) for a in ring.units)
    if ring.size ** m > cap:
        raise EnumerationCapExceeded(f"{ring.size}^{m} candidate polynomials exceed cap {cap}")
    return [tail + (one,) for tail in itertools.product(range(ring.size), repeat=m)]


def _partition(twist: TwistContext, m: int, candidates):
    """Full-equivalence classes as (members, Chen subclasses) of index tuples, canonically ordered.

    Each class is the orbit of its first pending candidate under one _Orbits
    of degree m, the candidates as _candidates returns them.  Classes are
    orbits, so one found from its first pending candidate holds no member of
    an earlier class.  Candidates, members and Chen subclasses are index
    tuples, which sort in sort_key order.  The candidates come sorted
    (_candidates) and every member of a class is one, so the first pending
    candidate is the least member of its class (a lesser one would have come
    first, pending or in an earlier class): the classes come out ordered by
    least member.
    """
    orbits = _Orbits(twist, m)
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
    poly = SkewPoly.from_indices
    return [{"members": [poly(g, twist) for g in members],
             "chen": [[poly(g, twist) for g in sub] for sub in chen]}
            for members, chen in _partition(twist, m, _candidates(twist, m, constacyclic, cap))]


def _codes_for(twist: TwistContext, m: int, cap: int, text):
    """A function from f's monic right divisors (index tuples) to the JSON text of the
    code of each one of degree < m, for one run_catalogue call.

    The code of g, of degree d, is the span of the rows t^i*g for i < m - d,
    none of which is reduced by f (_left_ideal_span), so f is never read: the
    rows, their number m - d and the minimum distance depend only on
    (twist, m, g).  The minimum distance is computed once per class of g, its
    orbit under the _Orbits of degree d built when d is first met, and read
    for every member.  The members are the monic(H(g)) over the maps
    H(sum x_j t^j) = sum tau(x_j) N_j(alpha) t^j (_Orbits), and H carries
    the code of g onto that of monic(H(g)), keeping dimension and distance:
    - H is multiplicative on S[t; sigma] (check_equivalence proves it).
    - H applies tau and then scales each coordinate by the unit N_j(alpha),
      so it is a bijection on S^m that preserves Hamming weight.
    - H(t^i g) = N_i(alpha) t^i H(g), and H is tau-semilinear, so H maps the
      span of the rows t^i g (i < m - d) onto that of the rows t^i H(g),
      the span for monic(H(g)) = N_d(alpha)^-1 H(g).
    """
    orbits = {}  # generator degree -> its _Orbits
    texts = {}  # generator index tuple -> its code's text
    dists = {}  # generator index tuple -> its code's minimum distance, filled a class at a time

    def codes(divisors):
        out = []
        for g in divisors:
            d = len(g) - 1
            if d >= m:
                continue
            known = texts.get(g)
            if known is None:
                dist = dists.get(g)
                if dist is None:
                    dist = _min_distance(twist.ring, _left_ideal_span(twist, m, g), cap)
                    if d not in orbits:
                        orbits[d] = _Orbits(twist, d)
                    dists.update(dict.fromkeys(orbits[d].orbit(g)[0], dist))
                known = texts[g] = '{"dim": %d, "g": %s, "length": %d, "min_dist": %d}' % (
                    m - d, text(g), m, dist)
            out.append(known)
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

    The monic right divisors of every class representative come from one
    _divisor_tuples call, as index tuples, so representatives that share a
    high part share each divisor scan.  It scans degrees 1..m // 2 (monic f,
    delta = 0), checked against the cap, least first, before any _Orbits.
    """
    if m < 2:
        raise InvalidConfig("catalogue needs degree m > 1")
    text = _poly_text(twist)
    codes = _codes_for(twist, m, cap, text)
    candidates = _candidates(twist, m, constacyclic, cap)
    if not twist.has_delta:  # else _Orbits raises DeltaNotZero first
        _divisor_cap(twist.ring, range(1, m // 2 + 1), cap)
    classes = _partition(twist, m, candidates)
    lists = _divisor_tuples(twist, [members[0] for members, _ in classes], cap)
    return [
        '{"chen_classes": [%s], "codes": [%s], "full_class": [%s], "representative": %s, '
        '"schema_version": %d}' % (
            ", ".join(["[" + ", ".join(map(text, sub)) + "]" for sub in chen]),
            ", ".join(codes(divisors)),
            ", ".join(map(text, members)), text(members[0]), SCHEMA_VERSION)
        for (members, chen), divisors in zip(classes, lists)
    ]
