"""Deduplicated catalogues of code classes for a fixed (ring, sigma, m)."""

from __future__ import annotations

import itertools

from .classify import _class_orbit
from .codes import LinearCode, min_hamming_distance
from .coeffring import all_automorphisms
from .errors import EnumerationCapExceeded, InvalidConfig
from .petit import PetitAlgebra, _left_ideal_span
from .skewpoly import DEFAULT_ENUM_CAP, SkewPoly, TwistContext, monic_right_divisor_lists

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

    One Chen orbit per class, computed for its first candidate f, gives both
    the members and the Chen subclasses.  The units alpha act on the
    candidates by a group action, f -> f_alpha with coefficient
    N_(m-i)(sigma^i(alpha)) * f_i at t^i: norms are multiplicative in the
    commutative S, so (f_alpha)_beta = f_(alpha*beta).  An automorphism tau
    commutes with sigma (both are powers of the Frobenius, or the identity
    over Z_n), so tau(f_alpha) = tau(f)_(tau(alpha)), and as alpha runs over
    the units so does tau(alpha).  Hence:

    * the Chen class of tau(f) is tau applied to the Chen class of f;
    * the full class of f, the tau(f_alpha) over tau and alpha, is the union
      of those tau-images;
    * every member x lies in some image tau(C), C the Chen class of f, which
      is a Chen class, so the Chen class of x is tau(C): the Chen subclasses
      are the distinct images, and two images either coincide or are
      disjoint (Chen classes are orbits).  Each is identified by its least
      member.

    The full classes are orbits too, so a class found from its first pending
    candidate holds no member of an earlier class.  Candidates, members and
    Chen subclasses are keyed by index tuples, which sort in sort_key order;
    they become SkewPolys on the way out.
    """
    candidates = _candidates(twist, m, constacyclic, cap)
    ring = twist.ring
    tables = [ring.frobenius_table(tau.frob_exp) for tau in all_automorphisms(ring)]
    pending = set(candidates)
    classes = []
    for f in candidates:
        if f not in pending:
            continue
        orbit = _class_orbit(twist, f, chen_only=True)
        subs = {}
        for tt in tables:
            sub = sorted(tuple([tt[c] for c in g]) for g in orbit)
            subs.setdefault(sub[0], sub)
        chen = [subs[least] for least in sorted(subs)]
        members = sorted(g for sub in chen for g in sub)
        pending.difference_update(members)
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


def _codes_for(f: SkewPoly, divisors, cap: int, encode, params):
    """One record per g of divisors, f's monic right divisors in order, of degree < m.

    params maps g's index tuple to the code's (dimension, minimum distance);
    it is read first and filled on a miss, and f's PetitAlgebra is built only
    for its first miss.  This is exact: the code of g is the span of the rows
    t^i*g for i < m - deg g, and each row has degree deg g + i <= m - 1, so
    no row is reduced by f.  In _left_ideal_span each row is the _t_step of
    the one before, of degree at most m - 2, so t*r has no t^m term and the
    step never reads f.  The rows, their number m - deg g and the minimum
    distance therefore depend only on (twist, m, g), which one run_catalogue
    call fixes.
    """
    m = int(f.degree)
    algebra = None
    records = []
    for g in divisors:
        if g.degree >= m:
            continue
        known = params.get(g.vals)
        if known is None:
            algebra = algebra or PetitAlgebra(f)
            code = LinearCode(algebra, g, _left_ideal_span(algebra, g))
            known = params[g.vals] = (code.dimension, min_hamming_distance(code, cap=cap))
        dim, min_dist = known
        records.append({"g": encode(g.vals), "length": m, "dim": dim, "min_dist": min_dist})
    return records


def run_catalogue(
    twist: TwistContext,
    m: int,
    constacyclic: bool = False,
    cap: int = DEFAULT_ENUM_CAP,
):
    """One record per full-equivalence class, in canonical order.

    The monic right divisors of every class representative come from one
    monic_right_divisor_lists call, so representatives that share a high
    part share each divisor scan.
    """
    if m < 2:
        raise InvalidConfig("catalogue needs degree m > 1")
    encode = _poly_encoder(twist)
    params = {}  # generator index tuple -> (dimension, minimum distance); see _codes_for
    classes = partition_classes(twist, m, constacyclic, cap)
    reps = [cls["members"][0] for cls in classes]
    records = []
    for cls, rep, divisors in zip(classes, reps, monic_right_divisor_lists(reps, cap)):
        records.append(
            {
                "schema_version": SCHEMA_VERSION,
                "representative": encode(rep.vals),
                "full_class": [encode(g.vals) for g in cls["members"]],
                "chen_classes": [[encode(g.vals) for g in sub] for sub in cls["chen"]],
                "codes": _codes_for(rep, divisors, cap, encode, params),
            }
        )
    return records
