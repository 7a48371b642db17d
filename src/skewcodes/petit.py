"""Quotient algebras R/Rf with multiplication g*h reduced by f on the right.

These are nonassociative in general; structural probes (associator checks,
nuclei, two-sidedness of f) are exhaustive over small instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .coeffring import additive_generators
from .errors import (
    DegreeTooHigh,
    EnumerationCapExceeded,
    NonMonic,
    NotARightDivisor,
)
from .skewpoly import SkewPoly, right_divide, skew_mul

DEFAULT_PROBE_CAP = 4096


@dataclass(frozen=True)
class StructureReport:
    is_associative: bool
    left_nucleus_dim: int
    middle_nucleus_dim: int
    right_nucleus_dim: int
    f_two_sided: bool

    def to_json(self):
        return {
            "associative": self.is_associative,
            "two_sided_f": self.f_two_sided,
            "nucleus_dims": [
                self.left_nucleus_dim,
                self.middle_nucleus_dim,
                self.right_nucleus_dim,
            ],
        }


class PetitAlgebra:
    """S_f for a monic f of degree m >= 2: residues of degree < m under *."""

    def __init__(self, f: SkewPoly):
        if not f.is_monic:
            raise NonMonic("f must be monic")
        if f.degree < 2:
            raise ValueError("f must have degree m > 1")
        self.f = f
        self.twist = f.twist
        self.ring = f.twist.ring
        self.m = int(f.degree)
        # t^j mod_r f for 0 <= j <= 2(m-1), as its nonzero (k, coefficient) terms
        self._red = [
            _terms(right_divide(SkewPoly.t_power(j, self.twist), f)[1])
            for j in range(2 * self.m - 1)
        ]
        # _tb[i][b] holds the terms of t^i * b for i < m, shared with the twist
        self._tb = [self.twist.t_times(i) for i in range(self.m)]

    @property
    def size(self) -> int:
        return self.ring.size ** self.m

    def basis(self):
        return [SkewPoly.t_power(i, self.twist) for i in range(self.m)]

    def additive_generators(self):
        """b * t^j for b in additive_generators(S) and j < m: they generate (S_f, +)."""
        return [
            self.monomial(b, j)
            for b in additive_generators(self.ring)
            for j in range(self.m)
        ]

    def elements(self):
        """All residues, in canonical coefficient order."""
        ring = self.ring
        for digits in itertools.product(ring.elements, repeat=self.m):
            yield SkewPoly(digits, self.twist)

    def mul(self, g: SkewPoly, h: SkewPoly) -> SkewPoly:
        """g*h mod_r f for g, h of degree < m, with or without delta.

        g*h = sum_(i,j) g_i * (t^i * h_j) * t^j, and t^i * h_j = sum_l c_l t^l,
        so g*h = sum g_i * c_l * t^(l+j).  Right remainders are left
        S-linear, so g*h mod_r f = sum g_i * c_l * (t^(l+j) mod_r f), with
        l + j <= 2(m-1).  The c_l come from TwistContext.t_times; for
        delta = 0, t^i * b = sigma^i(b) * t^i.
        """
        acc = [self.ring.zero] * self.m
        for i, gi in enumerate(g.coeffs):
            if gi.is_zero():
                continue
            tb = self._tb[i]
            for j, hj in enumerate(h.coeffs):
                for l, c in tb[hj.val]:
                    c = gi * c
                    for k, rk in self._red[l + j]:
                        acc[k] = acc[k] + c * rk
        return SkewPoly(acc, self.twist)

    def monomial(self, a, i):
        return SkewPoly.monomial(a, i, self.twist)


def _terms(poly: SkewPoly):
    """The (degree, coefficient) pairs of the nonzero terms of poly."""
    return [(k, c) for k, c in enumerate(poly.coeffs) if not c.is_zero()]


def petit_mul(A: PetitAlgebra, g: SkewPoly, h: SkewPoly) -> SkewPoly:
    """The algebra product: remainder of g*h after right division by f."""
    g._check(h)
    if g.degree >= A.m or h.degree >= A.m:
        raise DegreeTooHigh("factors must have degree < deg(f)")
    return A.mul(g, h)


def f_is_two_sided(A: PetitAlgebra) -> bool:
    """Whether Rf is a two-sided ideal: f*t and f*a reduce to 0 mod_r f."""
    f = A.f
    t = SkewPoly.t_power(1, A.twist)
    if not right_divide(skew_mul(f, t), f)[1].is_zero:
        return False
    for a in A.ring.elements:
        prod = skew_mul(f, SkewPoly([a], A.twist))
        if not right_divide(prod, f)[1].is_zero:
            return False
    return True


def is_associative(A: PetitAlgebra) -> bool:
    """Exhaustive associator check over additive generators.

    The associator [x, y, z] = (x*y)*z - x*(y*z) is additive in every slot,
    because the product of S_f is biadditive (with or without delta).  It is
    also left S-linear in the first slot: a*(g*h) = (a*g)*h in R, and if
    g = q*f + r then a*g = (a*q)*f + a*r, so right remainders are left
    S-linear.  Hence [x, y, z] = sum_i a_i [t^i, y, z] for x = sum a_i t^i,
    and y, z may range over the additive generators b*t^j of S_f.  Vanishing
    on the m * (rm)^2 triples (t^i, b t^j, c t^k), with b and c in
    additive_generators(S) (r = 1 over Z_n), is therefore equivalent to
    vanishing on all triples.
    """
    gens = A.additive_generators()
    for x in A.basis():
        for y in gens:
            xy = A.mul(x, y)
            for z in gens:
                if A.mul(xy, z) != A.mul(x, A.mul(y, z)):
                    return False
    return True


def _nucleus_size(A: PetitAlgebra, slot: int) -> int:
    """Count elements whose associator vanishes in the given slot (0/1/2).

    x runs over all of S_f; the other two slots run over the additive
    generators b*t^j only.  The associator is additive in each slot (see
    is_associative), so for fixed x it vanishes on all pairs of the other two
    slots exactly when it vanishes on pairs of generators.
    """
    others = A.additive_generators()
    count = 0
    for x in A.elements():
        ok = True
        for y in others:
            for z in others:
                if slot == 0:
                    triple = (x, y, z)
                elif slot == 1:
                    triple = (y, x, z)
                else:
                    triple = (y, z, x)
                u, v, w = triple
                if A.mul(A.mul(u, v), w) != A.mul(u, A.mul(v, w)):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def _dim_from_count(A: PetitAlgebra, count: int) -> int:
    """log_p of the nucleus size (field case); module-rank lower bound over Z_n."""
    if A.ring.kind == "field":
        p = A.ring.p
        d = 0
        while p ** d < count:
            d += 1
        return d
    d = 0
    while A.ring.n_mod ** (d + 1) <= count:
        d += 1
    return d


def probe_structure(A: PetitAlgebra, cap: int = DEFAULT_PROBE_CAP) -> StructureReport:
    """Associativity, nucleus dimensions, and two-sidedness of f.

    The nucleus scans run over every element of S_f, so an algebra of more
    than cap elements is refused before any work.
    """
    if A.size > cap:
        raise EnumerationCapExceeded(
            f"structural probes over {A.size} elements exceed cap {cap}"
        )
    two_sided = f_is_two_sided(A)
    assoc = is_associative(A)
    dims = [_dim_from_count(A, _nucleus_size(A, s)) for s in range(3)]
    return StructureReport(
        is_associative=assoc,
        left_nucleus_dim=dims[0],
        middle_nucleus_dim=dims[1],
        right_nucleus_dim=dims[2],
        f_two_sided=two_sided,
    )


def left_ideal_span(A: PetitAlgebra, g: SkewPoly):
    """Basis [g, t*g, ..., t^(m-deg g-1)*g] of the principal left ideal of g."""
    if g.is_zero or g.degree >= A.m:
        raise DegreeTooHigh("generator must be nonzero of degree < deg(f)")
    if not g.is_monic:
        raise NonMonic("generator must be monic")
    _, rem = right_divide(A.f, g)
    if not rem.is_zero:
        raise NotARightDivisor("g does not divide f on the right")
    t = SkewPoly.t_power(1, A.twist)
    span = [g]
    for _ in range(A.m - int(g.degree) - 1):
        span.append(A.mul(t, span[-1]))
    return span
