"""Skew polycyclic codes built from right divisors of f.

A code of length m is the left S-span of the coefficient vectors of
g, t*g, ..., t^(m-deg g-1)*g inside the quotient algebra of f.
"""

from __future__ import annotations

from .errors import EnumerationCapExceeded, WitnessInvalid
from .petit import PetitAlgebra, left_ideal_span
from .skewpoly import (
    SkewPoly,
    all_monic_right_divisors,
    left_divide,
    monic_scale,
    right_divide,
    skew_mul,
)

DEFAULT_CODEWORD_CAP = 2 ** 20


class LinearCode:
    """A skew polycyclic code with its generator matrix."""

    def __init__(self, algebra: PetitAlgebra, g: SkewPoly | None, rows):
        self.algebra = algebra
        self.g = g
        self.length = algebra.m
        self.gen_matrix = tuple(tuple(row) for row in rows)
        self.dimension = len(self.gen_matrix)
        self._codewords = None

    @classmethod
    def from_rows(cls, algebra: PetitAlgebra, rows) -> "LinearCode":
        """A raw left-S-span of row vectors; not necessarily shift closed."""
        return cls(algebra, None, rows)

    def codewords(self, cap: int = DEFAULT_CODEWORD_CAP):
        """All codewords as coefficient tuples (deduplicated, enumeration capped)."""
        if self._codewords is not None:
            return self._codewords
        ring = self.algebra.ring
        if ring.size ** self.dimension > cap:
            raise EnumerationCapExceeded(
                f"{ring.size}^{self.dimension} codewords exceed cap {cap}"
            )
        # span one row at a time: words becomes {w + s*row} for every scalar s
        words = {(ring.zero,) * self.length}
        for row in self.gen_matrix:
            multiples = [tuple(s * c for c in row) for s in ring.elements]
            words = {
                tuple(x + y for x, y in zip(w, sr)) for w in words for sr in multiples
            }
        self._codewords = frozenset(words)
        return self._codewords


def build_code(A: PetitAlgebra, g: SkewPoly) -> LinearCode:
    """The code of the principal left ideal of g; rows per the shifted images of g."""
    span = left_ideal_span(A, g)
    rows = [poly.coeff_vector(A.m) for poly in span]
    return LinearCode(A, g, rows)


def code_class_codes(A: PetitAlgebra, cap: int = DEFAULT_CODEWORD_CAP):
    """One code per monic right divisor of f of degree 0..m-1."""
    out = []
    for g in all_monic_right_divisors(A.f, cap=cap):
        if g.degree < A.m:
            out.append(build_code(A, g))
    return out


def shift_closure_check(C: LinearCode, cap: int = DEFAULT_CODEWORD_CAP) -> bool:
    """Whether the twisted shift defined by f maps every codeword back into C."""
    A = C.algebra
    tw = A.twist
    sigma = tw.sigma
    m = A.m
    a = [-A.f.coeff(i) for i in range(m)]
    words = C.codewords(cap)
    for c in words:
        top = sigma(c[m - 1])
        shifted = [
            (sigma(c[i - 1]) if i > 0 else A.ring.zero) + top * a[i] + tw.delta(c[i])
            for i in range(m)
        ]
        if tuple(shifted) not in words:
            return False
    return True


def hamming_weight(word) -> int:
    return sum(1 for c in word if not c.is_zero())


def min_hamming_distance(C: LinearCode, cap: int = DEFAULT_CODEWORD_CAP) -> int:
    """Minimum weight over nonzero codewords (exhaustive)."""
    best = None
    for word in C.codewords(cap):
        w = hamming_weight(word)
        if w == 0:
            continue
        if best is None or w < best:
            best = w
    if best is None:
        raise ValueError("the zero code has no minimum distance")
    return best


def parity_check(C: LinearCode) -> SkewPoly | None:
    """The cofactor h with f = g*h = h'*g, when both factorizations exist.

    Codewords are then exactly the residues annihilating h on the right.
    """
    if C.g is None:
        return None
    f = C.algebra.f
    g = C.g
    h, rem_l = left_divide(f, g)
    if not rem_l.is_zero:
        return None
    _, rem_r = right_divide(f, g)
    if not rem_r.is_zero:
        return None
    return h


def annihilates(C: LinearCode, c: SkewPoly, h: SkewPoly) -> bool:
    """Whether c*h reduces to zero mod_r f."""
    return right_divide(skew_mul(c, h), C.algebra.f)[1].is_zero


def apply_isometry_to_code(C: LinearCode, witness, target_f: SkewPoly) -> LinearCode:
    """Transport C along an equivalence witness into the class of target_f."""
    from .classify import check_equivalence, isometry_image

    if witness.k != 1:
        raise WitnessInvalid("code transport requires a degree-1 witness")
    if not check_equivalence(C.algebra.f, target_f, witness.tau, witness.alpha):
        raise WitnessInvalid("witness does not certify equivalence of the classes")
    if C.g is None:
        raise WitnessInvalid("code has no generator polynomial")
    image = isometry_image(C.g, witness.tau, witness.alpha, 1)
    return build_code(PetitAlgebra(target_f), monic_scale(image))
