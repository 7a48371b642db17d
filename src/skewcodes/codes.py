"""Skew polycyclic codes built from right divisors of f.

A code of length m is the left S-span of the coefficient vectors of
g, t*g, ..., t^(m-deg g-1)*g inside the quotient algebra of f.
"""

from __future__ import annotations

from .classify import check_equivalence, isometry_image
from .errors import EnumerationCapExceeded, WitnessInvalid
from .petit import PetitAlgebra, _left_ideal_span, left_ideal_span
from .skewpoly import DEFAULT_ENUM_CAP, SkewPoly, all_monic_right_divisors, monic_scale


class LinearCode:
    """A skew polycyclic code with its generator matrix."""

    def __init__(self, algebra: PetitAlgebra, g: SkewPoly | None, rows):
        self.algebra = algebra
        self.g = g
        self.length = algebra.m
        self.gen_matrix = tuple(tuple(row) for row in rows)
        self.dimension = len(self.gen_matrix)

    def codewords(self, cap: int = DEFAULT_ENUM_CAP):
        """All codewords as coefficient tuples (deduplicated, enumeration capped)."""
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
        return frozenset(words)


def build_code(A: PetitAlgebra, g: SkewPoly) -> LinearCode:
    """The code of the principal left ideal of g; rows per the shifted images of g."""
    return _code_of_span(A, g, left_ideal_span(A, g))


def _code_of_span(A: PetitAlgebra, g: SkewPoly, span) -> LinearCode:
    return LinearCode(A, g, [poly.coeff_vector(A.m) for poly in span])


def code_class_codes(A: PetitAlgebra, cap: int = DEFAULT_ENUM_CAP):
    """One code per monic right divisor of f of degree 0..m-1.

    The divisors come from all_monic_right_divisors, so their spans skip
    left_ideal_span's divisor check.
    """
    return [
        _code_of_span(A, g, _left_ideal_span(A, g))
        for g in all_monic_right_divisors(A.f, cap=cap)
        if g.degree < A.m
    ]


def shift_closure_check(C: LinearCode, cap: int = DEFAULT_ENUM_CAP) -> bool:
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


def _systematic_rows(C: LinearCode):
    """Rows spanning C in systematic form, as index lists, and their pivot columns.

    Each returned row ends in a 1 at its pivot column and is 0 at every other
    pivot column; rows are sorted by pivot.  The rows t^i*g of a built code
    end in a 1 at column deg(g) + i.  Rows whose last nonzero entries are
    units in distinct columns are scaled to 1 there; any other rows raise
    ValueError.  Since a row is zero right of its pivot, clearing the pivot
    columns in increasing order only ever adds to a row multiples of a row
    whose other pivot entries are already 0.  Scaling by a unit and adding a
    multiple of another row are invertible, so the span is unchanged, over a
    field and over Z_n alike.
    """
    ring = C.algebra.ring
    add, mul, neg = ring._add, ring._mul, ring._neg
    rows = []
    for row in C.gen_matrix:
        nonzero = [j for j, c in enumerate(row) if not c.is_zero()]
        if not nonzero or not row[nonzero[-1]].is_unit():
            raise ValueError("rows need unit pivots for a systematic form")
        inv = row[nonzero[-1]].inverse().val
        rows.append((nonzero[-1], [mul[inv][c.val] for c in row]))
    rows.sort(key=lambda pr: pr[0])
    pivots = [j for j, _ in rows]
    if len(set(pivots)) != len(pivots):
        raise ValueError("rows need distinct pivot columns for a systematic form")
    rows = [row for _, row in rows]
    for i, col in enumerate(pivots):
        for row in rows[i + 1:]:
            s = neg[row[col]]
            if s:
                row[:] = [add[x][mul[s][y]] for x, y in zip(row, rows[i])]
    return rows, pivots


def min_hamming_distance(C: LinearCode, cap: int = DEFAULT_ENUM_CAP) -> int:
    """Minimum weight over nonzero codewords, enumerating at most cap messages.

    The rows are first put in systematic form (_systematic_rows): row i has a
    1 at pivot column p_i and 0 at every other pivot column.  The codeword of
    a message u is then sum_i u_i * row_i, and its entry at p_i is u_i, so its
    weight is at least the number w of nonzero u_i.  Messages are enumerated
    by w = 1, 2, ... (only the non-pivot columns are summed), and the search
    stops as soon as w >= best: no message of weight w or more can beat best.

    The first nonzero symbol of a message runs over one representative per
    orbit of the nonzero elements under multiplication by units (one orbit
    over a field; the associate classes over Z_n).  This is exact: for a unit
    v, v*x = 0 only for x = 0, so wt(v*c) = wt(c); and any message u, with
    first nonzero symbol x = v*r for a representative r and a unit v, has
    v^-1*u in the search, with the same support and a codeword of the same
    weight.

    At most q^dim - 1 messages are ever enumerated, so cap is never exceeded
    where q^dim <= cap.  Going over it raises EnumerationCapExceeded.  Rows
    without distinct unit pivots (a span of raw rows can have them) and the
    zero code raise ValueError.
    """
    if not C.gen_matrix:
        raise ValueError("the zero code has no minimum distance")
    rows, pivots = _systematic_rows(C)
    ring = C.algebra.ring
    add, mul = ring._add, ring._mul
    pivot_set = set(pivots)
    free = [j for j in range(C.length) if j not in pivot_set]
    k = len(rows)
    nonzero = range(1, ring.size)
    reps, seen = [], set()
    for x in nonzero:
        if x not in seen:
            reps.append(x)
            seen.update(mul[u.val][x] for u in ring.units)
    # scaled[i][s]: s * row_i restricted to the non-pivot columns
    scaled = [[[mul[s][row[j]] for j in free] for s in range(ring.size)] for row in rows]
    zero = [0] * len(free)
    best = C.length + 1
    enumerated = 0

    def search(start, left, acc, w, symbols):
        # extend acc by `left` more nonzero symbols at positions >= start
        nonlocal best, enumerated
        for i in range(start, k - left + 1):
            for s in symbols:
                part = [add[a][b] for a, b in zip(acc, scaled[i][s])]
                if left > 1:
                    search(i + 1, left - 1, part, w, nonzero)
                else:
                    enumerated += 1
                    if enumerated > cap:
                        raise EnumerationCapExceeded(
                            f"minimum distance needs more than {cap} messages"
                        )
                    weight = w + sum(1 for a in part if a)
                    if weight < best:
                        best = weight
                if best <= w:
                    return

    for w in range(1, k + 1):
        if w >= best:
            break
        search(0, w, zero, w, reps)
    return best


def apply_isometry_to_code(C: LinearCode, witness, target_f: SkewPoly) -> LinearCode:
    """Transport C along an equivalence witness into the class of target_f."""
    if witness.k != 1:
        raise WitnessInvalid("code transport requires a degree-1 witness")
    if not check_equivalence(C.algebra.f, target_f, witness.tau, witness.alpha):
        raise WitnessInvalid("witness does not certify equivalence of the classes")
    if C.g is None:
        raise WitnessInvalid("code has no generator polynomial")
    image = isometry_image(C.g, witness.tau, witness.alpha, 1)
    return build_code(PetitAlgebra(target_f), monic_scale(image))
