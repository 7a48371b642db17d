"""Skew polycyclic codes built from right divisors of f: the code of a generator and its parameters.

A code of length m is the left S-span of g, t*g, ..., t^(m-deg g-1)*g inside
S_f (_left_ideal_span).  These rows have degree at most m - 1, so none is
reduced by f: the code of a monic right divisor g, its dimension m - deg g and
its minimum distance depend only on the twist, m and g, not on which f of
degree m g divides, and the distance is shared over g's class (_orbit_distances).
"""

from __future__ import annotations

from .classify import _Orbits, _witness_map, check_equivalence
from .errors import (DegreeTooHigh, EnumerationCapExceeded, NonMonic, NotARightDivisor,
                     WitnessInvalid)
from .petit import PetitAlgebra
from .skewpoly import (DEFAULT_ENUM_CAP, SkewPoly, _product, all_monic_right_divisors,
                       monic_scale, right_divide)


class LinearCode:
    """A skew polycyclic code with its generator matrix.

    ``rows`` holds the generator rows as tuples of element indices, the form
    every algorithm reads; ``gen_matrix`` is the Element view.
    """

    def __init__(self, algebra: PetitAlgebra, g: SkewPoly | None, rows):
        self.algebra = algebra
        self.g = g
        self.length = algebra.m
        self.rows = tuple(rows)

    @property
    def dimension(self) -> int:
        return len(self.rows)

    @property
    def gen_matrix(self):
        """The rows as tuples of Elements."""
        elements = self.algebra.ring.elements
        return tuple(tuple([elements[v] for v in row]) for row in self.rows)

    def codewords(self, cap: int = DEFAULT_ENUM_CAP):
        """All codewords as coefficient tuples (deduplicated, enumeration capped)."""
        elements = self.algebra.ring.elements
        return frozenset(tuple([elements[v] for v in w]) for w in self._words(cap))

    def _words(self, cap: int):
        """codewords as index tuples, spanning one row at a time: {w + s*row} for every scalar s."""
        ring = self.algebra.ring
        if ring.size ** self.dimension > cap:
            raise EnumerationCapExceeded(
                f"{ring.size}^{self.dimension} codewords exceed cap {cap}"
            )
        add = ring._add
        words = {(0,) * self.length}
        for row in self.rows:
            multiples = [[ms[c] for c in row] for ms in ring._mul]
            words = {
                tuple([add[x][y] for x, y in zip(w, sr)]) for w in words for sr in multiples
            }
        return words


def _left_ideal_span(tw, m: int, gv):
    """Basis [g, t*g, ..., t^(m-deg g-1)*g] of the principal left ideal of g, as index tuples
    of length m, gv the indices of a monic right divisor g of an f of degree m.

    Each row is t times the one before (_product), with no reduction, so f
    is never read: the rows t^i*g, i < m - deg g, have degree deg g + i <= m - 1,
    and each row stepped has degree at most m - 2, so t*row has no t^m term.
    """
    t = (0, tw.ring.one.val)
    row = list(gv) + [0] * (m - len(gv))
    span = [tuple(row)]
    for _ in range(m - len(gv)):
        row = _product(tw, t, row)[:m]
        span.append(tuple(row))
    return span


def build_code(A: PetitAlgebra, g: SkewPoly) -> LinearCode:
    """The code of the principal left ideal of g, a monic right divisor of f of degree < m."""
    if g.is_zero or g.degree >= A.m:
        raise DegreeTooHigh("generator must be nonzero of degree < deg(f)")
    if not g.is_monic:
        raise NonMonic("generator must be monic")
    if not right_divide(A.f, g)[1].is_zero:
        raise NotARightDivisor("g does not divide f on the right")
    return LinearCode(A, g, _left_ideal_span(A.twist, A.m, g.vals))


def code_class_codes(A: PetitAlgebra):
    """One code per monic right divisor of f of degree 0..m-1.

    The divisors come from all_monic_right_divisors (the one-polynomial
    monic_right_divisor_lists), so their spans skip build_code's divisor
    check.
    """
    return [LinearCode(A, g, _left_ideal_span(A.twist, A.m, g.vals))
            for g in all_monic_right_divisors(A.f) if g.degree < A.m]


def shift_closure_check(C: LinearCode) -> bool:
    """Whether the twisted shift defined by f maps every codeword back into C.

    The shift of c is t*c mod_r f, the product t o c of S_f (mul_indices):
    sigma(c_(i-1)) + sigma(c_(m-1))*a_i + delta(c_i) at column i, with
    f = t^m - sum a_i t^i.  Its codewords are enumerated under DEFAULT_ENUM_CAP.
    """
    A = C.algebra
    t = (0, A.ring.one.val)
    words = C._words(DEFAULT_ENUM_CAP)
    return all(tuple(A.mul_indices(t, w)) in words for w in words)


def _systematic_rows(ring, rows):
    """rows' span in systematic form, as index lists, and its pivot columns.

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
    add, mul, neg, inv = ring._add, ring._mul, ring._neg, ring._inv
    pivoted = []
    for row in rows:
        piv = len(row) - 1
        while piv >= 0 and not row[piv]:
            piv -= 1
        if piv < 0 or inv[row[piv]] is None:
            raise ValueError("rows need unit pivots for a systematic form")
        scale = mul[inv[row[piv]]]
        pivoted.append((piv, [scale[c] for c in row]))
    pivoted.sort()
    pivots = [j for j, _ in pivoted]
    if len(set(pivots)) != len(pivots):
        raise ValueError("rows need distinct pivot columns for a systematic form")
    rows = [row for _, row in pivoted]
    for i, col in enumerate(pivots):
        for row in rows[i + 1:]:
            s = neg[row[col]]
            if s:
                ms = mul[s]
                row[:] = [add[x][ms[y]] for x, y in zip(row, rows[i])]
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
    return _min_distance(C.algebra.ring, C.rows, cap)


def _min_distance(ring, rows, cap: int):
    """min_hamming_distance of the code spanned by rows, index tuples of one length n, over ring."""
    if not rows:
        raise ValueError("the zero code has no minimum distance")
    n = len(rows[0])
    rows, pivots = _systematic_rows(ring, rows)
    add, mul = ring._add, ring._mul
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    k = len(rows)
    nonzero = range(1, ring.size)
    units = [u.val for u in ring.units]
    reps, seen = [], set()
    for x in nonzero:
        if x not in seen:
            reps.append(x)
            seen.update([mul[x][u] for u in units])
    # scaled[i][s]: s * row_i restricted to the non-pivot columns
    scaled = [[[ms[row[j]] for j in free] for ms in mul] for row in rows]
    zero = [0] * len(free)
    best = n + 1
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
                    weight = w + len(part) - part.count(0)
                    if weight < best:
                        best = weight
                if best <= w:
                    return

    for w in range(1, k + 1):
        if w >= best:
            break
        search(0, w, zero, w, reps)
    return best


def _orbit_distances(twist, m: int, cap: int):
    """A function from monic g of degree d < m (index tuples) to the minimum distance of
    g's code of length m, computed once per class of g: its orbit under the _Orbits of
    degree d, built when d is first met.  The members are the monic(H(g)) over the maps
    H(sum x_j t^j) = sum tau(x_j) N_j(alpha) t^j (_Orbits), and H carries the code of g
    onto that of monic(H(g)), keeping dimension and distance:
    - H is multiplicative on S[t; sigma] (check_equivalence proves it).
    - H applies tau and then scales each coordinate by the unit N_j(alpha),
      so it is a bijection on S^m that preserves Hamming weight.
    - H(t^i g) = N_i(alpha) t^i H(g), and H is tau-semilinear, so H maps the
      span of the rows t^i g (i < m - d) onto that of the rows t^i H(g),
      the span for monic(H(g)) = N_d(alpha)^-1 H(g).
    """
    orbits = {}  # generator degree -> its _Orbits
    dists = {}  # generator index tuple -> its code's minimum distance, filled a class at a time

    def distance(g):
        dist = dists.get(g)
        if dist is None:
            dist = _min_distance(twist.ring, _left_ideal_span(twist, m, g), cap)
            d = len(g) - 1
            orbits[d] = orbits.get(d) or _Orbits(twist, d)
            dists.update(dict.fromkeys(orbits[d].orbit(g)[0], dist))
        return dist

    return distance


def apply_isometry_to_code(C: LinearCode, witness, target: PetitAlgebra) -> LinearCode:
    """Transport C along a degree-1 witness into the class of target's f.

    The image is build_code(target, monic_scale(G(g))), G the witness map
    (classify._witness_map).  g has degree < m, so G(g) = sum_j tau(g_j) G(t^j)
    needs no reduction.  A witness of degree k != 1 or one that does not
    certify the equivalence of the classes, and a code with no generator,
    raise WitnessInvalid; build_code checks that the image divides target's f.
    """
    if witness.k != 1:
        raise WitnessInvalid("code transport requires a degree-1 witness")
    if not check_equivalence(C.algebra.f, target.f, witness.tau, witness.alpha):
        raise WitnessInvalid("witness does not certify equivalence of the classes")
    if C.g is None:
        raise WitnessInvalid("code has no generator polynomial")
    image = _witness_map(target, witness)(enumerate(C.g.vals))
    return build_code(target, monic_scale(SkewPoly.from_indices(image, target.twist)))
