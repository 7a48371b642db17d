"""Quotient algebras R/Rf with multiplication g*h reduced by f on the right.

These are nonassociative in general.  This module is the algebra S_f alone (its codes are
in codes); the structural probe (associativity, nuclei, two-sidedness of f) is exact and
reads one additive kernel, the eigenring of f, on additive generators, no element of S_f.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple

from .coeffring import additive_generators
from .errors import NonMonic
from .skewpoly import SkewPoly, _product


class StructureReport(namedtuple(
    "StructureReport",
    "is_associative left_nucleus_dim middle_nucleus_dim right_nucleus_dim f_two_sided",
)):
    __slots__ = ()

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
    """S_f for a monic f of degree m >= 2: residues of degree < m under *.

    ``_red[n]`` holds the nonzero index terms (k, c) of t^n mod_r f.  Set-up
    holds n <= m and takes no product: for n < m that is t^n itself, and
    t^m mod_r f = -(f_0 + ... + f_(m-1) t^(m-1)), as t^m minus it is 1*f (f
    is monic, so no delta is involved).  ``_reductions(n)`` extends the
    table in place, one step per power, when a reader needs more:
    mul_indices to the highest power its inputs reach (at most 2(m-1)),
    _eigenring_rows to 2m - 1 and the witness map to k(m-1).
    ``_associative`` is read at its first use and kept.
    """

    def __init__(self, f: SkewPoly):
        if not f.is_monic:
            raise NonMonic("f must be monic")
        if f.degree < 2:
            raise ValueError("f must have degree m > 1")
        self.f = f
        self.twist = f.twist
        self.ring = f.twist.ring
        self.m = m = int(f.degree)
        # _tb[i][b] holds the index terms of t^i * b for i < m, shared with the twist
        self._tb = [self.twist.t_times(i) for i in range(m)]
        one, neg = self.ring.one.val, self.ring._neg
        self._red = [[(n, one)] for n in range(m)]
        self._red.append([(k, neg[c]) for k, c in enumerate(f.vals[:m]) if c])

    def _reductions(self, n: int):
        """The table _red, extended to hold t^j mod_r f for every j <= n.

        One product of S_f per power: t^j mod_r f = t o (t^(j-1) mod_r f).
        If g = q*f + r with deg r < m, then t*g = (t*q)*f + t*r, and (t*q)*f
        lies in the left ideal Rf, so t*g and t*r have the same remainder.
        mul_indices(t, r) reads the table only to t^m, which set-up holds,
        so its guard never extends the table from inside a step.
        """
        red, m = self._red, self.m
        t = (0, self.ring.one.val)
        while len(red) <= n:
            rem = [0] * m
            for k, c in red[-1]:
                rem[k] = c
            red.append([(k, c) for k, c in enumerate(self.mul_indices(t, rem)) if c])
        return red

    @functools.cached_property
    def _associative(self) -> bool:
        """Whether S_f is associative: _eigenring_rows are all zero (probe_structure, step 5)."""
        return not any(map(any, _eigenring_rows(self)))

    def basis(self):
        return [SkewPoly.t_power(i, self.twist) for i in range(self.m)]

    def additive_generators(self):
        """b * t^j for b in additive_generators(S) and j < m: they generate (S_f, +)."""
        return [SkewPoly.from_indices(v, self.twist) for v in self._generator_indices()]

    def _generator_indices(self):
        """additive_generators() as index lists, b-major and j-minor."""
        return [[0] * j + [b.val] for b in additive_generators(self.ring) for j in range(self.m)]

    def elements(self):
        """All residues, in canonical coefficient order."""
        for vals in itertools.product(range(self.ring.size), repeat=self.m):
            yield SkewPoly.from_indices(vals, self.twist)

    def mul(self, g: SkewPoly, h: SkewPoly) -> SkewPoly:
        """g*h mod_r f for g, h of degree < m, with or without delta (see mul_indices)."""
        return SkewPoly.from_indices(self.mul_indices(g.vals, h.vals), self.twist)

    def mul_indices(self, gv, hv):
        """The product on little-endian index lists of length <= m; the index list of g*h, length m.

        g*h = sum_(i,j) g_i * (t^i * h_j) * t^j, and t^i * h_j = sum_l c_l t^l,
        so g*h = sum g_i * c_l * t^(l+j).  Right remainders are left
        S-linear, so g*h mod_r f = sum g_i * c_l * (t^(l+j) mod_r f), with
        l + j <= 2(m-1).  The c_l come from TwistContext.t_times; for
        delta = 0, t^i * b = sigma^i(b) * t^i.  With gv = t = (0, one) this is
        the twisted shift t*r mod_r f, which _reductions and
        codes.shift_closure_check take.

        The table is extended first when it is too short for the inputs.
        t^i * b has no term above t^i (each t_times level adds one degree),
        so l <= i and the highest power read is
        (len(gv) - 1) + (len(hv) - 1): the table needs len(gv) + len(hv) - 1
        rows.  The step t*r reads to t^m, which set-up holds.
        """
        add, mul = self.ring._add, self.ring._mul
        red = self._red
        if len(red) < len(gv) + len(hv) - 1:
            red = self._reductions(len(gv) + len(hv) - 2)
        acc = [0] * self.m
        for i, gi in enumerate(gv):
            if not gi:
                continue
            row = mul[gi]
            tb = self._tb[i]
            for j, hj in enumerate(hv):
                for l, c in tb[hj]:
                    coef = mul[row[c]]
                    for k, rk in red[l + j]:
                        acc[k] = add[acc[k]][coef[rk]]
        return acc


def _image_order(rows, c: int) -> int:
    """Order of the subgroup of Z_c^K spanned by rows (lists of ints in [0, c)).

    One echelon pass over Z of the rows and the c*e_j, c*e_j being the first
    pivot of column j.  A row r leading at column j meets its pivot P in
    Euclid steps (P, r) -> (r, P - q*r), q = P_j // r_j, of determinant -1:
    the span is kept, entries may be reduced mod c, and the steps end in a
    pivot P' with entry g = gcd(P_j, r_j) and a residual, 0 at column j, that
    goes on to later columns.  As P = (P_j/g)*P' + u*residual, (c/d_j)*P_j
    stays in the span of the later pivots for every pivot P_j with entry d_j.
    So the span is the sums of x_j*P_j with 0 <= x_j < c/d_j (reduce from the
    left), which differ at their first differing x_j: its order is prod c/d_j.
    """
    pivots = {}
    for row in rows:
        while any(row):
            j = next(k for k, x in enumerate(row) if x)
            piv = pivots.get(j) or [c if k == j else 0 for k in range(len(row))]
            while row[j]:
                q = piv[j] // row[j]
                piv, row = row, [(x - q * y) % c for x, y in zip(piv, row)]
            pivots[j] = piv
    return math.prod(c // piv[j] for j, piv in pivots.items())


def _dim_from_count(A: PetitAlgebra, count: int) -> int:
    """The largest d with c^d <= count, c the characteristic of S (log_p over a field)."""
    d, c = 0, A.ring.characteristic
    while c ** (d + 1) <= count:
        d += 1
    return d


def _eigenring_rows(A: PetitAlgebra):
    """e(b*t^j) = (f*b*t^j) mod_r f as index lists of length m, in _generator_indices order.

    f*(b*t^j) = (f*b)*t^j in the associative ring R, and right remainders are
    left S-linear, so with f*b = sum_(l<=m) P_l t^l (_product, delta
    included), e(b*t^j) = sum_l P_l * (t^(l+j) mod_r f), l + j <= 2m - 1,
    read off S_f's table once it is extended to t^(2m-1).
    """
    m, add, mul, red = A.m, A.ring._add, A.ring._mul, A._reductions(2 * A.m - 1)
    rows = []
    for b in additive_generators(A.ring):
        fb = _product(A.twist, A.f.vals, (b.val,))
        terms = [(l, mul[p]) for l, p in enumerate(fb) if p]
        for j in range(m):
            acc = [0] * m
            for l, coef in terms:
                for k, rk in red[l + j]:
                    acc[k] = add[acc[k]][coef[rk]]
            rows.append(acc)
    return rows


def probe_structure(A: PetitAlgebra) -> StructureReport:
    """Associativity, nucleus dimensions and two-sidedness of f, from one additive kernel.

    Petit's theorem reads all three off the eigenring E(f) = {z : deg z < m,
    f*z in Rf}, the kernel of e(z) = (f*z) mod_r f on the additive generators
    z = b*t^j (_eigenring_rows: r products f*b, then r*m*(m+1) row
    combinations; of S_f's products only the m - 1 table steps to t^(2m-1),
    made once per algebra).  Write x*y = q_xy*f + x o y.
    1. [x, y, z] = -(q_xy*f*z) mod_r f = -(q_xy*e(z)) mod_r f, as
       x*(y o z) = x*y*z - x*q_yz*f and f*z = q'*f + e(z).
    2. So E(f) lies in the right nucleus, and x = t^(m-1), y = t give
       q_xy = 1 (f is monic) and [x, y, z] = -e(z): the right nucleus is E(f).
    3. A factor of degree 0 keeps a product below degree m, so q = 0 and S
       lies in the left and middle nuclei.
    4. For deg x = d >= 1, the pair (x, t^(m-d)) has q = x_d, and the pair
       (t^(m-d), x) has q = sigma^(m-d)(x_d) (delta only adds lower terms).
       Over a field both are units, so by step 1 such an x lies in the left
       or middle nucleus only if e = 0: otherwise both nuclei are S.
    5. e = 0 <=> S_f is associative (steps 1, 2) <=> Rf is two-sided, since
       {g : f*g in Rf} is a subring (f*g*h = u*f*h) and t, S lie in R_m.
       Over Z_n, sigma = id and delta = 0, so S_f is commutative: always e = 0.
    Steps 1-3 and 5 use only left S-linearity and leading terms, with or
    without delta; step 4 needs unit leading coefficients, which a
    nontrivial sigma over a ring with zero divisors would not give.  With c
    the characteristic of S, base-c digits of indices give (S_f, +) = Z_c^N,
    N = rm, and |E(f)| = c^N / |im e|, _image_order of the digit rows e(z).
    """
    ring, m, c = A.ring, A.m, A.ring.characteristic
    erows = _eigenring_rows(A)
    associative = not any(map(any, erows))
    if associative:
        orders = [ring.size ** m] * 3
    else:
        gens = [b.val for b in additive_generators(ring)]
        digits = [[v // g % c for g in gens] for v in range(ring.size)]
        rows = [[d for v in row for d in digits[v]] for row in erows]
        orders = [ring.size, ring.size, c ** len(rows) // _image_order(rows, c)]
    left, middle, right = (_dim_from_count(A, n) for n in orders)
    return StructureReport(associative, left, middle, right, associative)
