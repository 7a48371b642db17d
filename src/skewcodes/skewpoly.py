"""Skew polynomial arithmetic over a twisted coefficient ring.

The commutation rule t*a = sigma(a)*t + delta(a) is applied in one place,
TwistContext.t_times, which tabulates t^i * b for every b as terms over
element indices.  The product, both Euclidean divisions (available whenever
the divisor has an invertible leading coefficient) and the divisor scan read
that table and run on little-endian sequences of indices into the ring's
tables, the form a SkewPoly stores; Elements appear only at its constructor
and in its coeffs view.
"""

from __future__ import annotations

import itertools

from .coeffring import Automorphism, Element, RingContext
from .errors import (
    ContextMismatch,
    DeltaNotZero,
    EnumerationCapExceeded,
    NonInvertibleLeadingCoefficient,
)

NEG_INF = float("-inf")

DEFAULT_ENUM_CAP = 2 ** 20


class TwistContext:
    """A coefficient ring together with (sigma, delta).

    delta is either zero or the inner derivation a -> beta*(sigma(a) - a).
    Every beta gives a sigma-derivation, delta(ab) = sigma(a)delta(b) +
    delta(a)b, so no beta needs checking: S is commutative and sigma is
    multiplicative, so sigma(a)*beta*(sigma(b) - b) + beta*(sigma(a) - a)*b =
    beta*(sigma(a)sigma(b) - sigma(a)b + sigma(a)b - ab) = beta*(sigma(ab) - ab).
    """

    __slots__ = ("ring", "sigma", "delta_beta", "has_delta", "_delta", "_t_table", "_opposite")

    def __init__(self, ring: RingContext, sigma: Automorphism, delta_beta: Element | None = None):
        if sigma.ctx is not ring:
            raise ContextMismatch("sigma acts on a different ring")
        if delta_beta is not None and delta_beta.ctx is not ring:
            raise ContextMismatch("delta parameter from a different ring")
        self.ring = ring
        self.sigma = sigma
        self.delta_beta = delta_beta
        # _delta[a] is the index of delta(a); a zero beta or sigma = id gives delta = 0
        if delta_beta is None:
            self._delta = [0] * ring.size
        else:
            sig, row = ring.frobenius_table(sigma.frob_exp), ring._mul[delta_beta.val]
            self._delta = [row[ring._add[sig[a]][ring._neg[a]]] for a in range(ring.size)]
        self.has_delta = any(self._delta)
        # _t_table[i][b] holds the nonzero index terms of t^i * b; level 0 is b itself
        self._t_table = [[[(0, b)] if b else [] for b in range(ring.size)]]
        self._opposite = None

    def t_times(self, i: int):
        """The nonzero index terms (l, c) of t^i * b = sum c * t^l, for every b, indexed by b.

        Level i comes from level i - 1 by t*a = sigma(a)*t + delta(a), read
        from sigma's Frobenius table and the table of delta, so for b != 0,
        t^i * b has degree i with top coefficient sigma^i(b).  Levels are
        built on demand and kept, so every polynomial and quotient algebra
        under this twist shares them.
        """
        table = self._t_table
        if len(table) <= i:
            add, dlt = self.ring._add, self._delta
            sig = self.ring.frobenius_table(self.sigma.frob_exp)
            while len(table) <= i:
                level = []
                for terms in table[-1]:
                    out = [0] * (len(table) + 1)
                    for l, c in terms:
                        out[l + 1] = add[out[l + 1]][sig[c]]
                        out[l] = add[out[l]][dlt[c]]
                    level.append([(l, c) for l, c in enumerate(out) if c])
                table.append(level)
        return table[i]

    def opposite(self) -> "TwistContext":
        """The twist under sigma^-1 and delta = 0 that psi maps into, built once.

        Its opposite is this twist again, so psi(psi(g)) lives where g does
        and both sides keep their t_times tables.
        """
        if self._opposite is None:
            self._opposite = TwistContext(self.ring, self.sigma.inverse())
            self._opposite._opposite = self
        return self._opposite

    def __eq__(self, other):
        return self is other or (
            isinstance(other, TwistContext)
            and self.ring is other.ring
            and self.sigma == other.sigma
            and self.delta_beta == other.delta_beta
        )

    def __hash__(self):
        return hash((id(self.ring), self.sigma, self.delta_beta))

    def __repr__(self):
        return f"TwistContext(sigma={self.sigma!r}, delta_beta={self.delta_beta!r})"


class SkewPoly:
    """An immutable skew polynomial: trimmed little-endian tuple of element indices plus twist.

    ``vals`` holds the coefficients as indices into the ring's tables, the
    form every algorithm reads; an index is also its element's sort key.
    ``coeffs`` is the Element view, for the public API and JSON.
    """

    __slots__ = ("vals", "twist")

    def __init__(self, coeffs, twist: TwistContext):
        vals = []
        for c in coeffs:
            if getattr(c, "ctx", None) is not twist.ring:
                raise ContextMismatch("coefficient from a different ring context")
            vals.append(c.val)
        while vals and not vals[-1]:
            vals.pop()
        self.vals = tuple(vals)
        self.twist = twist

    @classmethod
    def from_ints(cls, ints, twist: TwistContext) -> "SkewPoly":
        ring = twist.ring
        return cls([ring.from_int(k) for k in ints], twist)

    @classmethod
    def from_indices(cls, vals, twist: TwistContext) -> "SkewPoly":
        """The polynomial of a little-endian sequence of element indices."""
        n = len(vals)
        while n and not vals[n - 1]:
            n -= 1
        poly = cls.__new__(cls)
        poly.vals = tuple(vals[:n])
        poly.twist = twist
        return poly

    @classmethod
    def one(cls, twist: TwistContext) -> "SkewPoly":
        return cls([twist.ring.one], twist)

    @classmethod
    def t_power(cls, i: int, twist: TwistContext) -> "SkewPoly":
        ring = twist.ring
        return cls([ring.zero] * i + [ring.one], twist)

    @classmethod
    def monomial(cls, a: Element, i: int, twist: TwistContext) -> "SkewPoly":
        return cls([twist.ring.zero] * i + [a], twist)

    # -- structure -------------------------------------------------------

    @property
    def coeffs(self):
        """The coefficients as a tuple of Elements."""
        elements = self.twist.ring.elements
        return tuple([elements[v] for v in self.vals])

    @property
    def degree(self):
        return len(self.vals) - 1 if self.vals else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.vals

    @property
    def is_monic(self) -> bool:
        return bool(self.vals) and self.vals[-1] == self.twist.ring.one.val

    def coeff(self, i: int) -> Element:
        return self.twist.ring.elements[self.vals[i] if 0 <= i < len(self.vals) else 0]

    def sort_key(self):
        return (len(self.vals), self.vals)

    def __eq__(self, other):
        return (
            isinstance(other, SkewPoly)
            and self.twist == other.twist
            and self.vals == other.vals
        )

    def __hash__(self):
        return hash((self.twist, self.vals))

    def __repr__(self):
        return f"SkewPoly({[c.to_json() for c in self.coeffs]})"

    def _check(self, other: "SkewPoly"):
        if not isinstance(other, SkewPoly) or other.twist != self.twist:
            raise ContextMismatch("polynomials live under different twists")

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        self._check(other)
        add = self.twist.ring._add
        a, b = self.vals, other.vals
        if len(a) < len(b):
            a, b = b, a
        vals = [add[x][y] for x, y in zip(a, b)]
        return SkewPoly.from_indices(vals + list(a[len(b):]), self.twist)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        neg = self.twist.ring._neg
        return SkewPoly.from_indices([neg[c] for c in self.vals], self.twist)

    def scale_left(self, a: Element) -> "SkewPoly":
        """a * g with the scalar on the left (no twisting needed)."""
        ring = self.twist.ring
        if getattr(a, "ctx", None) is not ring:
            raise ContextMismatch("scalar from a different ring context")
        row = ring._mul[a.val]
        return SkewPoly.from_indices([row[c] for c in self.vals], self.twist)

    def __mul__(self, other):
        return skew_mul(self, other)


def skew_mul(g: SkewPoly, h: SkewPoly) -> SkewPoly:
    """The product g*h in S[t; sigma, delta]: _product's view."""
    g._check(h)
    return SkewPoly.from_indices(_product(g.twist, g.vals, h.vals), g.twist)


def _product(tw: TwistContext, gv, hv):
    """g*h = sum_(i,j) g_i * (t^i * h_j) * t^j on index lists, untrimmed, of length
    len(gv) + len(hv) - 1 (empty if either is)."""
    if not gv or not hv:
        return []
    add, mul = tw.ring._add, tw.ring._mul
    acc = [0] * (len(gv) + len(hv) - 1)
    for i, gi in enumerate(gv):
        if not gi:
            continue
        row = mul[gi]
        tb = tw.t_times(i)
        for j, hj in enumerate(hv):
            for l, c in tb[hj]:
                acc[l + j] = add[acc[l + j]][row[c]]
    return acc


def _divisor_degree(g: SkewPoly, f: SkewPoly) -> int:
    g._check(f)
    if f.is_zero or f.twist.ring._inv[f.vals[-1]] is None:
        raise NonInvertibleLeadingCoefficient("divisor needs an invertible leading coefficient")
    return len(f.vals) - 1


def right_divide(g: SkewPoly, f: SkewPoly):
    """q, rem with g = q*f + rem and deg(rem) < deg(f), on index lists.

    f must have a unit leading coefficient.  Each step cancels the leading
    term of rem with (c t^d)*f, which is sum_j c * (t^d * f_j) * t^j and has
    leading coefficient c * sigma^d(lc(f)); c is the quotient's coefficient
    of t^d.
    """
    df = _divisor_degree(g, f)
    tw = g.twist
    ring = tw.ring
    add, mul, neg = ring._add, ring._mul, ring._neg
    fv = f.vals
    lead_inv = ring._inv[fv[-1]]
    rem = list(g.vals)
    q = [0] * max(len(rem) - df, 0)
    for top in range(len(rem) - 1, df - 1, -1):
        if not rem[top]:
            continue
        d = top - df
        tb = tw.t_times(d)
        # sigma^d(lc(f)^-1) is the top coefficient of t^d * lc(f)^-1
        c = q[d] = mul[rem[top]][tb[lead_inv][-1][1]]
        row = mul[neg[c]]
        for j, fj in enumerate(fv):
            for l, e in tb[fj]:
                rem[l + j] = add[rem[l + j]][row[e]]
    return SkewPoly.from_indices(q, tw), SkewPoly.from_indices(rem[:df], tw)


def left_divide(g: SkewPoly, f: SkewPoly):
    """q, rem with g = f*q + rem and deg(rem) < deg(f), as SkewPolys: the view of _left_divide."""
    _divisor_degree(g, f)
    q, rem = _left_divide(g.twist, g.vals, f.vals)
    return SkewPoly.from_indices(q, g.twist), SkewPoly.from_indices(rem, g.twist)


def _left_divide(tw: TwistContext, gv, fv):
    """left_divide on index lists, for an fv whose top coefficient is a unit.

    Each step cancels the leading term of rem with f*(c t^d), which is
    sum_j f_j * (t^j * c) * t^d and has leading coefficient lc(f) * sigma^deg(f)(c).
    """
    df = len(fv) - 1
    ring = tw.ring
    add, mul, neg = ring._add, ring._mul, ring._neg
    unshift = ring.frobenius_table(-df * tw.sigma.frob_exp)  # sigma^(-deg f)
    lead_inv = mul[ring._inv[fv[-1]]]
    f_terms = [(mul[neg[fj]], tw.t_times(j)) for j, fj in enumerate(fv) if fj]
    rem = list(gv)
    q = [0] * max(len(rem) - df, 0)
    for top in range(len(rem) - 1, df - 1, -1):
        if not rem[top]:
            continue
        d = top - df
        c = q[d] = unshift[lead_inv[rem[top]]]
        for row, tb in f_terms:
            for l, e in tb[c]:
                rem[l + d] = add[rem[l + d]][row[e]]
    return q, rem[:df]


def _divisor_cap(ring, degrees, cap: int):
    """Raise EnumerationCapExceeded for the least degree whose |S|^degree candidates exceed cap."""
    for d in sorted(degrees):
        if ring.size ** d > cap:
            raise EnumerationCapExceeded(f"{ring.size}^{d} candidate divisors exceed cap {cap}")


def monic_right_divisor_table(tw: TwistContext, degree: int, high, lows,
                              cap: int = DEFAULT_ENUM_CAP):
    """The monic right divisors of the given degree of every f = low + high with low in lows.

    high is the index tuple of f_d..f_n and each low one of f_0..f_(d-1),
    d = degree.  The result maps each low with a divisor to {tail: quotient}
    over its divisors g = tail + t^d, sorted, with f = quotient*g.  Exact:
    split f = L + H, L the terms below t^d.  Right remainders by a monic g of
    degree d are left S-linear and deg L < d, so f mod_r g = L + (H mod_r g),
    and g |_r f exactly when L = -(H mod_r g).  So one pass over the |S|^d
    candidates, keyed by -(H mod_r g), serves every f with high part H; only
    the divisors of the lows asked for are kept.

    Candidates run in itertools.product order, which is sort_key order.
    H mod_r g takes the steps of right_divide for a monic g: the step at
    t^top subtracts (c t^e)*g, c = rem[top], e = top - d, whose term
    c * (t^e * 1) * t^d = c t^top (sigma(1) = 1, delta(1) = 0) cancels
    rem[top] with no inverse, so only the tail terms g_j, j < d, are applied.
    They write rem[l + j], l <= e and j < d, below top, so rem[top] = c is
    final when read: rem[d:] ends as the quotient q of H by g, and f = q*g
    when g divides f, as then L + (H mod_r g) = 0.
    """
    ring = tw.ring
    _divisor_cap(ring, [degree], cap)
    add, mul, neg = ring._add, ring._mul, ring._neg
    wanted = {tuple([neg[c] for c in low]): low for low in lows}  # -(H mod_r g) -> low
    high = (0,) * degree + tuple(high)
    steps = [(e + degree, tw.t_times(e)) for e in range(len(high) - degree - 1, -1, -1)]
    table = {}
    for tail in itertools.product(range(ring.size), repeat=degree):
        rem = list(high)
        for top, tb in steps:
            if not rem[top]:
                continue
            row = mul[neg[rem[top]]]
            for j, gj in enumerate(tail):
                for l, e in tb[gj]:
                    rem[l + j] = add[rem[l + j]][row[e]]
        low = wanted.get(tuple(rem[:degree]))
        if low is not None:
            table.setdefault(low, {})[tail] = tuple(rem[degree:])
    return table


def enumerate_monic_right_divisors(f: SkewPoly, degree: int, cap: int = DEFAULT_ENUM_CAP):
    """All monic right divisors of f of the given degree, sorted: f's entry in its table."""
    low = f.vals[:degree] + (0,) * (degree - len(f.vals))  # every candidate divides 0
    tails = monic_right_divisor_table(f.twist, degree, f.vals[degree:], [low], cap).get(low, ())
    return [SkewPoly.from_indices(tail + (f.twist.ring.one.val,), f.twist) for tail in tails]


def _divisor_tuples(tw: TwistContext, fs, cap: int):
    """monic_right_divisor_lists on index tuples: fs are trimmed index tuples under tw.

    Every (sigma's exponent, degree, high part) asked for is scanned once,
    keeping the low parts its polynomials need (monic_right_divisor_table).
    For a monic f under delta = 0 the degrees above m // 2 are the psi^-1(Q)
    over the quotients Q that the table of psi(f) keeps, under sigma^-1
    (all_monic_right_divisors): sigma's exponent in a table's key tells the
    two twists apart (psi needs delta = 0, so they differ in sigma only),
    and when sigma^-1 = sigma they share tables too.  Within a degree, index
    tuple order is sort_key order.
    """
    ring = tw.ring
    one = (ring.one.val,)
    to_psi, from_psi = _psi(tw.sigma), _psi(tw.sigma.inverse())
    plans, need = [], {}
    for f in fs:
        m = len(f) - 1
        halved = f[-1:] == one and not tw.has_delta
        top = m // 2 if halved else m - 1
        plan = [(tw, d, f, False) for d in range(1, top + 1)]
        if halved:
            f_psi = to_psi(f)
            plan += [(tw.opposite(), m - d, f_psi, True) for d in range(top + 1, m)]
        if f[-1:] != one:
            plan.append((tw, m, f, False))
        for twist, d, g, _ in plan:
            key = (twist.sigma.frob_exp, d, g[d:])
            if key not in need:
                need[key] = (twist, set())
            need[key][1].add(g[:d])
        plans.append((f, top, plan))
    _divisor_cap(ring, {d for _, d, _ in need}, cap)  # every cap before any scan
    tables = {key: monic_right_divisor_table(twist, key[1], key[2], lows, cap)
              for key, (twist, lows) in need.items()}
    lists = []
    for f, top, plan in plans:
        out = [one] if top >= 0 and f != one else []  # f = 1 is appended below
        for twist, d, g, via_psi in plan:
            divisors = tables[twist.sigma.frob_exp, d, g[d:]].get(g[:d], {})
            if via_psi:
                out.extend(sorted([from_psi(q) for q in divisors.values()]))
            else:
                out.extend([tail + one for tail in divisors])
        if f[-1:] == one:
            out.append(f)
        lists.append(out)
    return lists


def monic_right_divisor_lists(fs, cap: int = DEFAULT_ENUM_CAP):
    """all_monic_right_divisors of each of fs, polynomials under one twist: _divisor_tuples' view.

    Polynomials that share a high part share each scan, and with none
    shared the candidates are those of one scan per polynomial and degree.
    """
    lists = _divisor_tuples(fs[0].twist, [f.vals for f in fs], cap) if fs else []
    return [[SkewPoly.from_indices(v, f.twist) for v in vals] for f, vals in zip(fs, lists)]


def all_monic_right_divisors(f: SkewPoly, cap: int = DEFAULT_ENUM_CAP):
    """Monic right divisors of every degree 0..deg(f), sorted by (degree, coeffs).

    The one-polynomial monic_right_divisor_lists, whose degree ranges are
    argued here.  A monic f has one monic right divisor of degree deg(f), f
    itself: if f = c*g with g monic of degree deg(f), then c has degree 0 and
    equals the leading coefficient of f, so c = 1 and g = f.  Only lower
    degrees are enumerated for it.

    For a monic f of degree m and delta = 0 (S is commutative) only degrees
    d <= m // 2 are scanned.  A higher degree d comes from the other half:

    * g -> q with f = q*g is a bijection from the monic right divisors of
      degree d onto the monic left divisors of degree m - d.  Right division
      by a monic g is exact and unique, and lc(f) = lc(q)*sigma^(m-d)(lc(g))
      = lc(q), so q is monic.  Conversely f = q*g with q monic of degree m - d
      gives lc(f) = sigma^(m-d)(lc(g)), so g is monic of degree d, and it is
      unique, as q's unit leading coefficient makes left division by q exact.
    * q |_l f  <=>  psi(q) |_r psi(f).  psi is a bijection of S[t; sigma] onto
      S[t; sigma^-1] that fixes degrees and monicity, and it is
      anti-multiplicative: psi(a t^i * b t^j) = sigma^(-i-j)(a) sigma^(-j)(b)
      t^(i+j) = psi(b t^j) * psi(a t^i) under sigma^-1.  So f = q*g exactly
      when psi(f) = psi(g)*psi(q).

    Hence the monic right divisors of f of degree d > m // 2 are the psi^-1(Q)
    with psi(f) = Q*p under sigma^-1, p over the monic right divisors of psi(f)
    of degree m - d < m - m // 2, a degree the lower half already scans: then
    f = psi^-1(p)*psi^-1(Q), and the scan for p keeps Q.  psi^-1 is psi under
    sigma^-1: sum b_k t^k -> sum sigma^k(b_k) t^k.
    Under delta != 0 degrees 1..m - 1 are scanned, and for a non-monic f
    degrees 1..m.
    """
    return monic_right_divisor_lists([f], cap)[0]


def monic_scale(g: SkewPoly) -> SkewPoly:
    """The monic left-scalar multiple of g (leading coefficient must be a unit)."""
    if g.is_zero:
        return g
    ring = g.twist.ring
    inv = ring._inv[g.vals[-1]]
    if inv is None:
        raise NonInvertibleLeadingCoefficient("leading coefficient is not a unit")
    return g.scale_left(ring.elements[inv])


def psi(g: SkewPoly) -> SkewPoly:
    """The canonical anti-automorphism image of g (delta = 0, commutative S): _psi's view.

    Maps sum a_k t^k to sum sigma^(-k)(a_k) t^k, living under sigma inverse
    (the twist's opposite).
    """
    tw = g.twist
    if tw.has_delta:
        raise DeltaNotZero("psi is only implemented for delta = 0")
    return SkewPoly.from_indices(_psi(tw.sigma)(g.vals), tw.opposite())


def _psi(sigma: Automorphism):
    """psi on index tuples, as a function; sigma^(-k) depends on k mod sigma's order only."""
    ring, e = sigma.ctx, sigma.frob_exp
    tables = [ring.frobenius_table(-e * k) for k in range(sigma.order)]
    return lambda vals: tuple([table[c] for table, c in zip(itertools.cycle(tables), vals)])
