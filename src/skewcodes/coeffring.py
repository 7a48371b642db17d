"""Finite coefficient rings: GF(p^r) in the polynomial basis and residue rings Z_n.

Every ring is a pair of addition and multiplication tables over the indices
0..q-1 of its elements.  Index 0 is zero.  Field indices follow the
lexicographic order of the digit vectors (little-endian coordinates in the
basis 1, x, ..., x^(r-1)) and residue indices are the residues themselves,
so an element's index is also its sort key.  Only the constructors and the
JSON / integer encodings know a field from a residue ring.  All contexts are
immutable after construction and safe to share.
"""

from __future__ import annotations

import itertools
from math import gcd

from .errors import (
    ContextMismatch,
    EnumerationCapExceeded,
    NonPrime,
    NonUnit,
    ReducibleModulus,
)

# rings carry full q x q tables, so they are kept this small
DEFAULT_SIZE_CAP = 256


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_rem_monic(num, den, p):
    """The remainder of num by the monic den, coefficient lists over F_p (little-endian)."""
    num = list(num)
    d = len(den) - 1
    for i in range(len(num) - 1 - d, -1, -1):
        c = num[i + d]
        if c:
            for j, dj in enumerate(den):
                num[i + j] = (num[i + j] - c * dj) % p
    return num[:d]


def _is_irreducible(modulus, p, r) -> bool:
    """Trial division by every monic polynomial of degree 1..r//2 over F_p."""
    if modulus[0] == 0:
        # divisible by x
        return r == 1
    for d in range(1, r // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            if not any(_poly_rem_monic(modulus, list(tail) + [1], p)):
                return False
    return True


class Element:
    """An element of a RingContext: its index into the context's tables."""

    __slots__ = ("ctx", "val")

    def __init__(self, ctx: "RingContext", val: int):
        self.ctx = ctx
        self.val = val

    # -- structure -------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Element)
            and self.ctx is other.ctx
            and self.val == other.val
        )

    def __hash__(self):
        return hash((id(self.ctx), self.val))

    def __repr__(self):
        return f"Element({self.to_json()!r})"

    def _check(self, other: "Element"):
        if not isinstance(other, Element) or other.ctx is not self.ctx:
            raise ContextMismatch("elements belong to different ring contexts")

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        ctx = self.ctx
        return ctx.elements[ctx._add[self.val][other.val]]

    def __sub__(self, other):
        self._check(other)
        ctx = self.ctx
        return ctx.elements[ctx._add[self.val][ctx._neg[other.val]]]

    def __neg__(self):
        return self.ctx.elements[self.ctx._neg[self.val]]

    def __mul__(self, other):
        self._check(other)
        ctx = self.ctx
        return ctx.elements[ctx._mul[self.val][other.val]]

    def __pow__(self, n: int):
        base, n = (self, n) if n >= 0 else (self.inverse(), -n)
        out = self.ctx.one
        while n:
            if n & 1:
                out = out * base
            base, n = base * base, n >> 1
        return out

    def inverse(self) -> "Element":
        inv = self.ctx._inv[self.val]
        if inv is None:
            raise NonUnit(f"{self!r} is not invertible")
        return self.ctx.elements[inv]

    def is_zero(self) -> bool:
        return self.val == 0

    def is_unit(self) -> bool:
        return self.ctx._inv[self.val] is not None

    def to_json(self):
        """The digit list of a field element, the residue of a Z_n element."""
        ctx = self.ctx
        if ctx.kind == "field":
            return [self.val // ctx.p ** (ctx.r - 1 - k) % ctx.p for k in range(ctx.r)]
        return self.val


class RingContext:
    """A finite commutative ring given by addition and multiplication tables.

    ``add[i][j]`` and ``mul[i][j]`` are the indices of the sum and product of
    the elements with indices i and j.  Negation, inverses and the
    automorphism tables are read off these, so no operation depends on the
    kind of ring; Element's operators read the tables ``_add``, ``_neg``,
    ``_mul`` and ``_inv`` directly.  Use :func:`make_field` /
    :func:`make_residue_ring` instead of calling the constructor directly.
    """

    def __init__(self, kind, add, mul, p=None, r=1, modulus=None):
        self.kind = kind
        self.p = p
        self.r = r
        self.modulus = modulus
        self.size = len(add)
        self._add = add
        self._mul = mul
        self.elements = [Element(self, i) for i in range(self.size)]
        self.zero = self.elements[0]
        identity = list(range(self.size))
        one = mul.index(identity)
        self.one = self.elements[one]
        self._neg = [row.index(0) for row in add]
        # the additive order of 1: p for GF(p^r), n for Z_n
        self.characteristic, x = 1, one
        while x:
            self.characteristic, x = self.characteristic + 1, add[x][one]
        self._inv = [row.index(one) if one in row else None for row in mul]
        self.units = [e for e in self.elements if self._inv[e.val] is not None]
        self._frobenius = {0: identity}
        self._automorphisms = None

    def from_json(self, obj) -> Element:
        if self.kind == "field":
            digits = [int(c) % self.p for c in obj]
            if len(digits) > self.r:
                raise ValueError(
                    f"element {digits} has {len(digits)} digits; "
                    f"elements of GF({self.size}) have at most {self.r}"
                )
            idx = 0
            for d in digits + [0] * (self.r - len(digits)):
                idx = idx * self.p + d
            return self.elements[idx]
        return self.elements[int(obj) % self.size]

    def from_int(self, k: int) -> Element:
        """Embed an integer as k * 1, of index (k mod c) * index(1): 1 is one base-c digit."""
        return self.elements[k % self.characteristic * self.one.val]

    def frobenius_table(self, e: int):
        """Index table of x -> x^(p^e), built once per exponent e mod r.

        x^(p^r) = x on GF(p^r), so e is read mod r (negative e included); on
        Z_n, r = 1 and every e gives the identity.  x^p = x * x^(p-1) is read
        off row x of the multiplication table, and x^(p^e) is x -> x^p applied
        to x^(p^(e-1)); e = 0 is the identity.
        """
        e %= self.r
        table = self._frobenius.get(e)
        if table is None:
            if e == 1:
                table = list(range(self.size))
                for _ in range(self.p - 1):
                    table = [row[y] for row, y in zip(self._mul, table)]
            else:
                frob = self.frobenius_table(1)
                table = [frob[y] for y in self.frobenius_table(e - 1)]
            self._frobenius[e] = table
        return table


class Automorphism:
    """A ring automorphism: x -> x^(p^e) on GF(p^r), or the identity on Z_n (r = 1)."""

    __slots__ = ("ctx", "frob_exp", "_table")

    def __init__(self, ctx: RingContext, frob_exp: int = 0):
        if ctx.kind != "field" and frob_exp != 0:
            raise ValueError("residue rings only carry the identity automorphism")
        self.ctx = ctx
        self.frob_exp = frob_exp % ctx.r
        self._table = ctx.frobenius_table(self.frob_exp)

    def __call__(self, a: Element) -> Element:
        if a.ctx is not self.ctx:
            raise ContextMismatch("element from a different ring context")
        return self.ctx.elements[self._table[a.val]]

    def __eq__(self, other):
        return (
            isinstance(other, Automorphism)
            and self.ctx is other.ctx
            and self.frob_exp == other.frob_exp
        )

    def __hash__(self):
        return hash((id(self.ctx), self.frob_exp))

    def __repr__(self):
        return f"Automorphism(frob_exp={self.frob_exp})"

    @property
    def is_identity(self) -> bool:
        return self.frob_exp == 0

    @property
    def order(self) -> int:
        return self.ctx.r // gcd(self.ctx.r, self.frob_exp)

    def power(self, i: int) -> "Automorphism":
        return Automorphism(self.ctx, self.frob_exp * i)

    def inverse(self) -> "Automorphism":
        return self.power(-1)


def identity_aut(ctx: RingContext) -> Automorphism:
    return all_automorphisms(ctx)[0]


def all_automorphisms(ctx: RingContext):
    """Aut(GF(p^r)) = powers of the Frobenius; Aut(Z_n) = {id}, as Z_n has r = 1.

    Built once per ring and shared, as a tuple.
    """
    if ctx._automorphisms is None:
        ctx._automorphisms = tuple(Automorphism(ctx, e) for e in range(ctx.r))
    return ctx._automorphisms


def default_modulus(p: int, r: int):
    """Lexicographically smallest irreducible monic polynomial of degree r over F_p."""
    for tail in itertools.product(range(p), repeat=r):
        cand = list(tail) + [1]
        if _is_irreducible(cand, p, r):
            return tuple(cand)
    # not reached for r >= 1: the minimal polynomial over F_p of a generator of GF(p^r)*
    # is monic and irreducible of degree r
    raise ReducibleModulus(f"no irreducible polynomial found for p={p}, r={r}")


def make_field(p: int, r: int, modulus=None) -> RingContext:
    """Construct GF(p^r) with a verified irreducible modulus.

    An index is a digit vector read as a base-p number, the coefficient of
    x^0 most significant: u = sum_k u_k p^(r-1-k).  Sums are digitwise mod p,
    so the addition table is built one digit at a time from that of Z_p.
    Products use F_p-linearity: v -> u*v is F_p-linear, so row u is
    u*v = sum_k v_k (x^k u), the F_p-span of x^0 u, ..., x^(r-1) u listed
    in index order.  Multiplying by x moves each u_k to x^(k+1), one place
    less significant, which is u // p on indices; the digit u_(r-1) = u % p
    that falls off comes back as u_(r-1) x^r, where x^r = -(m_0 + m_1 x +
    ... + m_(r-1) x^(r-1)) by the modulus.  So x*u is one shift plus one
    reduction, and the powers x^k u are read from that one table.
    """
    if not _is_prime(p):
        raise NonPrime(f"{p} is not prime")
    if r < 1:
        raise ValueError("extension degree must be >= 1")
    if p ** r > DEFAULT_SIZE_CAP:
        raise EnumerationCapExceeded(f"ring size {p ** r} exceeds cap {DEFAULT_SIZE_CAP}")
    if modulus is None:
        modulus = default_modulus(p, r)
    else:
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != r + 1 or modulus[-1] != 1:
            raise ReducibleModulus("modulus must be monic of degree r")
        if not _is_irreducible(list(modulus), p, r):
            raise ReducibleModulus(f"{list(modulus)} is reducible over F_{p}")
    zp = [[(a + b) % p for b in range(p)] for a in range(p)]
    add = zp
    for size in (p ** k for k in range(1, r)):
        # prepend a more significant digit a (in u) and b (in v) to every entry
        add = [[zp[a][b] * size + s for b in range(p) for s in row]
               for a in range(p) for row in add]

    def multiples(w):
        """c * w for c = 0..p-1."""
        out = [0]
        for _ in range(p - 1):
            out.append(add[out[-1]][w])
        return out

    # c * x^r for each digit c
    x_r = multiples(sum(-c % p * p ** (r - 1 - k) for k, c in enumerate(modulus[:r])))
    x_times = [add[u // p][x_r[u % p]] for u in range(p ** r)]
    mul = []
    for u in range(p ** r):
        powers = [u]  # x^k u for k < r
        for _ in range(r - 1):
            powers.append(x_times[powers[-1]])
        span = [0]
        for w in reversed(powers):  # x^0 u, the most significant digit of v, comes last
            span = [row[s] for row in (add[c] for c in multiples(w)) for s in span]
        mul.append(span)
    return RingContext("field", add, mul, p=p, r=r, modulus=modulus)


def make_residue_ring(n: int) -> RingContext:
    """Construct Z_n (identity automorphism only)."""
    if n < 2:
        raise ValueError("modulus must be >= 2")
    if n > DEFAULT_SIZE_CAP:
        raise EnumerationCapExceeded(f"ring size {n} exceeds cap {DEFAULT_SIZE_CAP}")
    add = [[(a + b) % n for b in range(n)] for a in range(n)]
    mul = [[a * b % n for b in range(n)] for a in range(n)]
    return RingContext("residue", add, mul)


def partial_norm(tau: Automorphism, beta: Element, i: int) -> Element:
    """N_i(beta): the product of the first i tau-conjugates of beta (empty product = 1)."""
    if beta.ctx is not tau.ctx:
        raise ContextMismatch("element from a different ring context")
    out = tau.ctx.one
    x = beta
    for _ in range(i):
        out = out * x
        x = tau(x)
    return out


def additive_generators(ctx: RingContext):
    """A generating set of (S, +): the F_p-basis 1, x, ..., x^(r-1) of GF(p^r), or {1} in Z_n.

    Every element is a sum of copies of these, so a map that is additive in
    an argument vanishes everywhere once it vanishes on them.
    """
    return [ctx.elements[ctx.characteristic ** (ctx.r - 1 - i)] for i in range(ctx.r)]


def fixed_subring(sigma: Automorphism):
    """Elements fixed by sigma, in canonical order."""
    return [e for e in sigma.ctx.elements if sigma(e) == e]
