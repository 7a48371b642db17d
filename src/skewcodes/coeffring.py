"""Finite coefficient rings: GF(p^r) in the polynomial basis and residue rings Z_n.

Field elements are digit vectors (little-endian, coordinates in the basis
1, x, ..., x^(r-1)); residue elements are plain integers.  All contexts are
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

DEFAULT_SIZE_CAP = 2 ** 16

# mul tables are only materialized for rings this small
_TABLE_CAP = 256


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _poly_mul_mod_p(u, v, p):
    out = [0] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v):
                out[i + j] = (out[i + j] + ui * vj) % p
    return out


def _poly_divmod_p(num, den, p):
    """Commutative division of coefficient lists over F_p; den must be monic-able."""
    num = list(num)
    dd = len(den) - 1
    while len(den) > 1 and den[-1] == 0:
        den = den[:-1]
        dd -= 1
    inv_lead = pow(den[-1], p - 2, p) if p > 2 else den[-1]
    q = [0] * max(len(num) - dd, 1)
    for i in range(len(num) - 1 - dd, -1, -1):
        c = (num[i + dd] * inv_lead) % p
        if c:
            q[i] = c
            for j, dj in enumerate(den):
                num[i + j] = (num[i + j] - c * dj) % p
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return q, num


def _poly_is_zero(u):
    return all(c == 0 for c in u)


def _is_irreducible(modulus, p, r) -> bool:
    """Trial division by every monic polynomial of degree 1..r//2 over F_p."""
    if modulus[0] == 0:
        # divisible by x
        return r == 1
    for d in range(1, r // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            den = list(tail) + [1]
            _, rem = _poly_divmod_p(modulus, den, p)
            if _poly_is_zero(rem):
                return False
    return True


class Element:
    """A value of a RingContext: a digit tuple (field) or an int (residue)."""

    __slots__ = ("ctx", "val")

    def __init__(self, ctx: "RingContext", val):
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
        return f"Element({self.val!r})"

    def sort_key(self):
        return self.val

    def _check(self, other: "Element"):
        if not isinstance(other, Element) or other.ctx is not self.ctx:
            raise ContextMismatch("elements belong to different ring contexts")

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        return self.ctx.add(self, other)

    def __sub__(self, other):
        self._check(other)
        return self.ctx.add(self, self.ctx.neg(other))

    def __neg__(self):
        return self.ctx.neg(self)

    def __mul__(self, other):
        self._check(other)
        return self.ctx.mul(self, other)

    def __pow__(self, n: int):
        return self.ctx.pow(self, n)

    def inverse(self) -> "Element":
        return self.ctx.inverse(self)

    def is_zero(self) -> bool:
        return self is self.ctx.zero or self == self.ctx.zero

    def is_unit(self) -> bool:
        return self.ctx.is_unit(self)

    def to_json(self):
        return list(self.val) if self.ctx.kind == "field" else self.val


class RingContext:
    """GF(p^r) with an explicit irreducible modulus, or Z_n.

    Use :func:`make_field` / :func:`make_residue_ring` instead of calling
    the constructor directly.
    """

    def __init__(self, kind, p=None, r=None, modulus=None, n_mod=None):
        self.kind = kind
        self.p = p
        self.r = r
        self.modulus = tuple(modulus) if modulus is not None else None
        self.n_mod = n_mod
        if kind == "field":
            self.size = p ** r
            self.char = p
        else:
            self.size = n_mod
            self.char = n_mod
        self._build()

    def _build(self):
        if self.kind == "field":
            self.zero = Element(self, (0,) * self.r)
            one = [0] * self.r
            one[0] = 1
            self.one = Element(self, tuple(one))
            self.elements = [
                Element(self, digits)
                for digits in itertools.product(range(self.p), repeat=self.r)
            ]
        else:
            self.zero = Element(self, 0)
            self.one = Element(self, 1 % self.n_mod)
            self.elements = [Element(self, v) for v in range(self.n_mod)]
        self._by_val = {e.val: e for e in self.elements}
        self._mul_table = None
        if self.size <= _TABLE_CAP:
            tbl = {}
            for a in self.elements:
                for b in self.elements:
                    tbl[(a.val, b.val)] = self._raw_mul(a.val, b.val)
            self._mul_table = tbl
        self.units = [e for e in self.elements if self.is_unit(e)]
        self.xi = None

    def element(self, val) -> Element:
        """Canonical element for a raw value (digit tuple or residue int)."""
        return self._by_val[val]

    def from_json(self, obj) -> Element:
        if self.kind == "field":
            digits = tuple(int(c) % self.p for c in obj)
            if len(digits) < self.r:
                digits = digits + (0,) * (self.r - len(digits))
            return self._by_val[digits]
        return self._by_val[int(obj) % self.n_mod]

    def from_int(self, k: int) -> Element:
        """Embed an integer via repeated addition of 1 (digits of k base p for fields)."""
        if self.kind == "field":
            digits = [0] * self.r
            digits[0] = k % self.p
            return self._by_val[tuple(digits)]
        return self._by_val[k % self.n_mod]

    # -- arithmetic ------------------------------------------------------

    def add(self, a: Element, b: Element) -> Element:
        if self.kind == "field":
            val = tuple((x + y) % self.p for x, y in zip(a.val, b.val))
        else:
            val = (a.val + b.val) % self.n_mod
        return self._by_val[val]

    def neg(self, a: Element) -> Element:
        if self.kind == "field":
            val = tuple((-x) % self.p for x in a.val)
        else:
            val = (-a.val) % self.n_mod
        return self._by_val[val]

    def _raw_mul(self, u, v):
        if self.kind == "field":
            prod = _poly_mul_mod_p(u, v, self.p)
            _, rem = _poly_divmod_p(prod, list(self.modulus), self.p)
            rem = rem + [0] * (self.r - len(rem))
            return tuple(rem[: self.r])
        return (u * v) % self.n_mod

    def mul(self, a: Element, b: Element) -> Element:
        if self._mul_table is not None:
            return self._by_val[self._mul_table[(a.val, b.val)]]
        return self._by_val[self._raw_mul(a.val, b.val)]

    def pow(self, a: Element, n: int) -> Element:
        if n < 0:
            a = self.inverse(a)
            n = -n
        out = self.one
        base = a
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def is_unit(self, a: Element) -> bool:
        if self.kind == "field":
            return a.val != self.zero.val
        return gcd(a.val, self.n_mod) == 1

    def inverse(self, a: Element) -> Element:
        if not self.is_unit(a):
            raise NonUnit(f"{a!r} is not invertible")
        if self.kind == "field":
            return self.pow(a, self.size - 2)
        return self._by_val[pow(a.val, -1, self.n_mod)]

    def mult_order(self, a: Element) -> int:
        if not self.is_unit(a):
            raise NonUnit(f"{a!r} is not a unit")
        k = 1
        x = a
        while x != self.one:
            x = self.mul(x, a)
            k += 1
        return k


class Automorphism:
    """A ring automorphism: x -> x^(p^e) on GF(p^r), or the identity on Z_n."""

    __slots__ = ("ctx", "frob_exp", "_table")

    def __init__(self, ctx: RingContext, frob_exp: int = 0):
        if ctx.kind != "field":
            if frob_exp != 0:
                raise ValueError("residue rings only carry the identity automorphism")
            self.frob_exp = 0
        else:
            self.frob_exp = frob_exp % ctx.r
        self.ctx = ctx
        self._table = None
        if ctx.size <= _TABLE_CAP:
            q = ctx.p ** self.frob_exp if ctx.kind == "field" else 1
            self._table = {e.val: ctx.pow(e, q).val for e in ctx.elements}

    def __call__(self, a: Element) -> Element:
        if a.ctx is not self.ctx:
            raise ContextMismatch("element from a different ring context")
        if self._table is not None:
            return self.ctx._by_val[self._table[a.val]]
        if self.ctx.kind != "field":
            return a
        return self.ctx.pow(a, self.ctx.p ** self.frob_exp)

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
        if self.ctx.kind != "field" or self.frob_exp == 0:
            return 1
        return self.ctx.r // gcd(self.ctx.r, self.frob_exp)

    def power(self, i: int) -> "Automorphism":
        if self.ctx.kind != "field":
            return self
        return Automorphism(self.ctx, (self.frob_exp * i) % self.ctx.r)

    def inverse(self) -> "Automorphism":
        return self.power(-1)

    def compose(self, other: "Automorphism") -> "Automorphism":
        if other.ctx is not self.ctx:
            raise ContextMismatch("automorphisms of different rings")
        if self.ctx.kind != "field":
            return self
        return Automorphism(self.ctx, self.frob_exp + other.frob_exp)


def identity_aut(ctx: RingContext) -> Automorphism:
    return Automorphism(ctx, 0)


def all_automorphisms(ctx: RingContext):
    """Aut(GF(p^r)) = powers of the Frobenius; Aut(Z_n) = {id}."""
    if ctx.kind == "field":
        return [Automorphism(ctx, e) for e in range(ctx.r)]
    return [Automorphism(ctx, 0)]


def default_modulus(p: int, r: int):
    """Lexicographically smallest irreducible monic polynomial of degree r over F_p."""
    for tail in itertools.product(range(p), repeat=r):
        cand = list(tail) + [1]
        if _is_irreducible(cand, p, r):
            return tuple(cand)
    raise ReducibleModulus(f"no irreducible polynomial found for p={p}, r={r}")


def make_field(p: int, r: int, modulus=None, size_cap: int = DEFAULT_SIZE_CAP) -> RingContext:
    """Construct GF(p^r) with a verified irreducible modulus and a primitive element."""
    if not _is_prime(p):
        raise NonPrime(f"{p} is not prime")
    if r < 1:
        raise ValueError("extension degree must be >= 1")
    if p ** r > size_cap:
        raise EnumerationCapExceeded(f"ring size {p ** r} exceeds cap {size_cap}")
    if modulus is None:
        modulus = default_modulus(p, r)
    else:
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != r + 1 or modulus[-1] != 1:
            raise ReducibleModulus("modulus must be monic of degree r")
        if not _is_irreducible(list(modulus), p, r):
            raise ReducibleModulus(f"{list(modulus)} is reducible over F_{p}")
    ctx = RingContext("field", p=p, r=r, modulus=modulus)
    order = p ** r - 1
    for e in ctx.elements:
        if ctx.is_unit(e) and (order == 1 or ctx.mult_order(e) == order):
            ctx.xi = e
            break
    return ctx


def make_residue_ring(n: int, size_cap: int = DEFAULT_SIZE_CAP) -> RingContext:
    """Construct Z_n (identity automorphism only)."""
    if n < 2:
        raise ValueError("modulus must be >= 2")
    if n > size_cap:
        raise EnumerationCapExceeded(f"ring size {n} exceeds cap {size_cap}")
    return RingContext("residue", n_mod=n)


def apply_aut(tau: Automorphism, a: Element) -> Element:
    return tau(a)


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


def norm_image(tau: Automorphism, m: int):
    """The subgroup {N_m(beta) : beta a unit}, in canonical order."""
    ctx = tau.ctx
    seen = {partial_norm(tau, u, m) for u in ctx.units}
    return sorted(seen, key=Element.sort_key)


def unit_group(ctx: RingContext):
    """All units in canonical (lexicographic repr) order."""
    return list(ctx.units)


def additive_generators(ctx: RingContext):
    """A generating set of (S, +): the F_p-basis 1, x, ..., x^(r-1) of GF(p^r), or {1} in Z_n.

    Every element is a sum of copies of these, so a map that is additive in
    an argument vanishes everywhere once it vanishes on them.
    """
    if ctx.kind == "field":
        return [
            ctx.element(tuple(int(i == j) for j in range(ctx.r)))
            for i in range(ctx.r)
        ]
    return [ctx.one]


def fixed_subring(sigma: Automorphism):
    """Elements fixed by sigma, in canonical order."""
    return [e for e in sigma.ctx.elements if sigma(e) == e]
