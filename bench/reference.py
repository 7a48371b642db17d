"""Reference arithmetic for the benchmark's output checks, written apart from skewcodes.

Ring elements are plain ints.  A field element of GF(p^r) with digit vector
(d_0, ..., d_(r-1)) in the basis 1, x, ..., x^(r-1) is the int sum d_i p^i;
an element of Z_n is its residue.  Skew polynomials are little-endian lists of
such ints with no trailing zeros.  Nothing here imports skewcodes: the checks
compare the program's outputs with these computations.
"""

from __future__ import annotations

import itertools
from math import gcd


def _pmul_mod(u, v, modulus, p):
    """Product of two digit lists modulo a monic modulus over F_p."""
    r = len(modulus) - 1
    prod = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            prod[i + j] = (prod[i + j] + a * b) % p
    for k in range(len(prod) - 1, r - 1, -1):
        c = prod[k]
        if c:
            for i in range(r + 1):
                prod[k - r + i] = (prod[k - r + i] - c * modulus[i]) % p
    return (prod + [0] * r)[:r]


def irreducible_moduli(p: int, r: int):
    """Every monic irreducible polynomial of degree r over F_p, by trial division."""
    out = []
    for tail in itertools.product(range(p), repeat=r):
        cand = list(tail) + [1]
        if all(_has_no_factor(cand, d, p) for d in range(1, r // 2 + 1)):
            out.append(tuple(cand))
    return out


def _has_no_factor(cand, d, p):
    for tail in itertools.product(range(p), repeat=d):
        den = list(tail) + [1]
        rem = list(cand)
        for k in range(len(rem) - 1, d - 1, -1):
            c = rem[k]
            if c:
                for i in range(d + 1):
                    rem[k - d + i] = (rem[k - d + i] - c * den[i]) % p
        if not any(rem[:d]):
            return False
    return True


class Ring:
    """GF(p^r) for a given monic irreducible modulus, or Z_n, as int tables."""

    def __init__(self, p=None, r=None, modulus=None, n=None):
        if n is not None:
            self.kind, self.p, self.r, self.size, self.modulus = "residue", None, 1, n, None
            q = n
            self.add = [[(a + b) % n for b in range(n)] for a in range(n)]
            self.mul = [[(a * b) % n for b in range(n)] for a in range(n)]
            self.neg = [(-a) % n for a in range(n)]
            self.basis = [1]
        else:
            self.kind, self.p, self.r, self.modulus = "field", p, r, tuple(modulus)
            q = self.size = p ** r
            digits = [self.digits(a) for a in range(q)]
            self.add = [
                [self.from_digits([(x + y) % p for x, y in zip(digits[a], digits[b])])
                 for b in range(q)]
                for a in range(q)
            ]
            self.mul = [
                [self.from_digits(_pmul_mod(digits[a], digits[b], self.modulus, p))
                 for b in range(q)]
                for a in range(q)
            ]
            self.neg = [self.from_digits([(-x) % p for x in digits[a]]) for a in range(q)]
            self.basis = [p ** i for i in range(r)]
        self.inv = [next((b for b in range(q) if self.mul[a][b] == 1 % q), None) for a in range(q)]
        self.units = [a for a in range(q) if self.inv[a] is not None]

    # -- encodings -------------------------------------------------------

    def digits(self, a):
        return [(a // self.p ** i) % self.p for i in range(self.r)]

    def from_digits(self, ds):
        return sum(d * self.p ** i for i, d in enumerate(ds))

    def from_json(self, obj) -> int:
        """An element from its skewcodes JSON encoding (digit list or int)."""
        if self.kind == "field":
            return self.from_digits([int(d) % self.p for d in obj])
        return int(obj) % self.size

    # -- automorphisms ---------------------------------------------------

    def frobenius(self, e: int):
        """Table of x -> x^(p^e); the identity on Z_n."""
        if self.kind != "field":
            return list(range(self.size))
        out = []
        for a in range(self.size):
            x = a
            for _ in range(e % self.r):
                x = self.power(x, self.p)
            out.append(x)
        return out

    def power(self, a, k):
        out = 1 % self.size
        for _ in range(k):
            out = self.mul[out][a]
        return out

    def automorphisms(self):
        """All automorphism tables (Frobenius powers for a field, the identity for Z_n)."""
        return [self.frobenius(e) for e in range(self.r)]

    def norm(self, tau, beta, i):
        """N_i^tau(beta) = beta tau(beta) ... tau^(i-1)(beta)."""
        out, x = 1 % self.size, beta
        for _ in range(i):
            out = self.mul[out][x]
            x = tau[x]
        return out


def order_of(table):
    """Order of an automorphism given as a table."""
    k, cur = 1, list(table)
    ident = list(range(len(table)))
    while cur != ident:
        cur = [table[x] for x in cur]
        k += 1
    return k


def trim(poly):
    poly = list(poly)
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


class Twist:
    """S[t; sigma, delta] with delta(a) = beta (sigma(a) - a), or delta = 0."""

    def __init__(self, ring: Ring, sigma_exp: int, beta: int | None = None):
        self.R = ring
        self.sig = ring.frobenius(sigma_exp)
        self.n = order_of(self.sig)
        self.sig_pow = [list(range(ring.size))]
        for _ in range(1, self.n):
            self.sig_pow.append([self.sig[x] for x in self.sig_pow[-1]])
        if beta:
            R = ring
            self.dlt = [R.mul[beta][R.add[self.sig[a]][R.neg[a]]] for a in range(R.size)]
        else:
            self.dlt = None

    def sigma_power(self, i):
        return self.sig_pow[i % self.n]

    def add(self, g, h):
        A = self.R.add
        n = max(len(g), len(h))
        return trim([A[g[i] if i < len(g) else 0][h[i] if i < len(h) else 0] for i in range(n)])

    def scale(self, c, g):
        M = self.R.mul[c]
        return trim([M[x] for x in g])

    def t_times(self, h):
        """t * h: each c t^j becomes sigma(c) t^(j+1) + delta(c) t^j."""
        out = [0] + [self.sig[c] for c in h]
        if self.dlt is not None:
            A = self.R.add
            for j, c in enumerate(h):
                out[j] = A[out[j]][self.dlt[c]]
        return trim(out)

    def mul(self, g, h):
        """g * h in the skew polynomial ring."""
        acc, shifted = [], list(h)
        for i, gi in enumerate(g):
            if gi:
                acc = self.add(acc, self.scale(gi, shifted))
            if i + 1 < len(g):
                shifted = self.t_times(shifted)
        return acc

    def rem(self, g, f):
        """Remainder of g on right division by f (leading coefficient a unit)."""
        R = self.R
        df = len(f) - 1
        lead_inv = R.inv[f[-1]]
        tf = [list(f)]
        r = trim(g)
        while len(r) - 1 >= df:
            d = len(r) - 1 - df
            while len(tf) <= d:
                tf.append(self.t_times(tf[-1]))
            # (c t^d) f = c (t^d f) has leading coefficient c sigma^d(lc f)
            c = R.mul[r[-1]][self.sigma_power(d)[lead_inv]]
            r = self.add(r, self.scale(R.neg[c], tf[d]))
        return r

    def petit(self, g, h, f):
        """The product of S_f: g h reduced on the right by f."""
        return self.rem(self.mul(g, h), f)


# -- codes -------------------------------------------------------------


def monic_polys(R: Ring, degree: int):
    for tail in itertools.product(range(R.size), repeat=degree):
        yield list(tail) + [1]


def right_divisors(tw: Twist, f, below: int):
    """Monic right divisors of f of degree < below, by brute force."""
    return [g for d in range(below) for g in monic_polys(tw.R, d) if not tw.rem(f, g)]


def min_distance(tw: Twist, g, m: int) -> int:
    """Minimum weight of the left span of g, t g, ..., t^(m - deg g - 1) g."""
    R = tw.R
    rows = [list(g)]
    for _ in range(m - len(g)):
        rows.append(tw.t_times(rows[-1]))
    rows = [row + [0] * (m - len(row)) for row in rows]
    words = [[0] * m]
    for row in rows:
        words = [
            [R.add[w[i]][R.mul[s][row[i]]] for i in range(m)]
            for w in words
            for s in range(R.size)
        ]
    return min(sum(1 for c in w if c) for w in words if any(w))


# -- classification ----------------------------------------------------


def trailing(R: Ring, f):
    """The a_i with f = t^m - sum a_i t^i."""
    return [R.neg[c] for c in f[:-1]]


def equivalence_holds(tw: Twist, a, b, tau, alpha) -> bool:
    """tau(a_i) = N_(m-i)(sigma^i(alpha)) b_i for every i."""
    R = tw.R
    m = len(a)
    return all(
        tau[a[i]] == R.mul[R.norm(tw.sig, tw.sigma_power(i)[alpha], m - i)][b[i]]
        for i in range(m)
    )


def orbit(tw: Twist, f, chen_only=False):
    """Every h such that some (tau, alpha) relates h to f, as coefficient tuples."""
    R = tw.R
    b = trailing(R, f)
    m = len(b)
    taus = R.automorphisms()[:1] if chen_only else R.automorphisms()
    out = set()
    for tau in taus:
        inv_tau = [0] * R.size
        for x, y in enumerate(tau):
            inv_tau[y] = x
        for alpha in R.units:
            # h with trailing coefficients a_i = tau^-1(N_(m-i)(sigma^i alpha) b_i)
            a = [inv_tau[R.mul[R.norm(tw.sig, tw.sigma_power(i)[alpha], m - i)][b[i]]]
                 for i in range(m)]
            out.add(tuple(R.neg[x] for x in a) + (1,))
    return out


def isometry_degrees(m: int, n: int):
    """Degrees 1 < k < m of monomial maps t -> alpha t^k compatible with sigma of order n."""
    return [k for k in range(2, m) if k % n == 1 % n and gcd(k, m) == 1]


def monomial_map_is_multiplicative(tw: Twist, f, h, tau, alpha, k) -> bool:
    """Whether G(sum d_i t^i) = sum tau(d_i) (alpha t^k)^i mod_r h is multiplicative S_f -> S_h.

    G is additive and tau-semilinear, and the product of S_f is biadditive and
    left S-linear, so G(x y) = G(x) G(y) for all x, y exactly when it holds
    for x = t^i and y = b t^j with b running over an additive basis of S.
    """
    R = tw.R
    m = len(f) - 1
    step = [0] * k + [alpha]
    powers = [[1]]
    for _ in range(1, m):
        powers.append(tw.mul(powers[-1], step))

    def G(x):
        acc = []
        for i, d in enumerate(x):
            if d:
                acc = tw.add(acc, tw.scale(tau[d], powers[i]))
        return tw.rem(acc, h)

    for i in range(m):
        x = [0] * i + [1]
        gx = G(x)
        for j in range(m):
            for b in R.basis:
                y = [0] * j + [b]
                if G(tw.petit(x, y, f)) != tw.petit(gx, G(y), h):
                    return False
    return True


RELATIONS = ("ChenEquivalent", "Equivalent", "ChenIsometric", "Isometric", "NotRelated")


def strongest_relation(tw: Twist, f, h):
    """(relation, least witness degree k) between the classes of f and h, by exhaustive search.

    The relations are tried from the strongest down; k is None for NotRelated.
    """
    R = tw.R
    a, b = trailing(R, f), trailing(R, h)
    auts = R.automorphisms()
    m = len(a)
    for chen, name in ((True, "ChenEquivalent"), (False, "Equivalent")):
        for tau in auts[:1] if chen else auts:
            if any(equivalence_holds(tw, a, b, tau, al) for al in R.units):
                return name, 1
    for chen, name in ((True, "ChenIsometric"), (False, "Isometric")):
        for k in isometry_degrees(m, tw.n):
            for tau in auts[:1] if chen else auts:
                for al in R.units:
                    if monomial_map_is_multiplicative(tw, f, h, tau, al, k):
                        return name, k
    return "NotRelated", None


def class_counts_formula(p: int, r: int, s: int, m: int):
    """(nonassociative, associative) Chen class counts of t^m - a over GF(p^r), sigma = x^(p^s).

    The classes are the cosets of the norm image N_m(S^x), which is the
    subgroup of [m]_s-th powers with [m]_s = (p^(sm) - 1)/(p^s - 1); there
    are w = gcd([m]_s, p^r - 1) of them.  When n = r/s divides m the norm
    image lies in the fixed field GF(p^s), and the classes of sigma-fixed a
    (the associative ones) number w (p^s - 1)/(p^r - 1).
    """
    n = r // s
    w = gcd((p ** (s * m) - 1) // (p ** s - 1), p ** r - 1)
    if m % n:
        return w, 0
    assoc = w * (p ** s - 1) // (p ** r - 1)
    return w - assoc, assoc


# -- structure ---------------------------------------------------------


def _rank_mod_p(rows, p):
    rows = [list(r) for r in rows]
    rank, col = 0, 0
    ncols = len(rows[0]) if rows else 0
    while rank < len(rows) and col < ncols:
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                c = rows[i][col]
                rows[i] = [(x - c * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def associator(tw: Twist, f, x, y, z):
    """(x y) z - x (y z) in S_f."""
    left = tw.petit(tw.petit(x, y, f), z, f)
    right = tw.petit(x, tw.petit(y, z, f), f)
    return tw.add(left, [tw.R.neg[c] for c in right])


def nucleus_dims(tw: Twist, f):
    """(associative, left, middle, right nucleus dimensions) of S_f.

    Over GF(p^r) the associator is F_p-linear in each slot, so each nucleus is
    the kernel of an F_p-linear map; its dimension is rm minus the rank of the
    associators on a basis.  Over Z_n every element of S_f is counted and the
    dimension is floor(log_n(size of the nucleus)).
    """
    R = tw.R
    m = len(f) - 1
    if R.kind == "field":
        basis = [[0] * j + [b] for j in range(m) for b in R.basis]
        size = len(basis)
        coords = {}
        for u, v, w in itertools.product(range(size), repeat=3):
            val = associator(tw, f, basis[u], basis[v], basis[w])
            val = val + [0] * (m - len(val))
            coords[u, v, w] = [d for c in val for d in R.digits(c)]
        assoc = not any(any(c) for c in coords.values())
        dims = []
        for slot in range(3):
            rows = []
            for x in range(size):
                row = []
                for v, w in itertools.product(range(size), repeat=2):
                    key = [(x, v, w), (v, x, w), (v, w, x)][slot]
                    row.extend(coords[key])
                rows.append(row)
            dims.append(size - _rank_mod_p(rows, R.p))
        return (assoc, *dims)
    gens = [[0] * j + [1] for j in range(m)]
    counts = [0, 0, 0]
    for xs in itertools.product(range(R.size), repeat=m):
        x = trim(xs)
        for slot in range(3):
            if all(
                not associator(tw, f, *[(x, y, z), (y, x, z), (y, z, x)][slot])
                for y in gens
                for z in gens
            ):
                counts[slot] += 1
    dims = []
    for c in counts:
        d = 0
        while R.size ** (d + 1) <= c:
            d += 1
        dims.append(d)
    return (counts[0] == R.size ** m, *dims)


def two_sided(tw: Twist, f) -> bool:
    """Whether R f is a two-sided ideal: f t and f a lie in R f for every a."""
    return not tw.rem(tw.mul(f, [0, 1]), f) and all(
        not tw.rem(tw.mul(f, [a]), f) for a in range(1, tw.R.size)
    )
