"""Equivalence and isometry of code classes.

Two classes given by monic f and h of degree m are equivalent when some
(tau, alpha) satisfies tau(a_i) = N_(m-i)(sigma^i(alpha)) * b_i for every
coefficient; isometries additionally allow t to map to alpha * t^k.
All predicates require delta = 0.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from math import gcd

from .coeffring import Automorphism, Element, RingContext, all_automorphisms
from .errors import (
    ContextMismatch,
    DegreeMismatch,
    DeltaNotZero,
    InvalidConfig,
    InvalidK,
    NonMonic,
    NonUnit,
    NotConstacyclic,
)
from .petit import PetitAlgebra
from .skewpoly import SkewPoly


class IsometryWitness(namedtuple("IsometryWitness", "tau alpha k", defaults=(1,))):
    """A map t -> alpha * t^k twisted by tau; alpha must be a unit and k >= 1."""

    __slots__ = ()

    def __new__(cls, tau: Automorphism, alpha: Element, k: int = 1):
        if not alpha.is_unit():
            raise NonUnit("witness scalar must be a unit")
        if k < 1:
            raise InvalidK("monomial degree must be positive")
        return super().__new__(cls, tau, alpha, k)

    def to_json(self):
        return {
            "tau_frob_exp": self.tau.frob_exp,
            "alpha": self.alpha.to_json(),
            "k": self.k,
        }


class Relation(Enum):
    CHEN_EQUIVALENT = "ChenEquivalent"
    EQUIVALENT = "Equivalent"
    CHEN_ISOMETRIC = "ChenIsometric"
    ISOMETRIC = "Isometric"
    NOT_RELATED = "NotRelated"


class ClassificationResult(
    namedtuple("ClassificationResult", "relation witness filter_reason", defaults=(None,))
):
    __slots__ = ()

    def to_json(self):
        return {
            "relation": self.relation.value,
            "witness": self.witness.to_json() if self.witness else None,
            "filter_reason": self.filter_reason,
        }


def _require_classifiable(f: SkewPoly, h: SkewPoly):
    f._check(h)
    if f.twist.has_delta:
        raise DeltaNotZero("classification predicates require delta = 0")
    if f.degree != h.degree or not (f.is_monic and h.is_monic):
        raise DegreeMismatch("f and h must be monic of the same degree")


def _require_witness_ring(ring: RingContext, tau: Automorphism, alpha: Element):
    if tau.ctx is not ring or getattr(alpha, "ctx", None) is not ring:
        raise ContextMismatch("tau and alpha must act on the ring of f and h")


def _norms(ring: RingContext, e: int, a: int, n: int):
    """[N_0(a), ..., N_n(a)] as indices, under sigma: x -> x^(p^e) (e read mod r).

    N_i(a) = a * sigma(a) * ... * sigma^(i-1)(a), the empty product N_0(a) = 1;
    e = 0 gives the powers a^i.
    """
    mul = ring._mul
    sig = ring.frobenius_table(e)
    out = [ring.one.val]
    for _ in range(n):
        out.append(mul[out[-1]][a])
        a = sig[a]
    return out


def _is_constacyclic(vals) -> bool:
    """Whether the monic polynomial with index sequence vals is t^m - a with a != 0."""
    return bool(vals[0]) and not any(vals[1:-1])


def _scales(tw, alpha: int, m: int):
    """The rows mul[N_(m-i)(sigma^i(alpha))] for i < m: multiplying by N_(m-i)(sigma^i(alpha)).

    N_m(alpha) = N_i(alpha) * N_(m-i)(sigma^i(alpha)), as both sides are
    alpha * sigma(alpha) * ... * sigma^(m-1)(alpha) (S is commutative), so for a
    unit alpha N_(m-i)(sigma^i(alpha)) = N_m(alpha) / N_i(alpha): every norm
    comes from the one list N_0(alpha), ..., N_m(alpha).
    """
    ring = tw.ring
    mul, inv = ring._mul, ring._inv
    norms = _norms(ring, tw.sigma.frob_exp, alpha, m)
    top = mul[norms[m]]
    return [mul[top[inv[n]]] for n in norms[:m]]


def check_equivalence(f: SkewPoly, h: SkewPoly, tau: Automorphism, alpha: Element) -> bool:
    """Test tau(a_i) = N_(m-i)(sigma^i(alpha)) * b_i for all i.

    As a_i = -f_i and b_i = -h_i, this is tau(f_i) = _scales(alpha, m)[i][h_i].

    For m >= 2 this is verify_witness_multiplicative on the witness
    (tau, alpha, 1), so k = 1 needs no multiplicativity check.  Extend G to
    H(sum x_j t^j) = sum tau(x_j) N_j(alpha) t^j on S[t; sigma]; they agree
    on S_f, as G(t^j) = N_j(alpha) t^j is never reduced for j < m.  H is
    multiplicative by the norm cocycle N_(i+j)(alpha) = N_i(alpha)
    sigma^i(N_j(alpha)) and tau sigma = sigma tau, so the products with
    i + j < m, which neither f nor h reduces, always agree.  Those that reach
    t^m agree exactly when the closed form holds.  It says h = monic(H(f)),
    f's class member (tau, tau^-1(alpha)^-1) (_Orbits), so H(f) = N_m(alpha) h
    and p = q f + r with deg r < m gives H(p) = (H(q) N_m(alpha)) h + H(r),
    hence H(p) mod_r h = H(p mod_r f) and G(x *_f y) = G(x) *_h G(y).  Conversely,
    the pair t^(m-1), t gives -sum tau(f_i) N_i(alpha) t^i = N_m(alpha)
    (t^m mod_r h) = -sum N_m(alpha) h_i t^i (right remainders are left
    S-linear), and dividing by the unit N_i(alpha) gives the closed form.
    For m = 1 no product reaches t, so every such G is multiplicative while
    this test still compares the constants.
    """
    _require_classifiable(f, h)
    ring = f.twist.ring
    _require_witness_ring(ring, tau, alpha)
    if not alpha.is_unit():
        raise NonUnit("alpha must be a unit")
    tt = ring.frobenius_table(tau.frob_exp)
    scales = _scales(f.twist, alpha.val, int(f.degree))
    return all(tt[a] == row[b] for a, b, row in zip(f.vals, h.vals, scales))


def fast_reject(f: SkewPoly, h: SkewPoly):
    """A reason string when a cheap filter proves non-equivalence, else None."""
    _require_classifiable(f, h)
    ring = f.twist.ring
    mul, inv = ring._mul, ring._inv
    e, n = f.twist.sigma.frob_exp, f.twist.sigma.order
    m = int(f.degree)
    # a_i = -f_i and b_i = -h_i: zeros, units and tau(a_i) / b_i = tau(f_i) / h_i
    # are the same for the f_i and h_i themselves
    a, b = f.vals, h.vals
    for i in range(m):
        if (a[i] == 0) != (b[i] == 0):
            return f"support mismatch at degree {i}"
    for i in range(m):
        if (inv[a[i]] is None) != (inv[b[i]] is None):
            return f"invertibility pattern mismatch at degree {i}"
    # norm coset test: N_(S/S0)(tau(a_i) / b_i) must be an (m-i)-th power of a
    # value of the full norm for some tau
    full_norms = {_norms(ring, e, u.val, n)[n] for u in ring.units}
    taus = [ring.frobenius_table(tau.frob_exp) for tau in all_automorphisms(ring)]
    for i in range(m):
        if inv[a[i]] is None or inv[b[i]] is None:
            continue
        powers = {_norms(ring, 0, x, m - i)[m - i] for x in full_norms}
        b_inv = mul[inv[b[i]]]
        if all(_norms(ring, e, b_inv[tt[a[i]]], n)[n] not in powers for tt in taus):
            return f"norm coset obstruction at degree {i}"
    return None


def valid_isometry_degrees(m: int, n: int):
    """Monomial degrees 1 < k < m compatible with sigma of order n."""
    return [k for k in range(2, m) if k % n == 1 % n and gcd(k, m) == 1]


def check_isometry_k(
    f: SkewPoly, h: SkewPoly, tau: Automorphism, alpha: Element, k: int
) -> bool:
    """The degree-k condition N_m^(sigma^k)(alpha) * b^k = tau(a), for f = t^m - a, h = t^m - b.

    The closed form of Chen, Fan, Lin and Liu ("Constacyclic codes over
    finite fields", 2012); no search calls it.  k is 1 or a
    valid_isometry_degrees entry, so sigma^k = sigma.  As t^m = h + b and
    right remainders are left S-linear, t^(qm) mod_r h is N_q^(sigma^m)(b);
    as k(m-1) = (k-1)m + m-k, G(t^(m-1)) is
    N_(m-1)^(sigma^k)(alpha) * sigma^(m-k)(N_(k-1)^(sigma^m)(b)) * t^(m-k).
    With G(t) = alpha t^k and G(t^(m-1) *_f t) = G(a) = tau(a), the pair
    (t^(m-1), t) of verify_witness_multiplicative holds exactly when
    tau(a) = N_m^(sigma^k)(alpha) * b * prod_(j=1..k-1) sigma^(jm-1)(b).
    When sigma fixes b, that is this condition: the closed form of that
    first pair, so necessary for a witness.  If also n | m, S_h is
    associative, and the condition is sufficient too: that pair alone then
    decides (the proof is in verify_witness_multiplicative's docstring).
    When sigma does not fix b the two differ both ways.
    """
    _require_classifiable(f, h)
    _require_witness_ring(f.twist.ring, tau, alpha)
    if not alpha.is_unit():
        raise NonUnit("alpha must be a unit")
    if not (_is_constacyclic(f.vals) and _is_constacyclic(h.vals)):
        raise NotConstacyclic("polynomial is not of the shape t^m - a with a != 0")
    ring = f.twist.ring
    m = int(f.degree)
    if k != 1 and k not in valid_isometry_degrees(m, f.twist.sigma.order):
        raise InvalidK(f"k={k} violates the monomial-degree constraints")
    a, b = ring._neg[f.vals[0]], ring._neg[h.vals[0]]
    norm = _norms(ring, f.twist.sigma.frob_exp * k, alpha.val, m)[m]
    b_k = _norms(ring, 0, b, k)[k]
    return ring._mul[norm][b_k] == ring.frobenius_table(tau.frob_exp)[a]


def _witness_map(B: PetitAlgebra, witness: IsometryWitness):
    """The witness map G: S_f -> S_h on index terms; B is S_h.

    G(terms) is G(sum c t^j) over the index terms (j, c), j < m: a row of
    PetitAlgebra._red, or enumerate() of an index list.  It returns an index
    list of length m.  G is additive and tau-semilinear (see
    verify_witness_multiplicative), so G(sum c t^j) = sum tau(c) * G(t^j),
    and G(t^j) = N_j^(sigma^k)(alpha) * (t^(kj) mod_r h): each remainder is a
    row of B's power table (PetitAlgebra._reductions), extended here to
    k(m-1), and scaling it by the norm is exact because right remainders are
    left S-linear.  So each nonzero term adds its scaled row, with no image
    list built first.
    """
    ring = B.ring
    m, k = B.m, witness.k
    add, mul = ring._add, ring._mul
    tt = ring.frobenius_table(witness.tau.frob_exp)
    norms = _norms(ring, B.twist.sigma.frob_exp * k, witness.alpha.val, m - 1)
    red = B._reductions(k * (m - 1))

    def G(terms):
        acc = [0] * m
        for j, c in terms:
            if c:
                row = mul[mul[tt[c]][norms[j]]]
                for l, v in red[k * j]:
                    acc[l] = add[acc[l]][row[v]]
        return acc

    return G


def verify_witness_multiplicative(
    A: PetitAlgebra, B: PetitAlgebra, witness: IsometryWitness
) -> bool:
    """Check G(x *_f y) = G(x) *_h G(y) for all x, y in A = S_f, with B = S_h.

    The check runs over the pairs x = t^i, y = b * t^j
    (i, j < m, b in coeffring.additive_generators(S), r = 1 over Z_n), and is
    equivalent to the check on all pairs.  G is additive and tau-semilinear,
    G(a*x) = tau(a)*G(x), because tau is a ring automorphism and the
    remainder of right division by h is left S-linear:
    (a*p) mod_r h = a*(p mod_r h), as p = q*h + r gives a*p = (a*q)*h + a*r.
    The products of S_f and S_h are biadditive and left S-linear in the
    first slot, for the same reason.  So D(x, y) = G(x *_f y) - G(x) *_h G(y)
    is additive in y and tau-semilinear in x: D(a*x, y) = tau(a) * D(x, y).
    Writing x = sum a_i t^i and y as a sum of copies of the b * t^j gives
    D(x, y) = sum tau(a_i) * D(t^i, y), a sum of copies of the D(t^i, b t^j),
    so D vanishes everywhere exactly when it vanishes on those pairs.

    G itself (_witness_map) is read term by term: by additivity and
    tau-semilinearity, G(x) = sum_j tau(x_j) * G(t^j) for x = sum x_j t^j,
    and G(t^j) = N_j^(sigma^k)(alpha) * (t^(kj) mod_r h) is a scaled row of
    S_h's power table.  Everything runs on index lists, and both products
    come from mul_indices, S_f's and S_h's.  The first pair, (t^(m-1), t),
    needs no product of S_f: t^(m-1) *_f t = t^m mod_r f = -f_(<m) is row m
    of S_f's power table, which set-up holds for every delta, so
    G(t^m mod_r f) = sum_j tau(-f_j) * N_j^(sigma^k)(alpha) * (t^(kj) mod_r h)
    over the nonzero f_j, while G(t^(m-1)) = N_(m-1)^(sigma^k)(alpha) *
    (t^(k(m-1)) mod_r h) and G(t) = alpha * (t^k mod_r h) are single scaled
    rows; one product of S_h compares them.

    The pairs with i = 0 or y = 1 (b = 1, j = 0) always hold and are
    skipped, leaving (m - 1)(rm - 1) of them.  G(1) =
    N_0(alpha) * (t^0 mod_r h) = 1, the identity of S_h, and 1 is the
    identity of S_f, so D(1, y) = G(y) - 1 *_h G(y) = 0 and
    D(x, 1) = G(x) - G(x) *_h 1 = 0.

    The pairs run with i from m - 1 down to 1, so those whose product
    t^i * b t^j reaches degree m and is reduced by f come first; a bad
    witness usually fails there.  The order cannot change the verdict: the
    result is True exactly when D vanishes on every pair of the same fixed
    set, and the loop stops only at a pair where it does not.

    The first pair, (t^(m-1), t), alone decides when sigma^k = sigma and S_h
    is associative (B._associative, read only once that pair holds); S_f
    need not be associative.
    1. S_h associative means Rh is two-sided (probe_structure, step 5), so
       S_h = R/Rh is a ring.  In it, (alpha t^k) tau(a) =
       alpha sigma^k(tau(a)) t^k = tau(sigma(a)) (alpha t^k), as delta = 0,
       sigma^k = sigma, tau commutes with sigma and S is commutative.  So
       Phi(sum a_i t^i) = sum tau(a_i) (alpha t^k)^i is a ring map R -> S_h.
    2. Phi(t^j) = (alpha t^k)^j = N_j^(sigma^k)(alpha) (t^(kj) mod_r h) =
       G(t^j), and Phi, G are additive and tau-semilinear, so G = Phi
       on every x of degree < m.
    3. For such x, y write x*y = q_xy*f + x *_f y in R.  Then G(x *_f y) =
       Phi(x*y) - Phi(q_xy) Phi(f) = G(x) *_h G(y) - Phi(q_xy) Phi(f), so
       D(x, y) = -Phi(q_xy) Phi(f).
    4. f is monic, so t^(m-1) * t = t^m = 1*f + (t^m mod_r f): q = 1 and
       D(t^(m-1), t) = -Phi(f).  If that pair holds, Phi(f) = 0 and D
       vanishes on every pair.
    Otherwise the remaining pairs run, in the order above.  sigma^k = sigma
    is checked (k = 1 mod the order of sigma) because a caller may pass any
    k >= 1, not only 1 or a valid_isometry_degrees entry.

    The caller builds S_f and S_h, so one search shares them between all the
    witnesses of a pair (see _witness_map and codes.apply_isometry_to_code,
    which take built algebras the same way).
    """
    _require_classifiable(A.f, B.f)
    _require_witness_ring(A.ring, witness.tau, witness.alpha)
    m, k, one = A.m, witness.k, A.ring.one.val
    G = _witness_map(B, witness)
    # the first pair, x = t^(m-1), y = t (gens[0] below, as additive_generators
    # starts with 1): x *_f y = t^m mod_r f, row m of S_f's table
    if G(A._red[m]) != B.mul_indices(G([(m - 1, one)]), G([(1, one)])):
        return False
    n = A.twist.sigma.order
    if k % n == 1 % n and B._associative:
        return True
    gens = [y for y in A._generator_indices() if y != [one]]
    for i in range(m - 1, 0, -1):
        x, gx = [0] * i + [one], G([(i, one)])
        for y in gens[1:] if i == m - 1 else gens:
            if G(enumerate(A.mul_indices(x, y))) != B.mul_indices(gx, G(enumerate(y))):
                return False
    return True


# the ladder, strongest relation first; a witness's rung is (k == 1, tau is the identity)
_LADDER = {
    (True, True): Relation.CHEN_EQUIVALENT,
    (True, False): Relation.EQUIVALENT,
    (False, True): Relation.CHEN_ISOMETRIC,
    (False, False): Relation.ISOMETRIC,
}


def _first_witness(f: SkewPoly, h: SkewPoly, degrees, taus):
    """The first (relation, witness) of the ladder over degrees and taus, or None.

    The rungs run in _LADDER order, strongest first; within a rung the scan
    goes by degree, then tau, then unit alpha, each in the given order.
    k = 1 is decided by check_equivalence (its docstring proves that this is
    the multiplicativity test for m >= 2), and every k > 1 candidate by
    verify_witness_multiplicative alone, on S_f and S_h, which are built at
    the first such verification and shared by the rest of the pass.
    """
    units = f.twist.ring.units
    algebras = None
    for rung, relation in _LADDER.items():
        for k in degrees:
            for tau in taus:
                if (k == 1, tau.is_identity) != rung:
                    continue
                for alpha in units:
                    if k == 1:
                        if check_equivalence(f, h, tau, alpha):
                            return relation, IsometryWitness(tau, alpha)
                    else:
                        if algebras is None:
                            algebras = PetitAlgebra(f), PetitAlgebra(h)
                        w = IsometryWitness(tau, alpha, k)
                        if verify_witness_multiplicative(*algebras, w):
                            return relation, w
    return None


def classify_pair(
    f: SkewPoly, h: SkewPoly, chen_only: bool = False, k: int | None = None
) -> ClassificationResult:
    """Strongest relation between the classes of f and h, with a witness.

    The ladder runs ChenEquivalent (k = 1, tau = id), Equivalent (k = 1),
    ChenIsometric (k > 1, tau = id), Isometric (k > 1); a witness's rung is
    its (k == 1, tau is the identity).  One _first_witness pass finds the
    first rung with a witness, searched by degree, then tau, then alpha.
    chen_only keeps tau = id; k keeps that one degree, which must be 1 or a
    valid_isometry_degrees entry (InvalidK if not).  The rungs are disjoint:
    each (tau, alpha) is checked and each (tau, alpha, k) verified at most
    once, and S_f and S_h are built at most once.  NotRelated carries
    fast_reject's reason.
    """
    _require_classifiable(f, h)
    degrees = [1] + valid_isometry_degrees(int(f.degree), f.twist.sigma.order)
    if k is not None:
        if k not in degrees:
            raise InvalidK(f"k={k} violates the monomial-degree constraints")
        degrees = [k]
    taus = all_automorphisms(f.twist.ring)
    found = _first_witness(f, h, degrees, taus[:1] if chen_only else taus)
    if found is None:
        return ClassificationResult(Relation.NOT_RELATED, None, fast_reject(f, h))
    return ClassificationResult(*found)


def equivalence_class_of(h: SkewPoly, chen_only: bool = False):
    """All h_(tau, alpha), deduplicated and canonically ordered; h must be monic."""
    if not h.is_monic:
        raise NonMonic("equivalence classes are of monic polynomials")
    members, _ = _Orbits(h.twist, int(h.degree)).orbit(h.vals, chen_only)
    # all members have degree m, so index tuple order is sort_key order
    return [SkewPoly.from_indices(v, h.twist) for v in members]


class _Orbits:
    """The action of units x| Aut(S) on the monic h of degree m under twist:
    DeltaNotZero for delta != 0, else built once per (twist, m), each unit's
    _scales rows in unit order and the tau tables, the identity first.

    h_(tau, alpha) = t^m - sum N_(m-i)(sigma^i(tau(alpha))) * tau(b_i) t^i,
    with b_i = -h_i, has at t^i the coefficient
    N_(m-i)(sigma^i(tau(alpha))) * tau(h_i) = tau(N_(m-i)(sigma^i(alpha)) * h_i):
    tau is a ring automorphism that commutes with sigma (both are powers of
    the Frobenius, or the identity over Z_n).  So the Chen class C of h, the
    h_alpha over the units alpha, is the scaled coefficients
    scales[alpha][i][h_i], and the class is the union of the images tau(C).
    The units act by a group action, h -> h_alpha: norms are multiplicative
    in the commutative S, so (h_alpha)_beta = h_(alpha*beta).  And
    tau(h_alpha) = tau(h)_(tau(alpha)), where tau(alpha) runs over the units
    as alpha does, so tau(C) is the Chen class of tau(h).  Every member x of
    the class lies in some tau(C), which is then the Chen class of x: the
    subclasses are the distinct images, and two images, being orbits,
    coincide or are disjoint, so each is identified by its least member.
    Classes are orbits too, so two classes coincide or are disjoint.

    Equivalently, the class is the monic(H(h)) = N_m(gamma)^-1 H(h) over the
    maps H(sum x_j t^j) = sum tau(x_j) N_j(gamma) t^j, gamma a unit: at t^i,
    N_i(gamma) N_m(gamma)^-1 tau(h_i) = N_(m-i)(sigma^i(gamma^-1)) tau(h_i)
    (_scales) is the coefficient of h_(tau, alpha), alpha = tau^-1(gamma)^-1,
    and alpha runs over the units as gamma does.
    """

    def __init__(self, twist, m: int):
        if twist.has_delta:
            raise DeltaNotZero("classification predicates require delta = 0")
        ring = twist.ring
        self.scales = [_scales(twist, alpha.val, m) for alpha in ring.units]
        self.taus = [ring.frobenius_table(tau.frob_exp) for tau in all_automorphisms(ring)]

    def orbit(self, hv, chen_only: bool = False):
        """h's class (monic index tuple hv) as (members, Chen subclasses), all sorted,
        the subclasses by least member; chen_only keeps tau = id, the Chen class."""
        chen = {tuple([row[c] for row, c in zip(rows, hv)]) + hv[-1:] for rows in self.scales}
        subs = {}
        for tt in self.taus[:1] if chen_only else self.taus:
            sub = sorted(tuple([tt[c] for c in g]) for g in chen)
            subs.setdefault(sub[0], sub)
        subclasses = [subs[least] for least in sorted(subs)]
        return sorted(g for sub in subclasses for g in sub), subclasses


def count_constacyclic_classes(ctx: RingContext, sigma: Automorphism, m: int):
    """(nonassociative, associative) counts of Chen-equivalence classes of t^m - a, by cosets.

    Chen-equivalence is tau = id and k = 1: t^m - a ~ t^m - b exactly when
    a/b lies in the norm image N_m(S^x), so the classes are its cosets.  These
    are not Chen-isometry classes, which k > 1 witnesses can merge further.
    """
    if m < 1:
        raise InvalidConfig(f"class counts need degree m >= 1, got {m}")
    if sigma.ctx is not ctx:
        raise ContextMismatch("sigma acts on a different ring")
    image = {_norms(ctx, sigma.frob_exp, u.val, m)[m] for u in ctx.units}
    total = len(ctx.units) // len(image)
    if m % sigma.order != 0:
        return total, 0
    sig = ctx.frobenius_table(sigma.frob_exp)
    assoc = sum(sig[u.val] == u.val for u in ctx.units) // len(image)
    return total - assoc, assoc


def count_constacyclic_classes_formula(p: int, r: int, s: int, m: int):
    """Closed-form counts over GF(p^r) with sigma = x -> x^(p^s), s dividing r.

    Use s = r for the identity.  Returns (nonassociative, associative) counts
    as gcd([m]_s, p^r - 1) split by the [n]_s factor when n divides m.
    """
    if s < 1 or r % s != 0:
        raise ValueError("the closed formulas assume s divides r")
    n = r // s
    bracket_m = (p ** (s * m) - 1) // (p ** s - 1)
    w = gcd(bracket_m, p ** r - 1)
    if m % n != 0:
        return w, 0
    bracket_n = (p ** (s * n) - 1) // (p ** s - 1)
    assoc = w // bracket_n
    return w - assoc, assoc

