"""Seeded inputs of the three workloads, as plain data.

A ring spec is ("field", p, r, modulus) or ("residue", n); a polynomial is a
little-endian list of reference ints (see ``reference``), monic.  The same
seed gives the same inputs.  Each workload draws the same number of inputs
from the same strata on every seed, so that the work of a round barely
depends on the seed (see README.md).
"""

from __future__ import annotations

import random

from checks import ring_of, twist_of
from reference import irreducible_moduli, orbit, strongest_relation


def field(rng, p, r):
    """GF(p^r) with a modulus drawn from all monic irreducibles of degree r."""
    return ("field", p, r, rng.choice(irreducible_moduli(p, r)))


def constacyclic(R, m, d):
    """t^m - d."""
    return [R.neg[d]] + [0] * (m - 1) + [1]


def catalogue_inputs(rng):
    """Four catalogue configs; the seed draws the GF(9) moduli and the order."""
    configs = [
        {"ring": field(rng, 3, 2), "sigma": 1, "m": 3, "constacyclic": False},
        {"ring": ("residue", 4), "sigma": 0, "m": 4, "constacyclic": False},
        {"ring": field(rng, 3, 2), "sigma": 1, "m": 4, "constacyclic": True},
        {"ring": field(rng, 2, 2), "sigma": 1, "m": 7, "constacyclic": True},
    ]
    rng.shuffle(configs)
    return configs


# GF(2), sigma = id, m = 5: (reference relation, least witness degree) -> pairs
GF2_M5_QUOTAS = {
    ("ChenIsometric", 2): 6,
    ("ChenIsometric", 3): 5,
    ("ChenIsometric", 4): 5,
    ("NotRelated", None): 30,
}

# GF(4), sigma = Frobenius, m = 7: the algebras have 4^7 elements, above the
# exhaustive-verification cap of classify, so classify_pair fails on these
# non-equivalent pairs.  They do not depend on the seed.
FAILING_PAIRS = [
    ([1, 0, 1, 0, 0, 0, 0, 1], [2, 1, 0, 0, 1, 0, 0, 1]),
    ([1, 1, 0, 0, 0, 0, 0, 1], [2, 0, 0, 1, 0, 0, 0, 1]),
]


def _random_monic(rng, R, m, full_support=False):
    lo = 1 if full_support else 0
    return [rng.randrange(lo, R.size) for _ in range(m)] + [1]


def classify_inputs(rng):
    """Pairs for classify_pair, stratified by the reference verdict."""
    pairs = []
    gf2 = ("field", 2, 1, (0, 1))
    R2, tw2 = ring_of(gf2), twist_of(gf2, 0)
    need = dict(GF2_M5_QUOTAS)
    while any(need.values()):
        f, h = _random_monic(rng, R2, 5), _random_monic(rng, R2, 5)
        key = strongest_relation(tw2, f, h)
        if need.get(key):
            need[key] -= 1
            pairs.append({"ring": gf2, "sigma": 0, "f": f, "h": h, "stratum": "GF(2) m=5 %s k=%s" % key})
    gf4 = ("field", 2, 2, (1, 1, 1))
    R4, tw4 = ring_of(gf4), twist_of(gf4, 1)
    # non-constacyclic GF(4), m = 4 pairs with every trailing coefficient
    # nonzero: the isometry search runs to its end (about 1.8 s each)
    found = 0
    while found < 2:
        f, h = _random_monic(rng, R4, 4, True), _random_monic(rng, R4, 4, True)
        if strongest_relation(tw4, f, h)[0] == "NotRelated":
            found += 1
            pairs.append({"ring": gf4, "sigma": 1, "f": f, "h": h, "stratum": "GF(4) m=4 NotRelated"})
    # Frobenius-conjugate GF(4), m = 4 pairs and constacyclic GF(9), m = 3
    # pairs, which resolve at k = 1 or have no admissible k > 1
    for _ in range(4):
        f = _random_monic(rng, R4, 4)
        h = list(rng.choice(sorted(orbit(tw4, f))))
        pairs.append({"ring": gf4, "sigma": 1, "f": f, "h": h, "stratum": "GF(4) m=4 conjugate"})
    gf9 = field(rng, 3, 2)
    R9 = ring_of(gf9)
    for _ in range(4):
        f, h = (constacyclic(R9, 3, rng.choice(R9.units)) for _ in range(2))
        pairs.append({"ring": gf9, "sigma": 1, "f": f, "h": h, "stratum": "GF(9) m=3 constacyclic"})
    for f, h in FAILING_PAIRS:
        pairs.append({"ring": gf4, "sigma": 1, "f": f, "h": h, "stratum": "GF(4) m=7 too large"})
    rng.shuffle(pairs)
    return pairs


def structure_inputs(rng):
    """Algebras for probe_structure: nonassociative, associative, and delta != 0."""
    gf4 = ("field", 2, 2, (1, 1, 1))
    gf9 = field(rng, 3, 2)
    R4, R9, R6 = ring_of(gf4), ring_of(gf9), ring_of(("residue", 6))
    tw9 = twist_of(gf9, 1)
    moving9 = [d for d in R9.units if tw9.sig[d] != d]
    fixed9 = [d for d in R9.units if tw9.sig[d] == d]
    moving4 = [2, 3]  # w and w^2 = w + 1; F_2 is the fixed field
    algebras = [
        {"ring": gf9, "sigma": 1, "beta": None, "f": constacyclic(R9, 3, rng.choice(moving9))},
        {"ring": gf4, "sigma": 1, "beta": None, "f": constacyclic(R4, 4, rng.choice(moving4))},
        {"ring": gf4, "sigma": 1, "beta": None, "f": constacyclic(R4, 3, rng.choice(moving4))},
        {"ring": gf9, "sigma": 1, "beta": None, "f": constacyclic(R9, 2, rng.choice(fixed9))},
        {"ring": gf4, "sigma": 1, "beta": None, "f": constacyclic(R4, 2, 1)},
        {"ring": ("residue", 6), "sigma": 0, "beta": None, "f": constacyclic(R6, 3, rng.choice(R6.units))},
        {"ring": gf4, "sigma": 1, "beta": rng.choice(R4.units), "f": constacyclic(R4, 3, rng.choice(moving4))},
    ]
    rng.shuffle(algebras)
    return algebras


GENERATORS = {
    "catalogue": catalogue_inputs,
    "classify": classify_inputs,
    "structure": structure_inputs,
}


def make_inputs(workload: str, seed: int):
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))
