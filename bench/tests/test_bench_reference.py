"""The reference arithmetic against field axioms and sympy's galoistools."""

import itertools
import random

import pytest
from reference import Ring, Twist, irreducible_moduli, trim
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p, gf_mul, gf_rem

FIELDS = [(2, 2), (2, 3), (3, 2), (5, 2)]


@pytest.mark.parametrize("p,r", FIELDS)
def test_moduli_are_the_irreducibles_of_galoistools(p, r):
    ours = set(irreducible_moduli(p, r))
    theirs = {
        tuple(list(tail) + [1])
        for tail in itertools.product(range(p), repeat=r)
        if gf_irreducible_p([1] + list(reversed(tail)), p, ZZ)
    }
    assert ours == theirs and ours


@pytest.mark.parametrize("p,r", FIELDS)
def test_field_axioms(p, r):
    for modulus in irreducible_moduli(p, r):
        R = Ring(p=p, r=r, modulus=modulus)
        q = R.size
        els = range(q)
        assert len(R.units) == q - 1
        for a in els:
            assert R.add[a][0] == a and R.mul[a][1] == a and R.add[a][R.neg[a]] == 0
            if a:
                assert R.mul[a][R.inv[a]] == 1
        for a, b in itertools.product(els, repeat=2):
            assert R.add[a][b] == R.add[b][a] and R.mul[a][b] == R.mul[b][a]
        rng = random.Random(p * 100 + r)
        for _ in range(300):
            a, b, c = (rng.randrange(q) for _ in range(3))
            assert R.mul[R.mul[a][b]][c] == R.mul[a][R.mul[b][c]]
            assert R.add[R.add[a][b]][c] == R.add[a][R.add[b][c]]
            assert R.mul[a][R.add[b][c]] == R.add[R.mul[a][b]][R.mul[a][c]]
        frob = R.frobenius(1)
        for a, b in itertools.product(els, repeat=2):
            assert frob[R.mul[a][b]] == R.mul[frob[a]][frob[b]]
            assert frob[R.add[a][b]] == R.add[frob[a]][frob[b]]
        assert sorted(frob) == list(els)


@pytest.mark.parametrize("p,r", FIELDS)
def test_field_product_agrees_with_galoistools(p, r):
    modulus = irreducible_moduli(p, r)[-1]
    R = Ring(p=p, r=r, modulus=modulus)
    big_endian_mod = list(reversed(modulus))
    for a, b in itertools.product(range(R.size), repeat=2):
        da, db = R.digits(a), R.digits(b)
        prod = gf_rem(gf_mul(list(reversed(da)), list(reversed(db)), p, ZZ), big_endian_mod, p, ZZ)
        assert R.digits(R.mul[a][b]) == (list(reversed(prod)) + [0] * r)[:r]


def test_residue_ring():
    R = Ring(n=6)
    assert R.units == [1, 5]
    assert all(R.mul[a][b] == a * b % 6 and R.add[a][b] == (a + b) % 6
               for a in range(6) for b in range(6))


@pytest.mark.parametrize("beta", [None, 2])
def test_right_division_recovers_the_remainder(beta):
    """rem(q f + r, f) = r whenever deg r < deg f: division by monic f is unique."""
    R = Ring(p=2, r=2, modulus=(1, 1, 1))
    tw = Twist(R, 1, beta)
    rng = random.Random(7)
    for _ in range(300):
        f = [rng.randrange(4) for _ in range(rng.randrange(1, 4))] + [1]
        q = trim([rng.randrange(4) for _ in range(rng.randrange(0, 5))])
        r = trim([rng.randrange(4) for _ in range(len(f) - 1)])
        assert tw.rem(tw.add(tw.mul(q, f), r), f) == r


def test_commutation_rule_with_delta():
    """t a = sigma(a) t + delta(a), delta(a) = beta (sigma(a) - a)."""
    R = Ring(p=2, r=2, modulus=(1, 1, 1))
    tw = Twist(R, 1, 2)
    for a in range(4):
        sig = tw.sig[a]
        delta = R.mul[2][R.add[sig][R.neg[a]]]
        assert tw.mul([0, 1], [a]) == trim([delta, sig])
