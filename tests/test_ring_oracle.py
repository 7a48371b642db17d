"""Ring tables against an independent oracle: sympy's galoistools and plain integers."""

from math import gcd

import pytest

from skewcodes.coeffring import make_field, make_residue_ring
from skewcodes.errors import EnumerationCapExceeded

gt = pytest.importorskip("sympy.polys.galoistools")
ZZ = pytest.importorskip("sympy.polys.domains").ZZ


def _dense(digits):
    """Little-endian digits as a galoistools polynomial (dense, highest degree first)."""
    return gt.gf_strip([ZZ(d) for d in reversed(digits)])


@pytest.mark.parametrize("p,r", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 8)])
def test_field_tables_match_galoistools(p, r):
    """Every sum, product and negative of GF(p^r), computed in F_p[x] / (modulus)."""
    K = make_field(p, r)
    modulus = _dense(K.modulus)
    dense = [_dense(e.to_json()) for e in K.elements]
    by_dense = {tuple(d): e for d, e in zip(dense, K.elements)}
    for a, da in zip(K.elements, dense):
        assert -a == by_dense[tuple(gt.gf_neg(da, p, ZZ))]
        for b, db in zip(K.elements, dense):
            assert a + b == by_dense[tuple(gt.gf_add(da, db, p, ZZ))]
            product = gt.gf_rem(gt.gf_mul(da, db, p, ZZ), modulus, p, ZZ)
            assert a * b == by_dense[tuple(product)]


@pytest.mark.parametrize("n", [4, 6, 9, 256])
def test_residue_tables_match_integers(n):
    Z = make_residue_ring(n)
    for a in Z.elements:
        x = a.to_json()
        assert (-a).to_json() == -x % n
        assert a.is_unit() == (gcd(x, n) == 1)
        for b in Z.elements:
            y = b.to_json()
            assert (a + b).to_json() == (x + y) % n
            assert (a * b).to_json() == x * y % n


def test_rings_above_256_elements_are_refused():
    with pytest.raises(EnumerationCapExceeded):
        make_residue_ring(257)
    with pytest.raises(EnumerationCapExceeded):
        make_field(2, 9)
