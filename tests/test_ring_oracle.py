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


# default moduli (ids p-r), the three monic irreducible quadratics over F_3,
# and x^4+x^3+x^2+x+1 over F_2, irreducible but not primitive (x has order 5);
# an explicit modulus's id ends in its little-endian coefficients
FIELDS = [
    *(pytest.param(p, r, None, id=f"{p}-{r}")
      for p, r in [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 8)]),
    *(pytest.param(p, r, modulus, id=f"{p}-{r}-{''.join(map(str, modulus))}")
      for p, r, modulus in [(3, 2, (1, 0, 1)), (3, 2, (2, 1, 1)), (3, 2, (2, 2, 1)),
                            (2, 4, (1, 1, 1, 1, 1))]),
]


@pytest.mark.parametrize("p,r,modulus", FIELDS)
def test_field_tables_match_galoistools(p, r, modulus):
    """Every sum, product, negative and Frobenius power of GF(p^r), in F_p[x] / (modulus)."""
    K = make_field(p, r, modulus=modulus)
    if modulus is not None:
        assert K.modulus == modulus
    modulus = _dense(K.modulus)
    dense = [_dense(e.to_json()) for e in K.elements]
    by_dense = {tuple(d): e for d, e in zip(dense, K.elements)}
    for a, da in zip(K.elements, dense):
        assert -a == by_dense[tuple(gt.gf_neg(da, p, ZZ))]
        for b, db in zip(K.elements, dense):
            assert a + b == by_dense[tuple(gt.gf_add(da, db, p, ZZ))]
            product = gt.gf_rem(gt.gf_mul(da, db, p, ZZ), modulus, p, ZZ)
            assert a * b == by_dense[tuple(product)]
    for e in range(r):
        table = K.frobenius_table(e)
        for a, da in zip(K.elements, dense):
            image = gt.gf_pow_mod(da, p ** e, modulus, p, ZZ)
            assert K.elements[table[a.val]] == by_dense[tuple(image)]


def test_non_primitive_modulus_has_x_of_order_5():
    """x^4+x^3+x^2+x+1 divides x^5 - 1, so in its field x is a unit of order 5, not 15."""
    K = make_field(2, 4, modulus=(1, 1, 1, 1, 1))
    x = K.from_json([0, 1])
    assert [k for k in range(1, 16) if x ** k == K.one] == [5, 10, 15]


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
