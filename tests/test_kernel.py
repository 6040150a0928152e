"""The integer product kernel against a schoolbook Fraction reference."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from lndfilt.polynomials import MultiPoly, VarSet

# the mixed varset of the twist-step recovery program
RECOVERY = VarSet(("X", "S", "Y", "Z", "T", "x", "t", "s", "y", "xz", "yz", "sz"))
VARSETS = [VarSet(("X",)), VarSet(("X", "S", "Y")), VarSet(("X", "S", "Y", "Z", "T")), RECOVERY]


def schoolbook(a: MultiPoly, b: MultiPoly) -> dict:
    """The product's term map by the plain double loop over Fractions."""
    acc: dict = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            s = acc.get(key, 0) + c1 * c2
            if s:
                acc[key] = s
            else:
                acc.pop(key, None)
    return acc


def check_product(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    got = a * b
    want = schoolbook(a, b)
    assert got.terms == want
    # same values in the same order: printing, hashing and JSON see no change
    assert list(got.terms) == list(want)
    assert all(type(c) is Fraction for c in got.terms.values())
    return got


coefficients = st.fractions(min_value=-20, max_value=20, max_denominator=12).filter(bool)
# small exponents collide often (so terms cancel); the others put exponent
# sums at and next to powers of two, where the packed field width steps up
edge_exponents = st.sampled_from([0, 1, 2, 3, 127, 128, 129, 255, 256, 511, 512, 2**20, 2**64])


@st.composite
def poly_pairs(draw):
    vs = draw(st.sampled_from(VARSETS))

    def poly(max_terms: int) -> MultiPoly:
        exps = st.integers(0, 3) if draw(st.booleans()) else edge_exponents
        keys = st.tuples(*[exps] * len(vs))
        return MultiPoly(vs, draw(st.dictionaries(keys, coefficients, max_size=max_terms)))

    return poly(draw(st.sampled_from([1, 2, 8]))), poly(8)


@settings(max_examples=300, deadline=None)
@given(poly_pairs())
def test_product_matches_schoolbook(pair):
    a, b = pair
    check_product(a, b)
    check_product(b, a)


def test_products_that_cancel():
    vs = VarSet(("X", "Y"))
    x, y = MultiPoly.variable(vs, "X"), MultiPoly.variable(vs, "Y")
    # every middle term cancels: (1 + X + X^2)(1 - X) = 1 - X^3
    got = check_product(1 + x + x * x, 1 - x)
    assert got == 1 - x ** 3
    # X^2 cancels (1*X^2 - X*X) and reappears (X^2*1), so it moves to the end
    a = MultiPoly(vs, {(0, 0): 1, (1, 0): 1, (2, 0): 1})
    b = MultiPoly(vs, {(2, 0): 1, (1, 0): -1, (0, 0): 1})
    got = check_product(a, b)
    assert list(got.terms) == [(0, 0), (4, 0), (2, 0)]
    a = x + y + Fraction(1, 3) * x * y
    b = x - y + 3 * x * y
    check_product(a, b)
    check_product(x - y, x * y - y * y + x * x)


def test_width_edge_at_powers_of_two():
    vs = VarSet(("X", "S", "Y"))
    for top in (8, 256, 512, 2**16, 2**64):
        for split in (1, top // 2, top - 1):
            a = MultiPoly(vs, {(split, 0, 1): 1, (0, split, 0): Fraction(-1, 2)})
            b = MultiPoly(vs, {(top - split, 1, 0): 3, (1, top - split, top - 1): Fraction(2, 7)})
            got = check_product(a, b)
            assert max(max(e) for e in got.terms) == top


def test_one_term_operands_and_zero():
    vs = RECOVERY
    p = MultiPoly(vs, {(1,) * 12: Fraction(5, 3), (0,) * 11 + (4,): -2, (2,) + (0,) * 11: 1})
    for c in (Fraction(1), Fraction(-1), Fraction(7, 4)):
        for exps in ((0,) * 12, (3,) + (0,) * 10 + (1,)):
            mono = MultiPoly.monomial(vs, exps, c)
            check_product(mono, p)
            check_product(p, mono)
            check_product(mono, mono)
    zero = MultiPoly.zero(vs)
    assert check_product(zero, p).is_zero()
    assert check_product(p, zero).is_zero()
    assert all(type(c) is Fraction for c in (p * 3).terms.values())
    assert (p * 0).is_zero()
    assert (p * Fraction(3, 5)).terms == {e: c * Fraction(3, 5) for e, c in p.terms.items()}
