"""The polynomial printer against the reference printer in tests/util.py.

str(p) must equal reference_str(p) byte for byte, and read back to p, over the
varsets that the package prints in: one variable (coefficients of P and Q),
the base and cylinder rings, and the 12-variable recovery varset.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from lndfilt.polynomials import MultiPoly, VarSet, parse_poly
from util import reference_str

RECOVERY = ("X", "S", "Y", "Z", "T", "x", "t", "s", "y", "xz", "yz", "sz")
VARSETS = [VarSet(RECOVERY[:k]) for k in (1, 4, 5, 12)]

coefficients = st.one_of(
    st.sampled_from([1, -1, Fraction(1, 2), Fraction(-1, 3)]),
    st.integers(-(10**30), 10**30).filter(bool),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=60).filter(bool),
)


@st.composite
def polys(draw):
    vs = draw(st.sampled_from(VARSETS))
    exps = st.tuples(*[st.integers(0, 13)] * len(vs))
    return MultiPoly(vs, draw(st.dictionaries(exps, coefficients, max_size=8)))


@settings(max_examples=300, deadline=None)
@given(polys())
def test_str_matches_reference_and_reads_back(p):
    text = str(p)
    assert text == reference_str(p)
    assert parse_poly(text, p.varset) == p


def test_zero_constants_and_unit_coefficients():
    vs = VARSETS[2]
    cases = {
        "0": MultiPoly.zero(vs),
        "1": MultiPoly.constant(vs, 1),
        "-1": MultiPoly.constant(vs, -1),
        "-7/3": MultiPoly.constant(vs, Fraction(-7, 3)),
        # den 2: the X term's numerator equals den and prints no coefficient
        "-X + 1/2*Y": parse_poly("1/2*Y - X", vs),
        "-S^10 + X^2*T + 2/3": parse_poly("2/3 - S^10 + T*X^2", vs),
    }
    for want, p in cases.items():
        assert str(p) == want == reference_str(p)
        assert parse_poly(want, vs) == p


def test_coefficients_past_4300_digits():
    vs = VARSETS[1]
    big = 99**3000  # 5,987 digits
    for c in (big, -big, Fraction(big, 7), Fraction(-3, big + 2), Fraction(big + 1, big)):
        p = MultiPoly(vs, {(1, 0, 2, 0): c, (0, 0, 0, 0): Fraction(1, 5), (0, 1, 0, 0): 1})
        assert str(p) == reference_str(p)
    assert str(MultiPoly.constant(vs, big)) == reference_str(MultiPoly.constant(vs, big))


def test_huge_exponents_print_from_tables_of_the_printed_powers():
    # a table indexed by exponent value could not hold 2**70; the power
    # tables hold the printed powers only, so their size grows with the terms
    vs = VarSet(("X", "S", "Y"))
    top = 2**70
    p = MultiPoly(vs, {(top + k, k % 3, 1): k - 250 or 1 for k in range(500)})
    text = str(p)
    assert text == reference_str(p)
    assert f"X^{top + 499}*S*Y" in text
    sizes = [len(table) for table in vs.power_texts()]
    assert sizes == [2 + 500, 2 + 1, 2]
