"""The integer Leibniz pass of Derivation against the MultiPoly derivative route.

The reference (tests/util.py) differentiates with MultiPoly.derivative,
multiplies by each image with MultiPoly products, sums with MultiPoly
addition and reduces with normal_form, so it shares neither the integer
image table nor the Leibniz loop nor the hand-off to the rewrite loop.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from lndfilt.derivations import Derivation, canonical_derivation
from lndfilt.polynomials import MultiPoly
from util import RATIONAL_RINGS, derivative_route, fractions, mixed_small_rings, rings


@st.composite
def derivation_and_poly(draw):
    ring = draw(st.one_of(st.sampled_from(mixed_small_rings() + RATIONAL_RINGS), rings()))
    vs = ring.varset
    D = canonical_derivation(ring)
    if draw(st.booleans()):
        # x is in the kernel, so (1/3)*x*D is again a derivation; it sends S to
        # (1/3)*X^(n+e+1), so its image table has den_D > 1
        third_x = ring.element(MultiPoly.variable(vs, "X") * Fraction(1, 3))
        D = Derivation(ring, {nm: third_x * img for nm, img in D.images.items()})
    keys = st.tuples(*[st.integers(0, 4)] * len(vs))
    return D, MultiPoly(vs, draw(st.dictionaries(keys, fractions, max_size=6)))


@settings(max_examples=150, deadline=None)
@given(derivation_and_poly())
def test_leibniz_pass_equals_the_derivative_route(case):
    D, p = case
    want = derivative_route(D, p)
    assert D._formal_apply(p) == want
    a = D.ring.normal_form(p)
    assert D.apply(a) == D.ring.normal_form(derivative_route(D, a.rep))

