"""The derivation's formal derivative and its step table against references.

Derivation._formal_apply (the chain rule on MultiPoly) is compared with
leibniz_reference (tests/util.py), the Leibniz rule on exponent tuples and
Fractions, which runs no MultiPoly arithmetic.  apply, which reads the step
table, is compared with the MultiPoly derivative route reduced by
normal_form.  The orbit test reduces with the Fraction reference loop
instead, so that it shares no integer code at all with degree and iterate.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lndfilt.derivations import BudgetExceededError, Derivation, canonical_derivation
from lndfilt.polynomials import MultiPoly
from lndfilt.rings import QuotElem
from util import (
    RATIONAL_RINGS,
    derivative_route,
    fractions,
    leibniz_reference,
    mixed_small_rings,
    reference_normal_form,
    rings,
)


@st.composite
def derivation_and_poly(draw, max_exp=4):
    ring = draw(st.one_of(st.sampled_from(mixed_small_rings() + RATIONAL_RINGS), rings()))
    vs = ring.varset
    D = canonical_derivation(ring)
    if draw(st.booleans()):
        # x is in the kernel, so (1/3)*x*D is again a derivation; it sends S to
        # (1/3)*X^(n+e+1), so its images have a denominator > 1
        third_x = ring.element(MultiPoly.variable(vs, "X") * Fraction(1, 3))
        D = Derivation(ring, {nm: third_x * img for nm, img in D.images.items()})
    keys = st.tuples(*[st.integers(0, max_exp)] * len(vs))
    return D, MultiPoly(vs, draw(st.dictionaries(keys, fractions, max_size=6)))


@settings(max_examples=150, deadline=None)
@given(derivation_and_poly())
def test_formal_apply_equals_the_tuple_leibniz_rule(case):
    D, p = case
    assert D._formal_apply(p) == MultiPoly(p.varset, leibniz_reference(D, p.terms))
    a = D.ring.normal_form(p)
    assert D.apply(a) == D.ring.normal_form(derivative_route(D, a.rep))



def reference_orbit(D, p):
    """a = [p], D(a), D^2(a), ... up to and including 0, all over Fractions."""
    ring = D.ring

    def reduced(q):
        rep, _ = reference_normal_form(ring, q, "s_first")
        return QuotElem(ring, MultiPoly(ring.varset, rep), _trusted=True)

    orbit = [reduced(p)]
    while not orbit[-1].is_zero():
        orbit.append(reduced(derivative_route(D, orbit[-1].rep)))
    return orbit


@settings(max_examples=60, deadline=None)
@given(derivation_and_poly(max_exp=2))
def test_orbit_equals_repeated_apply(case):
    D, p = case
    orbit = reference_orbit(D, p)
    a = orbit[0]
    applied = [a]
    while not applied[-1].is_zero():
        applied.append(D.apply(applied[-1]))
    assert applied == orbit
    # D^(len - 1)(a) is the first zero, so deg_D(a) = len - 2 (None for a = 0)
    assert D.degree(a) == (len(orbit) - 2 if len(orbit) > 1 else None)
    for k in range(4):
        assert D.iterate(a, k) == orbit[min(k, len(orbit) - 1)]
    if len(orbit) > 2:
        # the largest bound that is too small: D^(bound+1)(a) is the last nonzero
        bound = len(orbit) - 3
        with pytest.raises(BudgetExceededError) as info:
            D.degree(a, bound)
        assert str(info.value) == (
            f"derivation budget {bound} exceeded on {a}; still nonzero: {orbit[bound + 1]}"
        )
