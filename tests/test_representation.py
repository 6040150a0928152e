"""MultiPoly's integer representation: numerators over one denominator, in lowest terms.

Every operation is checked against a reference on exponent tuples and
Fractions that never reads nums or den: the schoolbook product of
tests/test_kernel.py, the schoolbook substitution of tests/util.py, and the
plain loops below.  After each operation the result must hold the invariant
(den > 0, no zero numerator, gcd(den, *nums) == 1), and its Fraction view
must equal the reference's term map.  The last tests count Fraction
constructions on the hot paths, which run on ints only.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from lndfilt.derivations import canonical_derivation
from lndfilt.polynomials import MultiPoly, VarSet, parse_poly, substitute_all
from lndfilt.rings import RingPresentation, evaluate_in_ring, toy_ring
from test_kernel import schoolbook
from util import DANIELEWSKI_RINGS, RATIONAL_RINGS, schoolbook_substitute

XSY = VarSet(("X", "S", "Y"))
WIDE = VarSet(("A", "X", "B", "S", "Y"))
coefficients = st.fractions(min_value=-12, max_value=12, max_denominator=12)
terms = st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), coefficients, max_size=6)
scalars = st.one_of(st.integers(-6, 6), coefficients)


def check(p: MultiPoly, want: dict) -> MultiPoly:
    """p holds the invariant and shows exactly the reference terms want."""
    assert type(p.den) is int and p.den > 0
    assert all(type(n) is int and n for n in p.nums.values())
    assert gcd(p.den, *p.nums.values()) == 1
    want = {e: Fraction(c) for e, c in want.items() if c}
    assert p.terms == want
    assert all(type(c) is Fraction for c in p.terms.values())
    return p


def nonzero(terms: dict) -> dict:
    """The reference term map of the drawn terms: the nonzero ones, as Fractions."""
    return {e: Fraction(c) for e, c in terms.items() if c}


def added(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


@settings(max_examples=200, deadline=None)
@given(terms, terms, scalars)
def test_ring_operations_keep_lowest_terms(ta, tb, c):
    a, b = MultiPoly(XSY, ta), MultiPoly(XSY, tb)
    ra, rb = nonzero(ta), nonzero(tb)
    check(a, ra)
    check(a + b, added(ra, rb))
    check(a - b, added(ra, {e: -v for e, v in rb.items()}))
    check(-a, {e: -v for e, v in ra.items()})
    check(a * c, {e: v * c for e, v in ra.items()})
    check(c * a, {e: v * c for e, v in ra.items()})
    check(a + c, added(ra, {(0, 0, 0): c}))
    got = check(a * b, schoolbook(a, b))
    # the product keeps the schoolbook loop's term order
    assert list(got.nums) == list(schoolbook(a, b))


@settings(max_examples=60, deadline=None)
@given(terms, st.integers(0, 4))
def test_powers_keep_lowest_terms(ta, k):
    a = MultiPoly(XSY, ta)
    want = {(0, 0, 0): Fraction(1)}
    for _ in range(k):
        want = schoolbook(MultiPoly(XSY, want), a)
    check(a**k, want)


@settings(max_examples=150, deadline=None)
@given(terms, st.sampled_from(XSY.names), st.tuples(*[st.integers(0, 2)] * 3), coefficients.filter(bool))
def test_calculus_keeps_lowest_terms(ta, name, dexps, dc):
    a, ra = MultiPoly(XSY, ta), nonzero(ta)
    k = XSY.index(name)
    check(
        a.derivative(name),
        {tuple(x - (j == k) for j, x in enumerate(e)): v * e[k] for e, v in ra.items() if e[k]},
    )
    renamed = {}
    for e, v in ra.items():
        renamed[(0, e[0], 0, e[1], e[2])] = v
    check(a.rename(WIDE), renamed)
    divisor = MultiPoly.monomial(XSY, dexps, dc)
    if all(all(x >= y for x, y in zip(e, dexps)) for e in ra):
        check(a.divide_exact(divisor), {tuple(x - y for x, y in zip(e, dexps)): v / dc for e, v in ra.items()})
    else:
        with pytest.raises(ValueError, match="non-exact division"):
            a.divide_exact(divisor)


# a toy, a danielewski and a cylinder ring, each with its weights written out
SLICE_RINGS = [
    (toy_ring(), (0, 1, 2, 4)),
    (DANIELEWSKI_RINGS[0], (0, 1, 2)),
    (RATIONAL_RINGS[2], (0, 1, 3, 6, 0)),
]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SLICE_RINGS), st.data())
def test_top_slices_keep_lowest_terms(ring_weights, data):
    ring, weights = ring_weights
    ta = data.draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * len(weights)), coefficients, max_size=6))
    a, ra = MultiPoly(ring.varset, ta), nonzero(ta)
    top, part = ring.top_slice(a)
    if not ra:
        assert top is None
        check(part, {})
        return
    degree = {e: sum(w * x for w, x in zip(weights, e)) for e in ra}
    assert top == max(degree.values())
    check(part, {e: v for e, v in ra.items() if degree[e] == top})


def test_top_slice_of_zero():
    for ring, _ in SLICE_RINGS:
        top, part = ring.top_slice(MultiPoly.zero(ring.varset))
        assert top is None
        check(part, {})


monomials = st.builds(
    lambda e, c: MultiPoly.monomial(XSY, e, c), st.tuples(*[st.integers(0, 2)] * 3), coefficients
)


@settings(max_examples=100, deadline=None)
@given(terms, st.lists(st.one_of(terms.map(lambda t: MultiPoly(XSY, t)), monomials), min_size=3, max_size=3))
def test_substitution_keeps_lowest_terms(tp, values):
    p = MultiPoly(XSY, tp)
    images = dict(zip(XSY.names, values))
    check(p.substitute(images), schoolbook_substitute(p, images, XSY))
    # at ring elements the sum goes to the rewrite loop as integers
    ring = RATIONAL_RINGS[0]
    env = {nm: ring.normal_form(v) for nm, v in images.items()}
    reps = {nm: v.rep for nm, v in env.items()}
    want = ring.normal_form(MultiPoly(XSY, schoolbook_substitute(p, reps, XSY))).rep
    check(evaluate_in_ring(p, env).rep, dict(want.terms.items()))


@settings(max_examples=100, deadline=None)
@given(terms)
def test_printing_and_parsing_round_trip(ta):
    a = MultiPoly(XSY, ta)
    back = parse_poly(str(a), XSY)
    check(back, nonzero(ta))
    assert back == a and hash(back) == hash(a)


def test_equal_polynomials_hash_equal():
    e = (1, 0, 2)
    half = MultiPoly(XSY, {e: Fraction(2, 4)})
    assert half == MultiPoly(XSY, {e: Fraction(1, 2)}) and hash(half) == hash(MultiPoly(XSY, {e: Fraction(1, 2)}))
    # the same polynomial reached through different denominators
    a = parse_poly("1/6*X + 1/3*S", XSY)
    b = parse_poly("1/2*X + S", XSY) * Fraction(1, 3)
    c = parse_poly("1/3*X + 2/3*S", XSY) + parse_poly("-1/6*X - 1/3*S", XSY)
    assert a == b == c and len({hash(a), hash(b), hash(c)}) == 1
    assert (a.nums, a.den) == (b.nums, b.den) == (c.nums, c.den) == ({(1, 0, 0): 1, (0, 1, 0): 2}, 6)
    # sums that cancel to an integer polynomial, or to zero, drop the denominator
    assert (a - a).den == 1 and (a - a).nums == {}
    assert (a * 6).den == 1 and (a * 6).nums == {(1, 0, 0): 1, (0, 1, 0): 2}
    assert hash(a - a) == hash(MultiPoly.zero(XSY))


# ------------------------------------------------------------ Fraction guard


@pytest.fixture
def fraction_count(monkeypatch):
    """Count every Fraction built from here on, through __new__ or the coprime fast path."""
    counts = {"built": 0}
    real_new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        counts["built"] += 1
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
    if hasattr(Fraction, "_from_coprime_ints"):
        real_coprime = Fraction._from_coprime_ints.__func__

        def counted_coprime(cls, *args):
            counts["built"] += 1
            return real_coprime(cls, *args)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counted_coprime))
    return counts


INTEGER_RING = RingPresentation.full(3, 1, ["1 + X^3", "0"], ["2*X", "0", "0"])
INPUTS = {
    (False, False): ("S^5*Y^4 + X^3*S*Y^2 - 3*S^3 + 7", "2*X*S - Y + 1"),
    (False, True): ("S^5*Y^4 + X^3*S*Y^2 - 3/4*S^3 + 7/5", "2/3*X*S - Y + 1/2"),
    (True, False): ("S^5*Y^4 + X^3*Z^2*S - 3*S*Y*Z + Y^3*Z + 1", "2*X*S - Z + 1"),
    (True, True): ("S^5*Y^4 + 1/2*X^3*Z^2*S - 3/4*S*Y*Z + Y^3*Z + 1/7", "2/3*X*S - Z + 1/2"),
}


@pytest.mark.parametrize("ring", [INTEGER_RING, *RATIONAL_RINGS], ids=["integer", "danielewski-q", "full-q", "cylinder-q"])
@pytest.mark.parametrize("rational", [False, True], ids=["int-input", "q-input"])
def test_hot_paths_build_no_fraction(ring, rational, fraction_count):
    vs = ring.varset
    p, q = (parse_poly(text, vs) for text in INPUTS["Z" in vs, rational])
    D = canonical_derivation(ring)
    a = ring.normal_form(p)
    env = {nm: ring.element(f"{nm} + 1/2" if rational else f"{nm} + 1") for nm in vs.names}
    # the rule tails are built once per ring, on first use: not a hot path
    ring.normal_form(p, "y_first")
    before = fraction_count["built"]
    for strategy in ("s_first", "y_first"):
        ring.normal_form(p, strategy)
        ring.normal_form(p, strategy, with_cofactors=True)
    assert D.degree(a) is not None
    D.iterate(a, 3)
    evaluate_in_ring(p, env)
    substitute_all([p, q], env)
    p * q
    q * q
    assert fraction_count["built"] == before
    # the counter is live: reading the terms of a one-term polynomial builds one
    MultiPoly.constant(vs, 3).terms[(0,) * len(vs)]
    assert fraction_count["built"] == before + 1
