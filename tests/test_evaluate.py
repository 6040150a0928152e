"""substitute_all as the one evaluation routine, at quotient-ring images and
at packed polynomial images.

At ring images evaluate_in_ring substitutes the values' representatives on
the packed kernel and hands the integer sum to the rewrite loop once.  The
reference does what that says by other means: it substitutes the
representatives with MultiPoly arithmetic, raising every image afresh in each
term (tests/util.py), and reduces once with normal_form.  It shares the
product kernel's double loop and the rewrite loop (each tested against its
own Fraction reference elsewhere) with evaluate_in_ring, but no power table,
grouping, summation or hand-over of an integer sum.  Values of several terms
at exponents past the rule heads, where the unreduced sums swell most, have
a test of their own.  At polynomial images the reference is
a plain tuple and Fraction loop (schoolbook_substitute), which shares no code
with the packed kernel.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lndfilt import polynomials
from lndfilt.cylinders import FullStep, PolyEndo, solve_step
from lndfilt.polynomials import MultiPoly, VarSet, parse_poly, substitute_all
from lndfilt.rings import QuotElem, RingPresentation, evaluate_in_ring
from util import RATIONAL_RINGS, fractions, fresh_power_substitute, rings, schoolbook_substitute


@st.composite
def ring_poly_env(draw):
    ring = draw(st.one_of(st.sampled_from(RATIONAL_RINGS), rings()))
    vs = ring.varset
    keys = st.tuples(*[st.integers(0, 2)] * len(vs))
    p = MultiPoly(vs, draw(st.dictionaries(keys, fractions, max_size=4)))
    small = st.tuples(*[st.integers(0, 1)] * len(vs))
    env = {
        nm: ring.normal_form(MultiPoly(vs, draw(st.dictionaries(small, fractions, max_size=2))))
        for nm in vs.names
    }
    return ring, p, env


@settings(max_examples=80, deadline=None)
@given(ring_poly_env())
def test_evaluate_in_ring_equals_one_reduction_of_the_substitution(case):
    ring, p, env = case
    want = ring.normal_form(fresh_power_substitute(p, {nm: v.rep for nm, v in env.items()}))
    got = evaluate_in_ring(p, env)
    assert got.ring == ring
    assert got == want


@st.composite
def single_term_ring_env(draw):
    """Values that are single canonical terms carrying S or Y, mixed with
    table values, and a polynomial whose S and Y exponents pass d and m."""
    ring = draw(st.one_of(st.sampled_from(RATIONAL_RINGS), rings()))
    vs = ring.varset
    keys = st.tuples(*[st.integers(0, 4)] * len(vs))
    p = MultiPoly(vs, draw(st.dictionaries(keys, fractions, max_size=4)))
    small = st.tuples(*[st.integers(0, 1)] * len(vs))
    nonzero = st.one_of(st.sampled_from([1, -1]), fractions.filter(bool))
    y_cap = ring.m - 1 if ring.family == "full" else 2
    env = {}
    for nm in vs.names:
        if draw(st.booleans()):
            exps = [draw(st.integers(0, 1)) for _ in vs.names]
            exps[1] = draw(st.integers(0, ring.d - 1))
            exps[2] = draw(st.integers(0 if exps[1] else 1, y_cap))
            value = ring.normal_form(MultiPoly.monomial(vs, exps, draw(nonzero)))
            assert len(value.rep.terms) == 1
        else:
            value = ring.normal_form(MultiPoly(vs, draw(st.dictionaries(small, fractions, max_size=2))))
        env[nm] = value
    return ring, p, env


@settings(max_examples=80, deadline=None)
@given(single_term_ring_env())
def test_single_term_values_are_reduced_once_at_the_end(case):
    ring, p, env = case
    want = ring.normal_form(fresh_power_substitute(p, {nm: v.rep for nm, v in env.items()}))
    got = evaluate_in_ring(p, env)
    assert got.ring == ring
    assert got == want


@st.composite
def swelling_ring_env(draw):
    """Canonical values of two or three terms each, and polynomials whose S
    and Y exponents pass d and m (up to 2d and 2m + 1), so that the sums
    reach the rewrite far from canonical."""
    ring = draw(st.one_of(st.sampled_from(RATIONAL_RINGS), rings()))
    vs = ring.varset
    d = ring.d
    y_top = 2 * ring.m + 1 if ring.family == "full" else 3
    y_low = ring.m - 1 if ring.family == "full" else 1
    nonzero = fractions.filter(bool)
    low = st.integers(0, 1)
    canonical = st.tuples(low, st.integers(0, d - 1), st.integers(0, y_low), *[low] * (len(vs) - 3))
    env = {nm: ring.element(MultiPoly(vs, draw(st.dictionaries(canonical, nonzero, min_size=2, max_size=3)))) for nm in vs.names}
    # one high exponent per term, or two moderate ones, keeps each example
    # within about a second
    keys = st.tuples(low, st.integers(0, 2 * d), st.integers(0, y_top), *[low] * (len(vs) - 3))
    keys = keys.filter(lambda exps: sum(exps) <= 2 * d + 2)
    polys = [MultiPoly(vs, draw(st.dictionaries(keys, fractions, max_size=3))) for _ in range(draw(st.integers(1, 2)))]
    return ring, polys, env


@settings(max_examples=30, deadline=None)
@given(swelling_ring_env())
def test_multi_term_values_past_the_rule_heads(case):
    ring, polys, env = case
    assert all(len(v.rep.terms) > 1 for v in env.values())
    reps = {nm: v.rep for nm, v in env.items()}
    got = substitute_all(polys, env)
    for p, value in zip(polys, got):
        assert value.ring == ring
        assert value == ring.normal_form(fresh_power_substitute(p, reps))


SOURCE = VarSet(("X", "S", "Y", "Z"))
# the polynomials' own varset, a smaller one, and the twist solver's recovery varset
TARGETS = [
    SOURCE,
    VarSet(("t", "u", "v")),
    VarSet(("X", "S", "Y", "Z", "T", "x", "t", "s", "y", "xz", "yz", "sz")),
]
# denominators up to 12, so that images and terms carry different ones
mixed_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=12)


@st.composite
def packed_substitutions(draw):
    """Polynomials over SOURCE and images over a target varset, run packed.

    X's image is t + c, with t the target's first variable, and no other
    image uses t; the polynomials' largest X exponent is 2^k, so the bound
    on t lands exactly on a power of two.  One of S, Y, Z may be unused,
    with a large image; the other two may share an image, and the last
    polynomial is then q minus q with their exponents swapped, which
    evaluates to exactly 0.  The zero polynomial and a constant may join.
    """
    target = draw(st.sampled_from(TARGETS))
    n = len(target)
    nonzero = mixed_fractions.filter(bool)

    def image(min_terms: int, max_terms: int) -> MultiPoly:
        keys = st.tuples(st.just(0), *[st.integers(0, 2)] * (n - 1))
        return MultiPoly(target, draw(st.dictionaries(keys, nonzero, min_size=min_terms, max_size=max_terms)))

    images = {"X": MultiPoly(target, {(1,) + (0,) * (n - 1): 1, (0,) * n: draw(nonzero)})}
    rest = list(draw(st.permutations(["S", "Y", "Z"])))
    spare = rest.pop() if draw(st.booleans()) else None
    for nm in rest:
        kind = draw(st.sampled_from(["zero", "constant", "single", "multi", "multi"]))
        if kind == "zero":
            images[nm] = MultiPoly.zero(target)
        elif kind == "constant":
            images[nm] = MultiPoly.constant(target, draw(nonzero))
        else:
            images[nm] = image(1, 1) if kind == "single" else image(2, 3)
    if spare is not None:
        # 36 terms in the second and third variables
        images[spare] = MultiPoly(
            target, {(0, i, j) + (0,) * (n - 3): Fraction(i - 3, j + 1) for i in range(6) for j in range(6)}
        )

    def exps(x: int, k: int) -> int:
        return 0 if SOURCE.names[k] == spare else x

    def poly() -> MultiPoly:
        keys = st.tuples(st.integers(0, 1), *[st.integers(0, 2)] * 3)
        terms = draw(st.dictionaries(keys, mixed_fractions, max_size=4))
        return MultiPoly(SOURCE, {tuple(exps(x, k) for k, x in enumerate(e)): c for e, c in terms.items()})

    top = 2 ** draw(st.integers(0, 3))
    polys = [poly() + MultiPoly.monomial(SOURCE, (top, 0, 0, 0), draw(nonzero))]
    polys += [poly() for _ in range(draw(st.integers(0, 1)))]
    if draw(st.booleans()):
        polys.append(MultiPoly.zero(SOURCE))
    if draw(st.booleans()):
        polys.append(MultiPoly.constant(SOURCE, draw(nonzero)))
    cancels = len(rest) == 2 and draw(st.booleans())
    if cancels:
        a, b = (SOURCE.index(nm) for nm in rest)
        images[rest[1]] = images[rest[0]]
        q = poly()
        swapped = {}
        for e, c in q.terms.items():
            e = list(e)
            e[a], e[b] = e[b], e[a]
            swapped[tuple(e)] = c
        polys.append(q - MultiPoly(SOURCE, swapped))
    return target, polys, images, cancels


@settings(max_examples=150, deadline=None)
@given(packed_substitutions())
def test_packed_evaluation_matches_the_schoolbook_loop(case):
    target, polys, images, cancels = case
    got = substitute_all(polys, images)
    assert len(got) == len(polys)
    for p, value in zip(polys, got):
        assert value.varset == target
        assert value.terms == schoolbook_substitute(p, images, target)
        assert all(type(c) is Fraction for c in value.terms.values())
    if cancels:
        assert got[-1].is_zero()


@pytest.mark.parametrize("k", range(5))
def test_packed_width_at_a_power_of_two(k):
    # X -> t + 1/2 is the only image using t, so the bound on t is 2^k
    target = VarSet(("t", "u"))
    images = {"X": parse_poly("t + 1/2", target), "S": parse_poly("u^3 - 1/3", target)}
    p = parse_poly(f"X^{2**k} - 2/5*X*S^2 + S", VarSet(("X", "S")))
    (got,) = substitute_all([p], images)
    assert got.terms == schoolbook_substitute(p, images, target)
    assert max(e[0] for e in got.terms) == 2**k


def test_evaluate_in_ring_rejects_bad_environments(toy):
    p = parse_poly("X*S + 1", toy.varset)
    other = RingPresentation.full(1, 1, ["1", "0"], ["0", "0"])
    cases = [
        ({"X": toy.generator("X"), "S": other.generator("S")}, "mixed rings"),
        ({}, "empty evaluation environment"),
        ({"X": toy.generator("X")}, "no substitution image for variable 'S'"),
        ({"X": toy.generator("X"), "S": parse_poly("S", toy.varset)}, "not ring elements"),
    ]
    for env, message in cases:
        with pytest.raises(ValueError, match=message):
            evaluate_in_ring(p, env)


def test_substitute_all_rejects_polynomials_mixed_with_ring_elements(toy):
    images = {"X": toy.generator("X"), "S": parse_poly("S", toy.varset)}
    with pytest.raises(ValueError, match="mixed types"):
        substitute_all([parse_poly("X", toy.varset)], images)
    with pytest.raises(ValueError, match="neither a polynomial nor a ring element"):
        substitute_all([parse_poly("X", toy.varset)], {"X": 3})


def test_constants_and_zero_evaluate_in_the_images_ring(toy):
    env = toy.generators()
    zero, three = (evaluate_in_ring(parse_poly(text, toy.varset), env) for text in ("0", "3"))
    assert zero == toy.zero() and zero.ring == toy
    assert three == toy.element(3) and three.ring == toy


# ------------------------------------------------------------ work counters


def _count_calls(monkeypatch, calls: Counter, owner, name: str) -> None:
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_single_term_images_take_no_products(monkeypatch):
    # the step solver's move into the mixed recovery varset, plus a scaled
    # image and a constant
    endo = solve_step(FullStep(1, 2))
    polys = list(endo.images.values())
    mixed = VarSet(("X", "S", "Y", "Z", "T", "x", "t", "s", "y"))
    low = {"X": "x", "S": "s", "Y": "y", "T": "t"}
    images = {nm: MultiPoly.variable(mixed, low.get(nm, nm)) for nm in endo.varset.names}
    images["Z"] = parse_poly("-3/2*Z*y^2", mixed)
    images["T"] = parse_poly("5/7", mixed)
    want = [fresh_power_substitute(p, images) for p in polys]
    calls = Counter()
    _count_calls(monkeypatch, calls, polynomials, "_product")
    _count_calls(monkeypatch, calls, MultiPoly, "__mul__")
    got = substitute_all(polys, images)
    monkeypatch.undo()
    assert calls == Counter()
    assert got == want


def test_evaluate_in_ring_rewrites_each_result_once(monkeypatch):
    ring = RingPresentation.full(2, 1, ["1/2", "X"], ["0", "1/3*X", "0"])
    env = {
        "X": ring.element("2*X"),
        "S": ring.element("-S*Y"),
        "Y": ring.element("Y + X*S"),
        "Z": ring.element("1/2*Z + S"),
    }
    polys = [
        parse_poly("S^5*Y^4 + X^3*Z^2 - 3*S*Y*Z + Y^3*Z + 1", ring.varset),
        parse_poly("X*Y^3 - 2/3*Z", ring.varset),
        MultiPoly.zero(ring.varset),
    ]
    reps = {nm: v.rep for nm, v in env.items()}
    want = [ring.normal_form(fresh_power_substitute(p, reps)) for p in polys]
    calls = Counter()
    _count_calls(monkeypatch, calls, RingPresentation, "_rewrite")
    _count_calls(monkeypatch, calls, QuotElem, "__mul__")
    _count_calls(monkeypatch, calls, polynomials, "_unpacked")
    got = [evaluate_in_ring(polys[0], env)]
    assert calls == Counter({"_rewrite": 1})
    got += substitute_all(polys[1:], env)
    monkeypatch.undo()
    assert got == want
    # no product of ring elements, no Fraction map before the rewrite:
    # one rewrite of each integer sum
    assert calls == Counter({"_rewrite": len(polys)})


def _record_returns(monkeypatch, owner, name: str) -> list:
    real = getattr(owner, name)
    returned = []

    def recorded(*args, **kwargs):
        returned.append(real(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(owner, name, recorded)
    return returned


def _twist_composite() -> tuple[PolyEndo, PolyEndo]:
    first, second = (FullStep(1, e).solve()[0] for e in (1, 2))
    return second, first


def test_twist_compose_converts_each_image_once(monkeypatch):
    outer, inner = _twist_composite()
    want = PolyEndo(
        outer.varset,
        {nm: fresh_power_substitute(p, outer.images) for nm, p in inner.images.items()},
    )
    calls = Counter()
    _count_calls(monkeypatch, calls, MultiPoly, "__mul__")
    _count_calls(monkeypatch, calls, polynomials, "_product")
    converted = _record_returns(monkeypatch, polynomials, "_unpacked")
    composite = outer.compose(inner)
    monkeypatch.undo()
    assert composite == want
    assert calls == Counter()
    # one conversion per result image, and each is that image's term map
    assert len(converted) == 5
    assert [id(t) for t in converted] == [id(p.nums) for p in composite.images.values()]


def test_unused_and_single_term_images_take_no_products(monkeypatch):
    vs = VarSet(("X", "S", "Y", "Z"))
    tripwire = _Untouchable.__new__(_Untouchable)
    tripwire.varset = vs
    images = {"X": parse_poly("-2/3*Y", vs), "S": parse_poly("S", vs), "Y": parse_poly("5", vs), "Z": tripwire}
    polys = [parse_poly("X^3*S - 7/2*X*Y^2 + S + 1", vs), MultiPoly.zero(vs)]
    want = [fresh_power_substitute(p, images) for p in polys]
    calls = Counter()
    for name in ("_packing", "_accumulate", "_unpacked", "_packed", "_product"):
        _count_calls(monkeypatch, calls, polynomials, name)
    got = substitute_all(polys, images)
    monkeypatch.undo()
    assert got == want
    # one packing for the call and one conversion per result: no product,
    # and the unused Z-image is never read
    assert calls == Counter({"_packing": 1, "_unpacked": len(polys)})


class _Untouchable(MultiPoly):
    """A polynomial whose terms must not be read."""

    __slots__ = ()

    @property
    def nums(self):
        raise AssertionError("the unused T-image was read")

    @property
    def den(self):
        raise AssertionError("the unused T-image was read")


def test_relation_transports_never_read_the_t_image(monkeypatch):
    outer, inner = _twist_composite()
    composite = outer.compose(inner)
    assert len(composite.images["T"].terms) == 4227
    tripwire = _Untouchable.__new__(_Untouchable)
    tripwire.varset = composite.varset
    guarded = PolyEndo(composite.varset, {**composite.images, "T": tripwire})
    relations = FullStep(1, 1).source_ring().relation_polys()
    want = [composite.apply(rel) for rel in relations]
    calls = Counter()
    _count_calls(monkeypatch, calls, polynomials, "_unpacked")
    got = [guarded.apply(rel) for rel in relations]
    monkeypatch.undo()
    assert got == want
    # each transport ran packed, on the S, Y and Z images
    assert calls["_unpacked"] == len(relations)
