"""Polynomial layer: parsing, printing, exact arithmetic."""

import re
from decimal import Decimal
from fractions import Fraction
from math import comb
from operator import mul
from random import Random
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from lndfilt.polynomials import (
    MultiPoly,
    ParseError,
    VarSet,
    _Parser,
    _format_coeff,
    _from_terms,
    ladder_power,
    parse_poly,
    relabel,
    substitute_all,
)
from lndfilt.cylinders import DanielewskiStep, FullStep
from lndfilt.rings import QuotElem, toy_ring
from util import fractions, fresh_power_substitute, random_fraction, random_poly, reference_rename, renamings

XSYZ = VarSet(("X", "S", "Y", "Z"))


def P(text: str) -> MultiPoly:
    return parse_poly(text, XSYZ)


# ------------------------------------------------------------------- parsing


def test_parse_defining_polynomial_expansion():
    # (Y^2 - X*Z)^2 = Y^4 - 2*X*Y^2*Z + X^2*Z^2, expanded by hand
    p = P("X^2*Y - (Y^2 - X*Z)^2")
    expected = {
        (2, 0, 1, 0): Fraction(1),
        (0, 0, 4, 0): Fraction(-1),
        (1, 0, 2, 1): Fraction(2),
        (2, 0, 0, 2): Fraction(-1),
    }
    assert p.terms == expected


def test_parse_rational_literals_and_precedence():
    p = P("1/2*X + 3*Y^2 - 5/7")
    assert p.coefficient((1, 0, 0, 0)) == Fraction(1, 2)
    assert p.coefficient((0, 0, 2, 0)) == Fraction(3)
    assert p.coefficient((0, 0, 0, 0)) == Fraction(-5, 7)
    # ^ binds tighter than *, which binds tighter than +/-
    assert P("2*X^3") == P("2*(X^3)")
    assert P("-X^2") == -(P("X") ** 2)


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        P("X + ?")
    assert err.value.position == 4


def test_parse_unknown_variable():
    with pytest.raises(ParseError, match="unknown variable 'W'"):
        P("X + W")


def test_parse_rejects_implicit_multiplication():
    with pytest.raises(ParseError):
        P("2X")


def test_parse_rejects_trailing_garbage():
    with pytest.raises(ParseError):
        P("X + Y)")


def test_zero_denominator_rejected():
    with pytest.raises(ParseError):
        P("1/0")


def test_exponent_is_capped():
    cap = _Parser.MAX_EXPONENT
    assert cap == 10_000
    assert P(f"X^{cap}") == MultiPoly.monomial(XSYZ, (cap, 0, 0, 0))
    assert P(f"X^000{cap}") == P(f"X^{cap}")
    # the cap is checked before any power is taken, for any length of digits
    for text, at in [(f"X^{cap + 1}", 2), ("Y + S^100000", 6), ("Z^" + "9" * 5000, 2)]:
        with pytest.raises(ParseError, match=f"exponent larger than {cap}") as err:
            P(text)
        assert err.value.position == at


def test_literal_digits_are_capped():
    cap = _Parser.MAX_LITERAL_DIGITS
    assert cap == 1_000
    big = "9" * cap
    assert P(big) == MultiPoly.constant(XSYZ, int(big))
    assert P(f"000{big}/0{big}*X") == P("X")
    # a longer numerator or denominator is refused before int() sees it,
    # also past the interpreter's own 4,300-digit limit
    for text, at in [
        ("9" * (cap + 1), 0),
        ("9" * 5000, 0),
        ("Y + 1/" + "9" * 5000, 6),
        ("X - 2/1" + "0" * cap, 6),
    ]:
        with pytest.raises(ParseError, match=f"integer literal longer than {cap} digits") as err:
            P(text)
        assert err.value.position == at


# ------------------------------------------------------------------ printing


def test_print_graded_lex_descending():
    p = P("S + X^2*Y - 3")
    assert str(p) == "X^2*Y + S - 3"
    assert str(MultiPoly.zero(XSYZ)) == "0"
    assert str(P("-X - 1/2")) == "-X - 1/2"


def test_print_parse_roundtrip():
    samples = [
        "X^2*Y - Y^4 + 2*X*Y^2*Z - X^2*Z^2",
        "1/3*S^2 - 7*Z + 2",
        "-S",
        "0",
        "5/6",
    ]
    for text in samples:
        p = P(text)
        assert parse_poly(str(p), XSYZ) == p


def test_coefficients_print_at_any_size():
    # Decimal converts an int without str(), so it is free of the 4,300-digit limit
    values = [0, 7, -7, 10**999, 10**1000 - 1, 10**1000, -(10**1000) - 1, 10**2000 + 1, 10**5000 + 3, -(99**3000)]
    for n in values:
        assert _format_coeff(n) == str(Decimal(n))
        assert str(MultiPoly.monomial(XSYZ, (1, 0, 0, 0), n)) == {0: "0", 1: "X", -1: "-X"}.get(n, f"{Decimal(n)}*X")
        c = Fraction(n, 10**4500 + 1)
        want = f"{Decimal(c.numerator)}/{Decimal(c.denominator)}" if c.denominator > 1 else str(Decimal(c.numerator))
        assert _format_coeff(n, 10**4500 + 1) == want


# ---------------------------------------------------------------- arithmetic


def _coeffs():
    return st.fractions(min_value=-9, max_value=9, max_denominator=7)


def _exps():
    return st.tuples(*[st.integers(min_value=0, max_value=3)] * 4)


def _polys():
    return st.dictionaries(_exps(), _coeffs(), max_size=5).map(lambda t: MultiPoly(XSYZ, t))


@given(_polys(), _polys(), _polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + MultiPoly.zero(XSYZ) == a
    assert a * 1 == a
    assert a - a == MultiPoly.zero(XSYZ)


def _one_term_polys():
    # a single term c*x^u (a constant when u = 0), or the zero polynomial
    terms = st.builds(lambda u, c: {u: c}, _exps(), _coeffs().filter(bool))
    return st.one_of(terms, st.just({})).map(lambda t: MultiPoly(XSYZ, t))


@given(st.one_of(_polys(), _one_term_polys()), st.integers(min_value=0, max_value=5))
@example(MultiPoly(XSYZ, {(2, 0, 1, 0): Fraction(-3, 4)}), 0)
@example(MultiPoly(XSYZ, {(2, 0, 1, 0): Fraction(-3, 4)}), 1)
@example(MultiPoly(XSYZ, {(0, 0, 0, 0): Fraction(-5, 2)}), 3)
@example(MultiPoly.zero(XSYZ), 0)
@example(MultiPoly.zero(XSYZ), 2)
def test_power_matches_repeated_product(a, k):
    expected = MultiPoly.constant(XSYZ, 1)
    for _ in range(k):
        expected = expected * a
    got = a ** k
    assert got == expected
    assert (got.nums, got.den) == (expected.nums, expected.den)


def test_power_costs_binary_exponentiation_products(monkeypatch):
    # one ladder routine behind every __pow__: base**k on a fresh ladder costs
    # (bits - 1) squarings and (set bits - 1) other products, none for k = 0
    calls = {MultiPoly: 0, QuotElem: 0}

    def counted(cls):
        real = cls.__mul__

        def product(a, b):
            calls[cls] += 1
            return real(a, b)

        return product

    ring = toy_ring()
    bases = {MultiPoly: P("X + 1"), QuotElem: ring.element("X + 1")}
    for cls in bases:
        monkeypatch.setattr(cls, "__mul__", counted(cls))
    for cls, base in bases.items():
        for k in range(65):
            calls[cls] = 0
            got = base ** k
            assert calls[cls] == (k.bit_length() + bin(k).count("1") - 2 if k else 0), (cls, k)
            want = MultiPoly(XSYZ, {(i, 0, 0, 0): comb(k, i) for i in range(k + 1)})
            assert (got.rep if cls is QuotElem else got) == want
    with pytest.raises(ValueError, match="exponent must be an integer >= 0, got -1"):
        bases[MultiPoly] ** -1


def test_power_of_a_unit_at_a_huge_exponent():
    # the ladder walks down 2000 levels without recursing
    one = MultiPoly.constant(XSYZ, 1)
    assert one ** 2**2000 == one
    unit = toy_ring().one()
    assert unit ** 2**2000 == unit


def test_one_term_powers_take_no_product(monkeypatch):
    # (c/b)*x^u raised to k is (c/b)^k * x^(k*u): exponent arithmetic, as a
    # single-term image acts in substitute_all
    bases = [P(text) for text in ("X", "-2/3*X^2*Z", "7/5", "-1")]
    expected = []
    for base in bases:
        powers = [MultiPoly.constant(XSYZ, 1)]
        for _ in range(64):
            powers.append(powers[-1] * base)
        expected.append(powers)
    x, minus_y = P("X"), P("-Y")
    products = []
    real = MultiPoly.__mul__

    def counted(a, b):
        products.append((a, b))
        return real(a, b)

    monkeypatch.setattr(MultiPoly, "__mul__", counted)
    got = [[base ** k for k in range(65)] for base in bases]
    huge, odd = x ** 2**2000, minus_y ** (2**2000 + 1)
    assert products == []
    assert got == expected
    assert huge.nums == {(2**2000, 0, 0, 0): 1} and huge.den == 1
    assert odd.nums == {(0, 0, 2**2000 + 1, 0): -1} and odd.den == 1


@pytest.mark.parametrize("text", ["X", "-2/3*X^2*Z", "7/5", "X + 1", "0"])
def test_refused_exponents(text):
    for k in (True, False, -1, -(2**70), 2.0, Fraction(2), "2"):
        with pytest.raises(ValueError, match=f"exponent must be an integer >= 0, got {re.escape(repr(k))}"):
            P(text) ** k


def _scalars():
    return st.one_of(st.integers(min_value=-(10**30), max_value=10**30), _coeffs())


@given(_scalars(), _polys())
def test_equal_values_hash_equal(c, a):
    # a constant polynomial and a constant element equal their scalar, so
    # they hash as it does; every other equal pair hashes equal too
    toy = toy_ring()
    elem = toy.element(c)
    for value in (MultiPoly.constant(XSYZ, c), elem, elem.rep, toy.element(str(c))):
        assert value == c and hash(value) == hash(c)
        assert value in {c} and c in {value}
    assert hash(Fraction(c)) == hash(c)
    copy = MultiPoly(XSYZ, a.terms)
    assert copy == a and hash(copy) == hash(a)
    elem = toy.normal_form(a)
    twin = toy.element(a + 0)
    assert twin == elem and hash(twin) == hash(elem)


def test_constant_elements_are_found_in_sets():
    toy = toy_ring()
    assert toy.element("3") in {3} and toy.element("3").rep in {3}
    assert toy.element("0") in {0} and toy.zero() in {0} and MultiPoly.zero(XSYZ) in {0}
    assert toy.element("1/2") in {Fraction(1, 2)} and toy.one() in {1}
    assert toy.element("S") not in {0, 1}


def test_scalar_coercion():
    x = P("X")
    assert 2 * x + 1 == P("2*X + 1")
    assert Fraction(1, 2) * x == P("1/2*X")
    assert 1 - x == P("1 - X")


def test_terms_must_be_exact():
    xy = VarSet(("X", "Y"))
    # an inexact or boolean exponent would print as X^1.5 and square to X^3.0
    for exps in ((1.5, 0), (True, 0), (Fraction(1), 0), (1, -1), (1,)):
        with pytest.raises(ValueError, match=f"bad exponent tuple in term {re.escape(str(exps))}: 1 for"):
            MultiPoly(xy, {exps: 1})
    for c in (True, False, 0.5, "1"):
        with pytest.raises(TypeError, match=rf"coefficient {c!r} of term \(1, 0\) is not an int or Fraction"):
            MultiPoly(xy, {(1, 0): c})
    assert str(MultiPoly(xy, {(2, 0): 3, (0, 1): Fraction(-1, 2), (1, 1): 0})) == "3*X^2 - 1/2*Y"


def test_constant_matches_the_general_constructor():
    for vs in (VarSet(("X",)), XSYZ):
        zeros = (0,) * len(vs)
        for c in (0, 1, -1, 7, -(10**30), Fraction(0), Fraction(4, 2), Fraction(-3, 4), Fraction(10**20, 3)):
            got = MultiPoly.constant(vs, c)
            want = MultiPoly(vs, {zeros: c})
            assert (got.varset, got.nums, got.den) == (want.varset, want.nums, want.den)
            assert type(got.den) is int and all(type(n) is int for n in got.nums.values())
        for c in (True, False, 0.5, "1", None):
            with pytest.raises(TypeError, match=rf"coefficient {re.escape(repr(c))} of term {re.escape(str(zeros))} is not"):
                MultiPoly.constant(vs, c)


# ------------------------------------------------------------------ calculus


def test_partial_derivative():
    p = P("X^2*Y - (Y^2 - X*Z)^2")
    assert p.derivative("Y") == P("X^2 - 4*Y*(Y^2 - X*Z)")
    assert p.derivative("S") == MultiPoly.zero(XSYZ)
    assert P("7").derivative("X").is_zero()


def test_substitute_shift():
    xsyzt = VarSet(("X", "S", "Y", "Z", "T"))
    images = {nm: MultiPoly.variable(xsyzt, nm) for nm in XSYZ.names}
    images["S"] = parse_poly("S + X^2*T", xsyzt)
    assert P("S").substitute(images) == parse_poly("S + X^2*T", xsyzt)
    assert P("S^2 + X").substitute(images) == parse_poly("(S + X^2*T)^2 + X", xsyzt)


def test_substitute_requires_image_for_used_variables():
    with pytest.raises(ValueError, match="no substitution image"):
        P("X + S").substitute({"X": P("X")})
    # unused variables need no image
    assert P("X^2").substitute({"X": P("X + 1")}) == P("(X + 1)^2")


@given(_polys(), _polys())
def test_substitution_is_a_ring_map(a, b):
    images = {
        "X": P("X + 1"),
        "S": P("S^2"),
        "Y": P("Y - X"),
        "Z": P("2"),
    }
    assert (a + b).substitute(images) == a.substitute(images) + b.substitute(images)
    assert (a * b).substitute(images) == a.substitute(images) * b.substitute(images)


def _high_polys():
    # exponents up to 7, so that the power ladder both extends a lower power
    # and halves the exponent
    exps = st.tuples(*[st.integers(min_value=0, max_value=7)] * 4)
    return st.dictionaries(exps, _coeffs(), max_size=3).map(lambda t: MultiPoly(XSYZ, t))


def _image_polys():
    exps = st.tuples(*[st.integers(min_value=0, max_value=1)] * 4)
    return st.dictionaries(exps, _coeffs(), min_size=1, max_size=2).map(
        lambda t: MultiPoly(XSYZ, t)
    )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_high_polys(), min_size=1, max_size=3),
    st.fixed_dictionaries({nm: _image_polys() for nm in XSYZ.names}),
)
def test_shared_power_ladder_matches_fresh_powers(polys, images):
    expected = [fresh_power_substitute(p, images) for p in polys]
    built = []

    def spy(ladder, k, product=mul):
        if k not in ladder:
            built.append((ladder, k))
        return ladder_power(ladder, k, product)

    with patch("lndfilt.polynomials.ladder_power", spy):
        assert substitute_all(polys, images) == expected
    # one ladder per image that is not a single term, shared by all of polys, and
    # each power built once in it
    ladders = {id(ladder) for ladder, _ in built}
    assert len(ladders) <= sum(len(img.nums) != 1 for img in images.values())
    assert len({(id(ladder), k) for ladder, k in built}) == len(built)
    assert [p.substitute(images) for p in polys] == expected


def _single_term_images():
    """One-term images: a variable, or c*x^u or a constant c, with c = +-1 or +-p/q."""
    nonzero = st.one_of(st.sampled_from([1, -1]), _coeffs().filter(bool))
    exps = st.tuples(*[st.integers(min_value=0, max_value=2)] * 4)
    return st.one_of(
        st.sampled_from(XSYZ.names).map(lambda nm: MultiPoly.variable(XSYZ, nm)),
        st.builds(lambda e, c: MultiPoly.monomial(XSYZ, e, c), exps, nonzero),
        nonzero.map(lambda c: MultiPoly.constant(XSYZ, c)),
    )


@settings(max_examples=100, deadline=None)
@given(
    st.lists(_high_polys(), min_size=1, max_size=3),
    st.fixed_dictionaries(
        {nm: st.one_of(_single_term_images(), _image_polys()) for nm in XSYZ.names}
    ),
    st.sampled_from(XSYZ.names),
    st.sampled_from(XSYZ.names),
)
def test_single_term_images_match_fresh_powers(polys, images, a, b):
    # with one image for a and b, p minus p with a and b swapped maps to 0
    # after its terms collide
    images[b] = images[a]
    ia, ib = XSYZ.index(a), XSYZ.index(b)

    def swap(exps):
        out = list(exps)
        out[ia], out[ib] = exps[ib], exps[ia]
        return tuple(out)

    polys.append(polys[0] - MultiPoly(XSYZ, {swap(e): c for e, c in polys[0].terms.items()}))
    got = substitute_all(polys, images)
    assert got == [fresh_power_substitute(p, images) for p in polys]
    assert got[-1].is_zero()


def test_substitute_all_checks_images():
    with pytest.raises(ValueError, match="mixed varsets"):
        substitute_all([P("X")], {"X": P("X"), "S": parse_poly("X", VarSet(("X",)))})
    with pytest.raises(ValueError, match="no substitution image"):
        substitute_all([P("X"), P("S")], {"X": P("X")})
    assert substitute_all([], {"X": P("X")}) == []
    assert substitute_all([P("0"), P("X^3")], {"X": P("X + 1")}) == [P("0"), P("(X + 1)^3")]


def reference_divide_exact(p: MultiPoly, divisor: MultiPoly) -> MultiPoly:
    """divide_exact as it was written with two generators per term."""
    ((dexps, dn),) = divisor.nums.items()
    scale = divisor.den if dn > 0 else -divisor.den
    acc = {}
    for exps, n in p.nums.items():
        out = tuple(a - b for a, b in zip(exps, dexps))
        if any(e < 0 for e in out):
            raise ValueError(
                f"non-exact division: term {_from_terms(p.varset, {exps: n}, p.den)} not divisible by {divisor}"
            )
        acc[out] = n * scale
    return _from_terms(p.varset, acc, p.den * abs(dn))


def stored(p: MultiPoly) -> tuple:
    """p's (varset, den, nums), with the terms in their stored order."""
    return p.varset, p.den, list(p.nums.items())


@pytest.mark.parametrize("seed", range(40))
def test_direct_subtraction_and_division_match_the_composed_forms(seed):
    # a - b is one pass over both operands now; it must store exactly what
    # a + (-b) stores, and so must the scalar forms, c an int or a Fraction
    rng = Random(seed)
    a, b = random_poly(rng, XSYZ), random_poly(rng, XSYZ)
    assert stored(a - b) == stored(a + (-b))
    assert stored(a - a) == stored(a + (-a)) == stored(MultiPoly.zero(XSYZ))
    for c in (0, 1, -3, rng.randint(-9, 9), random_fraction(rng), Fraction(7, 4)):
        assert stored(a - c) == stored(a + (-c))
        assert stored(c - a) == stored(MultiPoly.constant(XSYZ, c) + (-a))
    # exact division by a one-term divisor of either sign, also a constant
    monomial = MultiPoly.monomial(XSYZ, [rng.randint(0, 2) for _ in XSYZ], random_fraction(rng))
    for divisor in (monomial, -monomial, MultiPoly.constant(XSYZ, random_fraction(rng))):
        product = a * divisor
        assert stored(product.divide_exact(divisor)) == stored(reference_divide_exact(product, divisor))
        assert product.divide_exact(divisor) == a
        try:
            want = stored(reference_divide_exact(b, divisor))
        except ValueError as err:
            with pytest.raises(ValueError) as got:
                b.divide_exact(divisor)
            assert str(got.value) == str(err)
        else:
            assert stored(b.divide_exact(divisor)) == want


def test_divide_exact():
    p = P("X^3*Y + 2*X^2*S")
    xy = VarSet(("X", "Y"))
    with pytest.raises(ValueError) as err:
        parse_poly("X^2*Y + X*Y^2", xy).divide_exact(parse_poly("Y^2", xy))
    assert str(err.value) == "non-exact division: term X^2*Y not divisible by Y^2"
    assert p.divide_exact(P("X^2")) == P("X*Y + 2*S")
    with pytest.raises(ValueError, match="non-exact division"):
        P("X^2 + S").divide_exact(P("X"))
    with pytest.raises(ValueError, match="one-term divisor"):
        p.divide_exact(P("X + 1"))


def test_rename_transports_between_varsets():
    small = VarSet(("X",))
    p = parse_poly("X^2 + 1", small)
    q = p.rename(XSYZ)
    assert q == P("X^2 + 1")
    # a variable that is not used need not be in the target
    assert parse_poly("X^2 + 1", VarSet(("X", "S"))).rename(small) == p
    # a constant lands in the target, also when no name is shared
    for source in (VarSet(()), VarSet(("S",)), XSYZ):
        three = MultiPoly.constant(source, 3).rename(small)
        assert three.varset == small and three == parse_poly("3", small)
    # a used variable must be in the target
    with pytest.raises(ValueError):
        P("S").rename(small)
    with pytest.raises(ValueError):
        parse_poly("S + 1", VarSet(("S",))).rename(small)


@settings(max_examples=150, deadline=None)
@given(renamings())
def test_rename_matches_the_exponent_loop(case):
    p, target = case
    assert p.rename(target) == reference_rename(p, target)
    assert str(p.rename(target)) == str(reference_rename(p, target))


@st.composite
def relabellings(draw):
    """A polynomial, a target varset and a map sending some variables to lower-case names.

    The source varset may be empty, and the target may lack a place for one
    variable, used or not.
    """
    pool = ["A", "B", "C", "D"]
    source = VarSet(draw(st.permutations(pool))[: draw(st.integers(0, 4))])
    names = {nm: nm.lower() for nm in source.names if draw(st.booleans())}
    places = [names.get(nm, nm) for nm in source.names]
    extra = draw(st.lists(st.sampled_from(["F", *names]), unique=True))
    target = list(draw(st.permutations(places + extra)))
    if target and draw(st.booleans()):
        del target[draw(st.integers(0, len(target) - 1))]
    exps = st.tuples(*[st.integers(0, 4)] * len(source))
    terms = draw(st.dictionaries(exps, fractions, max_size=5))
    return MultiPoly(source, terms), VarSet(target), names


@st.composite
def solve_moves(draw):
    """A polynomial in the generators, moved as the step solve moves its pieces.

    The target is a step's recovery varset, where generator nm becomes row
    nm.lower() if that row is a variable there.
    """
    step = draw(st.sampled_from([FullStep(1, 1), DanielewskiStep(1, ["1", "0"])]))
    endo, stage = step.solve()
    source, target = endo.varset, stage.rows[0].expr.varset
    exps = st.tuples(*[st.integers(0, 4)] * len(source))
    terms = draw(st.dictionaries(exps, fractions, max_size=5))
    names = {nm: nm.lower() for nm in source.names if nm.lower() in target}
    return MultiPoly(source, terms), target, names


@settings(max_examples=200, deadline=None)
@given(st.one_of(relabellings(), solve_moves()))
@example((MultiPoly(VarSet(()), {(): 3}), VarSet(("A",)), {}))
@example((MultiPoly(VarSet(()), {}), VarSet(()), {}))
@example((parse_poly("A*B + 1", VarSet(("A", "B"))), VarSet(("A",)), {}))
def test_relabel_equals_substitution_at_plain_variables(case):
    p, target, names = case
    images = {
        nm: MultiPoly.variable(target, names.get(nm, nm)) for nm in p.varset.names if names.get(nm, nm) in target
    }
    try:
        want = substitute_all([p], images)[0]
    except ValueError:
        with pytest.raises(ValueError, match="unknown variable"):
            relabel(p, target, names)
        if not names:
            with pytest.raises(ValueError, match="unknown variable"):
                p.rename(target)
        return
    if not images:
        # with no images, substitute_all returns the constant over p's varset
        want = MultiPoly.constant(target, want.constant_value())
    got = relabel(p, target, names)
    assert got.varset == target
    assert (list(got.nums.items()), got.den) == (list(want.nums.items()), want.den)
    assert str(got) == str(want)
    if not names:
        assert p.rename(target) == got


def test_relabel_refuses_two_variables_in_one_place():
    p = parse_poly("A + B", VarSet(("A", "B")))
    with pytest.raises(ValueError, match="sends 'A' and 'B' to 'C'"):
        relabel(p, VarSet(("C",)), {"A": "C", "B": "C"})


def test_varset_mismatch_raises():
    other = VarSet(("X", "S", "Y"))
    with pytest.raises(ValueError, match="varset mismatch"):
        P("X") + parse_poly("X", other)


def test_varset_rejects_duplicates_and_bad_names():
    with pytest.raises(ValueError):
        VarSet(("X", "X"))
    with pytest.raises(ValueError):
        VarSet(("X", "2Y"))
    # a name that is not a str is refused by the class, not by the regex module
    for names, bad in (([1], "1"), (["X", None], "None")):
        with pytest.raises(ValueError, match=rf"^invalid variable name: {bad}$"):
            VarSet(names)
