"""Quotient rings: canonical forms, rewriting soundness, basis enumeration."""

import json
from fractions import Fraction

import pytest

from lndfilt.polynomials import MultiPoly, VarSet, parse_poly
from lndfilt.rings import QuotElem, RingPresentation, basis_monomials, evaluate_in_ring, toy_ring

from util import mixed_small_rings, random_element, random_poly


def nf_str(ring, text):
    return str(ring.element(text))


# -------------------------------------------------------------- construction


def test_parameter_validation():
    with pytest.raises(ValueError, match=r"\(n, e\) = \(1, 0\)"):
        RingPresentation.full(1, 0, ["0", "0"], ["0", "0"])
    with pytest.raises(ValueError, match="degree >= 2 in S"):
        RingPresentation.full(2, 1, ["1"], ["0", "0"])
    with pytest.raises(ValueError, match="degree >= 2 in Y"):
        RingPresentation.full(2, 1, ["0", "0"], ["0"])
    with pytest.raises(ValueError, match="n must be"):
        RingPresentation.full(0, 1, ["0", "0"], ["0", "0"])
    with pytest.raises(ValueError, match="no Q"):
        RingPresentation.danielewski(1, ["0", "0"], cylinder=False).q_poly()
    with pytest.raises(ValueError, match="unknown variable 'S'"):
        RingPresentation.full(2, 1, ["S", "0"], ["0", "0"])
    with pytest.raises(ValueError, match="only X"):
        bad = parse_poly("S", VarSet(("X", "S")))
        RingPresentation.full(2, 1, [bad, "0"], ["0", "0"])
    # e = 0 is fine for the full family once n >= 2
    RingPresentation.full(2, 0, ["1", "0"], ["0", "0"])


def test_relation_polys_toy(toy):
    rel1, rel2 = toy.relation_polys()
    vs = toy.varset
    assert rel1 == parse_poly("X^2*Y - S^2", vs)
    assert rel2 == parse_poly("Y^2 - X*Z - S", vs)
    assert toy.eliminated_relation() == parse_poly("X^2*Y - (Y^2 - X*Z)^2", vs)


def test_defining_data_with_tails():
    ring = RingPresentation.full(1, 1, ["1", "0"], ["0", "0"])
    assert ring.p_poly() == parse_poly("S^2 + 1", ring.varset)
    assert ring.q_poly() == parse_poly("Y^2", ring.varset)
    dan = RingPresentation.danielewski(2, ["1", "0", "X^2", "0"])
    assert dan.p_poly() == parse_poly("S^4 + X^2*S^2 + 1", dan.varset)
    assert dan.relation_polys()[0] == parse_poly("X^2*Y - S^4 - X^2*S^2 - 1", dan.varset)


# -------------------------------------------------------------- normal forms


def test_toy_normal_form_goldens(toy):
    assert nf_str(toy, "S^2") == "X^2*Y"
    assert nf_str(toy, "Y^2") == "X*Z + S"
    assert nf_str(toy, "S^3") == "X^2*S*Y"
    assert nf_str(toy, "Y^2*S") == "X^2*Y + X*S*Z"
    # the eliminated relation collapses to zero in the quotient
    assert toy.element("X^2*Y - (Y^2 - X*Z)^2").is_zero()
    # already-reduced input is untouched
    p = parse_poly("X^3*S*Y*Z^2 + 5", toy.varset)
    assert toy.element(p).rep == p


def test_normal_form_with_coefficient_tails():
    ring = RingPresentation.full(1, 1, ["1", "0"], ["0", "0"])
    # S^2 -> X*Y - 1
    assert nf_str(ring, "S^2") == "X*Y - 1"
    dan = RingPresentation.danielewski(1, ["-1", "0"])
    # S^2 -> X*Y + 1
    assert nf_str(dan, "S^2") == "X*Y + 1"
    assert nf_str(dan, "S^3") == "X*S*Y + S"


def test_normal_form_is_ring_map(toy, rng):
    for _ in range(30):
        p = random_poly(rng, toy.varset)
        q = random_poly(rng, toy.varset)
        assert toy.normal_form(p + q) == toy.normal_form(p) + toy.normal_form(q)
        assert toy.normal_form(p * q) == toy.normal_form(p) * toy.normal_form(q)


def test_relations_reduce_to_zero_everywhere():
    for ring in mixed_small_rings():
        for rel in ring.relation_polys():
            assert ring.normal_form(rel).is_zero()
        if ring.family == "full":
            assert ring.normal_form(ring.eliminated_relation()).is_zero()


def test_strategies_agree(rng):
    for ring in mixed_small_rings():
        for _ in range(40):
            p = random_poly(rng, ring.varset)
            assert ring.normal_form(p, "s_first") == ring.normal_form(p, "y_first")


def test_cofactor_certificate(toy, rng):
    rel1, rel2 = toy.relation_polys()
    for _ in range(25):
        p = random_poly(rng, toy.varset)
        elem, (a, b) = toy.normal_form(p, with_cofactors=True)
        assert p == elem.rep + a * rel1 + b * rel2


def test_cofactor_certificate_danielewski(rng):
    dan = RingPresentation.danielewski(2, ["1", "0", "X^2", "0"])
    (rel,) = dan.relation_polys()
    for _ in range(25):
        p = random_poly(rng, dan.varset)
        elem, (a, b) = dan.normal_form(p, with_cofactors=True)
        assert b is None
        assert p == elem.rep + a * rel


def test_three_variable_soundness(rng):
    # substituting S -> Q - X^e*Z kills the second relation and turns the
    # first into the eliminated one, so the cofactor identity descends
    for ring in [toy_ring(), RingPresentation.full(2, 2, ["X^2", "X", "0"], ["X", "0"])]:
        rel1, _ = ring.relation_polys()
        vs = ring.varset
        x = MultiPoly.variable(vs, "X")
        images = {nm: MultiPoly.variable(vs, nm) for nm in vs.names}
        images["S"] = ring.q_poly() - x ** ring.e * MultiPoly.variable(vs, "Z")
        for _ in range(10):
            p = random_poly(rng, vs)
            elem, (a, b) = ring.normal_form(p, with_cofactors=True)
            lhs = p.substitute(images) - elem.rep.substitute(images)
            rhs = a.substitute(images) * ring.eliminated_relation()
            assert lhs == rhs


def test_normal_form_requires_matching_varset(toy):
    with pytest.raises(ValueError, match="does not match ring"):
        toy.normal_form(parse_poly("X", VarSet(("X", "S", "Y"))))


# ------------------------------------------------------- element arithmetic


def test_quotelem_arithmetic(toy):
    y = toy.generator("Y")
    s = toy.generator("S")
    x = toy.generator("X")
    z = toy.generator("Z")
    assert y * y == x * z + s
    assert s * s == x * x * y
    assert (y + s) ** 2 == y * y + 2 * s * y + x * x * y
    assert (y - y).is_zero()
    assert str(2 * y - Fraction(1, 2)) == "2*Y - 1/2"


def test_quotelem_ring_mismatch(toy):
    other = RingPresentation.full(1, 1, ["1", "0"], ["0", "0"])
    with pytest.raises(ValueError, match="ring mismatch"):
        toy.generator("Y") + other.generator("Y")


def test_evaluate_in_ring(toy):
    env = toy.generators()
    p = parse_poly("Y^2 - X*Z - S", toy.varset)
    assert evaluate_in_ring(p, env).is_zero()
    q = parse_poly("S^2 + Y", toy.varset)
    assert evaluate_in_ring(q, env) == toy.element("S^2 + Y")


# ------------------------------------------------- degrees, basis, and JSON


def test_monomial_degree(toy):
    assert toy.monomial_degree((5, 1, 1, 1)) == 1 + 2 + 4
    assert toy.monomial_degree((0, 0, 0, 0)) == 0
    dan = RingPresentation.danielewski(1, ["-1", "0"])
    assert dan.monomial_degree((3, 1, 2)) == 1 + 2 * 2


def test_element_degree(toy):
    assert toy.element("X^7").degree() == 0
    assert toy.element("S").degree() == 1
    assert toy.element("Y").degree() == 2
    assert toy.element("Z").degree() == 4
    assert toy.element("S*Y*Z").degree() == 7
    assert toy.zero().degree() is None


def test_basis_monomials_toy(toy):
    got = basis_monomials(toy, 4)
    assert got == [
        (0, (0, 0, 0)),
        (1, (1, 0, 0)),
        (2, (0, 1, 0)),
        (3, (1, 1, 0)),
        (4, (0, 0, 1)),
    ]


def test_basis_monomials_danielewski():
    dan = RingPresentation.danielewski(2, ["1", "0", "X^2", "0"])  # d = 4
    got = basis_monomials(dan, 5)
    assert got == [
        (0, (0, 0, 0)),
        (1, (1, 0, 0)),
        (2, (2, 0, 0)),
        (3, (3, 0, 0)),
        (4, (0, 1, 0)),
        (5, (1, 1, 0)),
    ]


def test_basis_spans_all_normal_forms(toy, rng):
    # every canonical representative only uses basis keys
    allowed = {(l, j, i) for _, (l, j, i) in basis_monomials(toy, 40)}
    for _ in range(20):
        p = random_poly(rng, toy.varset)
        for exps in toy.normal_form(p).rep.terms:
            assert (exps[1], exps[2], exps[3]) in allowed


def test_desk_scale_linear_independence(toy, rng):
    # a random combination of the first 12 basis monomials is already in
    # canonical form, so it reduces to itself and is nonzero: the stored keys
    # are independent over k[x]
    pool = basis_monomials(toy, 12)[:12]
    terms = {}
    for _, (l, j, i) in pool:
        terms[(rng.randint(0, 3), l, j, i)] = Fraction(rng.randint(1, 9))
    p = MultiPoly(toy.varset, terms)
    elem = toy.normal_form(p)
    assert elem.rep == p
    assert not elem.is_zero()


def test_ring_json_roundtrip(toy):
    blob = toy.to_json()
    back = RingPresentation.from_json(blob)
    assert back == toy
    data = json.loads(blob)
    assert data["family"] == "full"
    assert data["n"] == 2 and data["e"] == 1
    assert data["P"] == ["0", "0"] and data["Q"] == ["0", "0"]
    dan = RingPresentation.danielewski(2, ["1", "0", "X^2", "0"], cylinder=True)
    assert RingPresentation.from_json(dan.to_json()) == dan


def test_ring_json_errors():
    with pytest.raises(ValueError, match="lacks key"):
        RingPresentation.from_json('{"family": "full", "n": 2}')
    with pytest.raises(ValueError, match="bad ring JSON"):
        RingPresentation.from_json("{nope")
    with pytest.raises(ValueError, match="unknown family"):
        RingPresentation.from_json('{"family": "x", "n": 1, "P": ["0", "0"]}')


def test_element_json_roundtrip(toy, rng):
    for _ in range(10):
        a = random_element(rng, toy, 8)
        back = QuotElem.from_json(toy, a.to_json())
        assert back == a
    entry = json.loads(toy.element("3/4*S*Z^2 - X").to_json())
    assert entry == [
        {"x": 0, "s": 1, "y": 0, "z": 2, "c": "3/4"},
        {"x": 1, "s": 0, "y": 0, "z": 0, "c": "-1"},
    ]


def test_cylinder_presentation(toy):
    cyl = toy.with_cylinder()
    assert cyl.varset.names == ("X", "S", "Y", "Z", "T")
    assert nf_str(cyl, "S^2*T") == "X^2*Y*T"
    assert cyl.monomial_degree((1, 0, 1, 0, 5)) == 2
    assert cyl.base() == toy
    with pytest.raises(ValueError, match="base ring"):
        basis_monomials(cyl, 3)


# --------------------------------------------------------------- rule tails


def test_rule_tails_built_once_per_ring(monkeypatch, rng):
    builds = []
    original = RingPresentation._build_rule_tails

    def counting(ring):
        builds.append(ring)
        return original(ring)

    monkeypatch.setattr(RingPresentation, "_build_rule_tails", counting)
    ring = RingPresentation.full(2, 2, ["X^2", "X", "0"], ["X", "0"])
    tails = ring._rule_tails()
    for _ in range(5):
        ring.normal_form(random_poly(rng, ring.varset), with_cofactors=True)
        ring.element("S^4*Y^3") * ring.element("Y^2*S^3")
    assert ring._rule_tails() is tails
    assert builds == [ring]
    # an equal but distinct presentation builds its own tails, once
    twin = RingPresentation.full(2, 2, ["X^2", "X", "0"], ["X", "0"])
    twin.element("S^5")
    twin.element("Y^5")
    assert builds == [ring, twin]


def test_rule_that_keeps_the_measure_is_rejected(toy):
    vs = toy.varset
    s_head = (0, 2, 0, 0)
    y_head = (0, 0, 2, 0)
    # X^2*Y is the real s-tail of the toy ring; S*Y (degree 3), Z (degree 4)
    # and S^2 itself (an equal measure) do not drop below S^2's (2, 2)
    toy._check_rule_drops(s_head, MultiPoly.monomial(vs, (2, 0, 1, 0)))
    for bad in ("X^2*Y + S*Y", "Z", "S^2"):
        with pytest.raises(RuntimeError, match="does not drop the termination measure"):
            toy._check_rule_drops(s_head, parse_poly(bad, vs))
    toy._check_rule_drops(y_head, parse_poly("S + X*Z", vs))
    with pytest.raises(RuntimeError, match="does not drop"):
        toy._check_rule_drops(y_head, parse_poly("S + X*Z + X*S*Y^2", vs))
    # the check runs when the tails are built
    for ring in mixed_small_rings():
        ring._rule_tails()
