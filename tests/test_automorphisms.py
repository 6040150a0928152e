"""The scaling-and-shift automorphism family and its verification."""

import re
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from lndfilt import automorphisms
from lndfilt.automorphisms import (
    AutParams,
    build_auto,
    check_params,
    compose_params,
    inverse_params,
    verify_auto,
)
from lndfilt.polynomials import MultiPoly
from lndfilt.rings import RingPresentation, toy_ring
from util import OUTSIDE_AUTOMORPHISM_FAMILY, X_ONLY, reference_verify_auto


R21 = RingPresentation.full(2, 1, ["1", "0"], ["0", "0"])  # P = S^2 + 1


def test_check_params_rejects_bad_scaling():
    violations = check_params(R21, AutParams.make(1, 2))
    assert len(violations) == 2  # scaling identity and the f_0 congruence
    assert "mu^(d*m-1)" in violations[0]


def test_check_params_accepts_sign_flip():
    assert check_params(R21, AutParams.make(-1, 1)) == []


def test_check_params_requires_normalized_ring():
    # a ring outside the family is refused by every entry point alike;
    # verify_auto records only parameter violations as witnesses
    for data, message in OUTSIDE_AUTOMORPHISM_FAMILY:
        ring = RingPresentation.from_json_dict(data)
        for entry in (check_params, build_auto, verify_auto):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                entry(ring, AutParams.make(1, 1))


def test_zero_scalars_rejected():
    with pytest.raises(ValueError, match="nonzero"):
        AutParams.make(0, 1)
    with pytest.raises(ValueError, match="nonzero"):
        AutParams.make(1, 0)


def test_build_auto_toy_with_zero_shift(toy):
    # P = S^2 exactly, so W = 0 and the images are plain scalings
    t = Fraction(2)
    params = AutParams.make(t ** 3, t ** 4)
    auto = build_auto(toy, params)
    assert auto.images["X"] == toy.element("8*X")
    assert auto.images["S"] == toy.element("16*S")
    assert auto.images["Y"] == (t ** 8 / t ** 6) * toy.generator("Y")
    assert auto.images["Z"] == (t ** 16 / t ** 15) * toy.generator("Z")


def test_build_auto_with_shift_has_forced_tail():
    ring = RingPresentation.full(1, 1, ["1", "0"], ["0", "0"])
    auto = build_auto(ring, AutParams.make(-1, 1, "X"))
    assert auto.images["S"] == ring.element("S + X^3")
    assert auto.images["Y"] == ring.element("-Y - 2*X^2*S - X^5")


def test_verify_auto_passes(toy):
    report = verify_auto(toy, AutParams.make(8, 16, "1 + X"))
    assert report.passed, report.witnesses
    report = verify_auto(R21, AutParams.make(-1, 1, "3*X^2"))
    assert report.passed, report.witnesses


def test_verify_auto_rejects_invalid(toy):
    report = verify_auto(toy, AutParams.make(1, 2))
    assert not report.passed
    assert report.witnesses


def test_verify_auto_witnesses_a_wrong_inverse(toy, monkeypatch):
    # an inverse whose shift is off by one fixes X but moves S, and with it
    # Y and Z, on both sides
    params = AutParams.make(8, 16, "1 + X")
    true_inverse = automorphisms.inverse_params

    def off_by_one(ring, p):
        inv = true_inverse(ring, p)
        return AutParams(inv.lam, inv.mu, inv.a + 1)

    monkeypatch.setattr(automorphisms, "inverse_params", off_by_one)
    assert verify_auto(toy, params).witnesses == [
        "inverse fails on S (left)",
        "inverse fails on S (right)",
        "inverse fails on Y (left)",
        "inverse fails on Y (right)",
        "inverse fails on Z (left)",
        "inverse fails on Z (right)",
    ]


def test_verify_auto_witnesses_a_tampered_image(toy, monkeypatch):
    # S -> 16*S + X^3*(1 + X) + X breaks both relations; against the true
    # inverse the tampered map fails on S both ways, and on Y and Z where it
    # is applied last (right)
    params = AutParams.make(8, 16, "1 + X")
    true_build = automorphisms.build_auto

    def tampered(ring, p):
        auto = true_build(ring, p)
        if p == params:
            auto.images["S"] = auto.images["S"] + ring.generator("X")
        return auto

    monkeypatch.setattr(automorphisms, "build_auto", tampered)
    assert verify_auto(toy, params).witnesses == [
        "relation X^2*Y - S^2 maps to -2*X^5 - 2*X^4 - X^2 - 32*X*S",
        "relation -X*Z + Y^2 - S maps to -X",
        "inverse fails on S (left)",
        "inverse fails on S (right)",
        "inverse fails on Y (right)",
        "inverse fails on Z (right)",
    ]


# rings with Q = Y^m and f_{d-1} = 0: the toy ring, P = S^2 + 1 (f_0 != 0),
# e = 0 with n = 2, the bench's R(1, 2; d = 2, m = 3), and d = 3 with f_0 = X^2
NORMALIZED_RINGS = [
    toy_ring(),
    R21,
    RingPresentation.full(2, 0, ["0", "0"], ["0", "0"]),
    RingPresentation.full(1, 2, ["0", "0"], ["0", "0", "0"]),
    RingPresentation.full(1, 1, ["X^2", "0", "0"], ["0", "0"]),
]


def seeded_admissible_params(ring, rng, count):
    """count seeded admissible parameters: lam = t^(d*m-1) and mu = t^(n*m)
    satisfy mu^(d*m-1) = lam^(n*m), and check_params decides the congruences."""
    found = []
    while len(found) < count:
        t = rng.choice([1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])
        shift = MultiPoly(X_ONLY, {(k,): rng.randint(-3, 3) for k in range(rng.randint(0, 3))})
        params = AutParams.make(t ** (ring.d * ring.m - 1), t ** (ring.n * ring.m), shift)
        if not check_params(ring, params):
            found.append(params)
    return found


@pytest.mark.parametrize("ring", NORMALIZED_RINGS, ids=str)
def test_verify_auto_matches_the_direct_check(ring):
    for params in seeded_admissible_params(ring, Random(str(ring)), 4):
        report = verify_auto(ring, params)
        assert report.passed, (params, report.witnesses)
        assert report.witnesses == reference_verify_auto(ring, params)
    # inadmissible parameters report their violations alike
    bad = AutParams.make(2, 3, "X")
    assert verify_auto(ring, bad).witnesses == reference_verify_auto(ring, bad) != []


def patch_image(monkeypatch, target, name, change):
    """Let build_auto hand out the map of target with change applied to its image of name."""
    true_build = automorphisms.build_auto

    def tampered(ring, p):
        auto = true_build(ring, p)
        if p == target:
            auto.images[name] = ring.element(change(auto.images[name].rep))
        return auto

    monkeypatch.setattr(automorphisms, "build_auto", tampered)


@pytest.mark.parametrize("ring, params", [
    (toy_ring(), AutParams.make(8, 16, "1 + X")),
    (R21, AutParams.make(-1, 1, "X + 3*X^2")),
])
def test_every_single_term_deletion_reports_as_the_direct_check(ring, params, monkeypatch):
    # each term of each image of phi and of its inverse psi, deleted in turn:
    # the report equals the direct check's, and the check fails
    maps = {"phi": params, "psi": inverse_params(ring, params)}
    assert maps["phi"] != maps["psi"]
    deletions = 0
    for target in maps.values():
        auto = build_auto(ring, target)
        for nm in ring.varset.names:
            for exps, c in auto.images[nm].rep.terms.items():
                term = MultiPoly(ring.varset, {exps: c})
                with monkeypatch.context() as patched:
                    patch_image(patched, target, nm, lambda rep: rep - term)
                    witnesses = verify_auto(ring, params).witnesses
                    assert witnesses == reference_verify_auto(ring, params), (target, nm, term)
                assert witnesses, (target, nm, term)
                deletions += 1
    assert deletions == 2 * sum(len(build_auto(ring, params).images[nm].rep.terms) for nm in "XSYZ")


def test_a_map_tampered_on_y_fails_on_y_and_z(toy, monkeypatch):
    # phi's Y image moved by X: the relations fail while both composites
    # still fix X and S, so the lemma's premise fails and the composites are
    # expanded on Y and Z, as the direct check does
    params = AutParams.make(8, 16, "1 + X")
    patch_image(monkeypatch, params, "Y", lambda rep: rep + MultiPoly.variable(toy.varset, "X"))
    witnesses = verify_auto(toy, params).witnesses
    assert witnesses == reference_verify_auto(toy, params)
    assert witnesses == [
        "relation X^2*Y - S^2 maps to 64*X^3",
        "relation -X*Z + Y^2 - S maps to 1/32*X^7 + 1/16*X^6 + 1/32*X^5 + X^3*S + X^2*S + X^2 + 8*X*Y",
        "inverse fails on Y (left)",
        "inverse fails on Y (right)",
        "inverse fails on Z (right)",
    ]


def test_an_inverse_tampered_on_y_fails_on_y_and_z(toy, monkeypatch):
    # psi's Y image moved by X: only psi's residuals, which are never
    # reported, show that the premise fails
    params = AutParams.make(8, 16, "1 + X")
    inverse = inverse_params(toy, params)
    patch_image(monkeypatch, inverse, "Y", lambda rep: rep + MultiPoly.variable(toy.varset, "X"))
    witnesses = verify_auto(toy, params).witnesses
    assert witnesses == reference_verify_auto(toy, params)
    assert witnesses == [
        "inverse fails on Y (left)",
        "inverse fails on Y (right)",
        "inverse fails on Z (left)",
    ]


def test_inverse_params_compose_to_identity(toy):
    params = AutParams.make(8, 16, "2 - X^3")
    inv = inverse_params(toy, params)
    both = compose_params(toy, inv, params)
    assert both.lam == 1 and both.mu == 1
    assert both.a.is_zero()


def test_composed_params_match_composed_maps(toy):
    p1 = AutParams.make(8, 16, "1 + X")
    p2 = AutParams.make(Fraction(1, 8), Fraction(1, 16), "X^2")
    a1 = build_auto(toy, p1)
    a2 = build_auto(toy, p2)
    composed = a2.compose(a1)
    direct = build_auto(toy, compose_params(toy, p2, p1))
    for nm in toy.varset.names:
        assert composed.images[nm] == direct.images[nm]


def test_automorphism_respects_multiplication(toy):
    auto = build_auto(toy, AutParams.make(8, 16, "1 + X"))
    s, y = toy.generator("S"), toy.generator("Y")
    assert auto.apply(s * y) == auto.images["S"] * auto.images["Y"]
    assert auto.apply(s + y) == auto.images["S"] + auto.images["Y"]


def test_params_json_roundtrip():
    params = AutParams.make("3/2", "-7", "X^2 - 1/3")
    back = AutParams.from_json(params.to_json())
    assert back == params
    with pytest.raises(ValueError, match="lacks key"):
        AutParams.from_json('{"lambda": "1"}')


def test_params_json_is_strict():
    cases = [
        ('{"lambda": 0.1, "mu": 1}', "'lambda' is 0.1"),
        ('{"lambda": true, "mu": 1}', "'lambda' is True"),
        ('{"lambda": 1, "mu": [1]}', "'mu' is \\[1\\]"),
        ('{"lambda": [1], "mu": 1}', "'lambda' is \\[1\\]"),
        ('{"lambda": 1, "mu": 1, "b": "0"}', "unknown keys \\['b'\\]"),
        ('{"lambda": 1, "mu": 1, "a": 5}', "'a' is 5"),
        ('{"lambda": 1, "mu": 1, "a": null}', "'a' is None"),
        ('{"lambda": "1e9", "mu": 1}', "lambda is '1e9'"),
        ('{"lambda": "1/0", "mu": 1}', "lambda is '1/0'"),
        ('{"lambda": "0.5", "mu": 1}', "lambda is '0.5'"),
        ('{"mu": 1}', "lacks key 'lambda'"),
    ]
    for text, message in cases:
        with pytest.raises(ValueError, match=message):
            AutParams.from_json(text)
    # rational strings and JSON integers stay accepted
    params = AutParams.from_json('{"lambda": "-3/2", "mu": 7, "a": "X^2 - 1/3"}')
    assert params == AutParams.make(Fraction(-3, 2), 7, "X^2 - 1/3")
    assert AutParams.from_json('{"lambda": 8, "mu": "16"}') == AutParams.make(8, 16)
    # scalars share the element reader: any printed size up to its digit cap
    big = AutParams.from_json('{"lambda": "-%s", "mu": 1}' % ("7" * 5000))
    assert big.lam == -int("7" * 1000) * sum(10 ** (1000 * k) for k in range(5))
    with pytest.raises(ValueError, match="more than 100,000 digits") as err:
        AutParams.from_json('{"lambda": "%s", "mu": 1}' % ("7" * 100_001))
    assert len(str(err.value)) < 150


# admissible on the toy ring (P = S^2, Q = Y^2, n = 2, e = 1): lam = t^3, mu = t^4
SCALES = [1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(SCALES),
    st.sampled_from(SCALES),
    st.dictionaries(st.tuples(st.integers(0, 2)), st.integers(-3, 3), max_size=2),
    st.dictionaries(st.tuples(st.integers(0, 2)), st.integers(-3, 3), max_size=2),
)
def test_automorphism_compose_equals_per_image_apply(t, u, a, b):
    toy = toy_ring()
    outer = build_auto(toy, AutParams.make(t ** 3, t ** 4, MultiPoly(X_ONLY, a)))
    inner = build_auto(toy, AutParams.make(u ** 3, u ** 4, MultiPoly(X_ONLY, b)))
    composed = outer.compose(inner)
    assert composed.images == {nm: outer.apply(img) for nm, img in inner.images.items()}
    assert composed.params == compose_params(toy, outer.params, inner.params)
