"""The integer rewrite loop of normal_form against a Fraction reference."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from lndfilt.polynomials import MultiPoly
from lndfilt.rings import RingPresentation
from util import RATIONAL_RINGS, fractions, rings


def _add_into(acc: dict, key: tuple[int, ...], c: Fraction) -> None:
    v = acc.get(key, 0) + c
    if v:
        acc[key] = v
    else:
        acc.pop(key, None)


def reference_rules(ring: RingPresentation, strategy: str) -> list:
    """The rules head -> head - rel/c with Fraction tails, in strategy order."""
    rules = []
    for index, (head, rel) in enumerate(ring._relations()):
        scale = 1 / rel.terms[head]
        tail = MultiPoly.monomial(ring.varset, head) - rel * scale
        var = next(k for k, power in enumerate(head) if power)
        rules.append((var, head[var], tuple(tail.terms.items()), index, scale))
    return rules if strategy == "s_first" else rules[::-1]


def reference_normal_form(ring: RingPresentation, p: MultiPoly, strategy: str):
    """Representative and cofactor term maps by the pass loop over Fractions.

    Each pass rewrites every monomial that was reducible at its start, one
    Fraction product and one Fraction sum per produced term.
    """
    rules = reference_rules(ring, strategy)
    cofactors = [{} for _ in rules]
    current = dict(p.terms)
    while True:
        todo = []
        for exps in current:
            for rule in rules:
                if exps[rule[0]] >= rule[1]:
                    todo.append((exps, rule))
                    break
        if not todo:
            return current, cofactors
        for exps, (var, power, tail, index, scale) in todo:
            # an earlier rewrite in this pass may have cancelled the term
            c = current.pop(exps, None)
            if c is None:
                continue
            base = list(exps)
            base[var] -= power
            for texps, tc in tail:
                _add_into(current, tuple(b + t for b, t in zip(base, texps)), c * tc)
            _add_into(cofactors[index], tuple(base), c * scale)


@st.composite
def ring_and_poly(draw):
    ring = draw(st.one_of(st.sampled_from(RATIONAL_RINGS), rings()))
    keys = st.tuples(*[st.integers(0, 4)] * len(ring.varset))
    p = MultiPoly(ring.varset, draw(st.dictionaries(keys, fractions, max_size=6)))
    return ring, p


def test_rational_rings_have_a_tail_denominator():
    for ring in RATIONAL_RINGS:
        td, _ = ring._rule_tails()["s_first"]
        assert td > 1


@settings(max_examples=200, deadline=None)
@given(ring_and_poly(), st.sampled_from(["s_first", "y_first"]))
def test_normal_form_matches_reference(case, strategy):
    ring, p = case
    want_rep, want_cofactors = reference_normal_form(ring, p, strategy)
    elem, cofactors = ring.normal_form(p, strategy, with_cofactors=True)
    assert elem.rep.terms == want_rep
    assert all(type(c) is Fraction for c in elem.rep.terms.values())
    if ring.family == "danielewski":
        assert cofactors[1] is None
        cofactors = cofactors[:1]
    assert [cof.terms for cof in cofactors] == want_cofactors
    assert ring.normal_form(p, strategy) == elem
