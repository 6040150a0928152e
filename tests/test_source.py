"""Properties of the package source itself."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lndfilt
from lndfilt import automorphisms, polynomials
from lndfilt.automorphisms import AutParams
from lndfilt.checks import random_element
from lndfilt.rings import QuotElem, RingPresentation, toy_ring
from util import DANIELEWSKI_RINGS, RATIONAL_RINGS

SOURCES = sorted(Path(lndfilt.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent

# acceptance #14's loop: every single-term deletion in the twist step's
# T-image must fail its certificate with a residual; then each single-term
# deletion in the second step of compose_chain(1, 1, 3) must stop the chain
DELETION_LOOP = """
import sys
from lndfilt.cylinders import FullStep, PolyEndo, compose_chain, solve_step, verify_step
from lndfilt.polynomials import MultiPoly

if sys.flags.optimize != 1:
    sys.exit("not running under python -O")
step = FullStep(1, 1)
endo = solve_step(step)
img = endo.images["T"]
survived = 0
for exps in img.terms:
    dropped = MultiPoly(img.varset, {e: c for e, c in img.terms.items() if e != exps})
    cert = verify_step(PolyEndo(endo.varset, {**endo.images, "T": dropped}), step)
    residual_seen = any(c["pass"] is False and "residual" in c["detail"] for c in cert.checks)
    survived += cert.passed or not residual_seen
print(f"{len(img.terms)} deletions, {survived} survived")

original = FullStep.solve
second = original(FullStep(1, 2))[0].images["T"]
accepted = 0
for exps in second.terms:
    def mutated(step, exps=exps):
        endo, stage = original(step)
        if step.e == 2:
            kept = {e: c for e, c in endo.images["T"].terms.items() if e != exps}
            endo = PolyEndo(endo.varset, {**endo.images, "T": MultiPoly(endo.varset, kept)})
        return endo, stage
    FullStep.solve = mutated
    try:
        compose_chain(1, 1, 3)
        accepted += 1
    except ValueError:
        pass
print(f"{len(second.terms)} chain deletions, {accepted} accepted")
"""


def test_no_assert_statements():
    # `python -O` strips assert statements, so a check written as one would
    # silently stop running; every check raises explicitly instead
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def family_reads(tree: ast.AST) -> list[int]:
    """Line numbers of every read of a .family attribute under tree."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "family"]


def test_derivation_and_basis_read_no_family():
    # the canonical derivation and the basis are derived from each ring's
    # relations, rule heads and weights; a family branch there is a regression
    package = Path(lndfilt.__file__).parent
    derivations = ast.parse((package / "derivations.py").read_text(encoding="utf-8"))
    assert family_reads(derivations) == []
    rings = ast.parse((package / "rings.py").read_text(encoding="utf-8"))
    (basis,) = [node for node in rings.body if isinstance(node, ast.FunctionDef) and node.name == "basis_monomials"]
    assert family_reads(basis) == []


def callers(tree: ast.AST, attr: str, scope: str = "") -> set[str]:
    """The enclosing definitions of every call of .attr(...) or attr(...) under tree."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found |= callers(node, attr, f"{scope}.{node.name}".lstrip("."))
            continue
        if isinstance(node, ast.Call) and attr in (getattr(node.func, "attr", None), getattr(node.func, "id", None)):
            found.add(scope)
        found |= callers(node, attr, scope)
    return found


def calls(tree: ast.AST, attr: str) -> int:
    """The number of calls of .attr(...) or attr(...) under tree."""
    return sum(
        isinstance(node, ast.Call) and attr in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
        for node in ast.walk(tree)
    )


def test_one_loop_applies_the_derivation():
    # every application of D reads the step table, so reading it from one
    # function keeps D's step in one place
    tree = ast.parse((Path(lndfilt.__file__).parent / "derivations.py").read_text(encoding="utf-8"))
    assert callers(tree, "_step_table") == {"Derivation._orbit"}
    (derivation,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Derivation"]
    methods = {node.name for node in derivation.body if isinstance(node, ast.FunctionDef)}
    assert "_orbit" in methods and "_step" not in methods


# every sort in the package: sorted_terms orders a polynomial's terms for
# every printer; the others order JSON keys, filtration degrees and basis
# monomials
SORTS = {
    ("polynomials.py", "MultiPoly.sorted_terms"),
    ("polynomials.py", "read_object"),
    ("cli.py", "cmd_filtration"),
    ("rings.py", "basis_monomials"),
}


def test_sorted_terms_is_the_one_print_order(rng):
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    # the per-term formatter is gone: __str__ formats in one pass
    assert not hasattr(polynomials, "_format_term")
    defined = {node.name for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "_format_term" not in defined
    # no other place in the package sorts terms for output
    found = {(name, scope) for name, tree in trees.items() for sort in ("sorted", "sort") for scope in callers(tree, sort)}
    assert found == SORTS
    # and element JSON lists its terms in sorted_terms order, graded-lex descending
    for ring in [toy_ring(), *DANIELEWSKI_RINGS, *(ring.base() for ring in RATIONAL_RINGS)]:
        keys = [nm.lower() for nm in ring.varset.names]
        for _ in range(20):
            elem = random_element(ring, rng, 8)
            listed = [tuple(term[k] for k in keys) for term in elem.to_json_list()]
            order = [exps for exps, _ in elem.rep.sorted_terms()]
            assert listed == order
            assert order == sorted(elem.rep.nums, key=lambda exps: (sum(exps), exps), reverse=True)


FAMILIES = {"full", "danielewski"}
# the only places that compare with a family name: the constructor's input
# checks, the automorphism family's domain check, and the two closed-form
# oracles kept deliberately independent of the relation list
FAMILY_COMPARISONS = {
    ("rings.py", "RingPresentation.__init__"),
    ("automorphisms.py", "_require_normalized"),
    ("checks.py", "al_chain_check"),
    ("checks.py", "graded_relations_check"),
}


def family_comparisons(tree: ast.AST, scope: str = "") -> list[tuple[str, int]]:
    """(enclosing definition, line) of every comparison with a family name under tree."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found += family_comparisons(node, f"{scope}.{node.name}".lstrip("."))
            continue
        if isinstance(node, ast.Compare):
            names = {
                leaf.value
                for side in (node.left, *node.comparators)
                for leaf in ast.walk(side)
                if isinstance(leaf, ast.Constant)
            }
            if names & FAMILIES:
                found.append((scope, node.lineno))
        found += family_comparisons(node, scope)
    return found


def test_family_names_are_compared_only_where_allowed():
    # every other family difference is read off the ring's relation list
    found = [
        (path.name, scope, line)
        for path in SOURCES
        for scope, line in family_comparisons(ast.parse(path.read_text(encoding="utf-8")))
    ]
    stray = [f"{name}:{line} in {scope or 'module'}" for name, scope, line in found if (name, scope) not in FAMILY_COMPARISONS]
    assert stray == []
    # and each allowed place still holds one, so the list does not go stale
    assert {(name, scope) for name, scope, _ in found} == FAMILY_COMPARISONS


def test_mutation_gate_holds_under_python_O():
    # the certificate's verdicts, derived ones included, never rest on an
    # assert, so stripping them changes nothing
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-O", "-c", DELETION_LOOP],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "14 deletions, 0 survived",
        "14 chain deletions, 0 accepted",
    ]


def definition(tree: ast.AST, qualname: str) -> ast.AST:
    """The function or class definition of a dotted name such as "MultiPoly.rename"."""
    node = tree
    for part in qualname.split("."):
        (node,) = [
            child for child in node.body
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)) and child.name == part
        ]
    return node


def test_maps_are_applied_through_the_one_evaluation_routine():
    # a map applied to several polynomials goes through one substitute_all
    # call (or compose, which is one), not through a hand-made copy of it
    package = Path(lndfilt.__file__).parent
    trees = {
        name: ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        for name in ("polynomials", "automorphisms", "cylinders")
    }
    # a relabelling moves exponent positions, through one routine that
    # rename and the step solve share; rename holds no loop of its own
    rename = definition(trees["polynomials"], "MultiPoly.rename")
    assert not any(isinstance(node, (ast.For, ast.While)) for node in ast.walk(rename))
    relabellers = set()
    for path in package.glob("*.py"):
        relabellers |= callers(ast.parse(path.read_text(encoding="utf-8")), "relabel")
    assert relabellers == {"MultiPoly.rename", "_Step.solve"}
    automorphisms = trees["automorphisms"]
    assert "verify_auto" not in callers(automorphisms, "apply")
    assert "verify_auto" not in callers(automorphisms, "evaluate_in_ring")
    # verify_auto evaluates at each map once, the relations with the other
    # map's X and S images; a composite is expanded, through the helper that
    # compose uses too and with no composed parameters, only in the else
    # branch of the one test of the lemma's premise
    verify = definition(automorphisms, "verify_auto")
    assert calls(verify, "substitute_all") == 2
    assert callers(automorphisms, "_images_after") == {"verify_auto", "RingAutomorphism.compose"}
    (fallback,) = [node for node in ast.walk(verify) if isinstance(node, ast.If) and calls(node, "_images_after")]
    assert "premise" in {node.id for node in ast.walk(fallback.test) if isinstance(node, ast.Name)}
    assert calls(verify, "_images_after") == calls(ast.Module(fallback.orelse, []), "_images_after") == 1
    assert calls(definition(automorphisms, "RingAutomorphism._images_after"), "substitute_all") == 1
    assert "verify_auto" not in callers(automorphisms, "compose")
    assert "verify_auto" not in callers(automorphisms, "compose_params")
    assert callers(automorphisms, "substitute_all") >= {"verify_auto", "RingAutomorphism._images_after"}
    cylinders = trees["cylinders"]
    assert "_transport_checks" not in callers(cylinders, "apply")
    assert "_transport_checks" in callers(cylinders, "substitute_all")
    assert [arg.arg for arg in definition(cylinders, "_transport_checks").args.args] == [
        "endo", "source", "target", "moved",
    ]
    # a step's certificate applies its map in one call, to the relations,
    # the displacement's lhs and the recovery rows together; only the
    # sequential fallback evaluates a row on its own, at ring elements
    assert "_verify" not in callers(cylinders, "apply")
    assert calls(definition(cylinders, "_verify"), "substitute_all") == 1
    assert calls(definition(cylinders, "_recovery_verdicts"), "substitute_all") == 0
    assert calls(definition(cylinders, "_Step.solve"), "substitute_all") == 0
    assert callers(cylinders, "evaluate_in_ring") == {"_sequential_recovery"}
    # the step solvers and build_auto pass no identity images
    assert not any(isinstance(node, ast.Name) and node.id == "ident" for node in ast.walk(cylinders))
    # the row named nm.lower() rebuilds generator nm; no field restates it
    stage = definition(cylinders, "RecoveryStage")
    fields = {node.target.id for node in stage.body if isinstance(node, ast.AnnAssign)}
    assert fields == {"source", "target", "rows", "displacement"}


@pytest.mark.parametrize("ring, params", [
    (toy_ring(), AutParams.make(8, 16, "1 + X")),
    (RingPresentation.full(1, 2, ["0", "0"], ["0", "0", "0"]), AutParams.make(-1, -1, "1 - X^2")),
])
def test_a_passing_verify_auto_evaluates_no_composite_on_y_or_z(ring, params, monkeypatch):
    # the inverse is computed on X and S only: one call at each map, of the
    # relations and the other map's X and S images, and no expansion
    built, evaluated = [], []
    true_build, true_substitute = automorphisms.build_auto, automorphisms.substitute_all

    def build(ring, p):
        built.append(true_build(ring, p))
        return built[-1]

    def substitute(polys, images):
        evaluated.append((list(polys), images))
        return true_substitute(polys, images)

    def expand(outer, inner):
        raise AssertionError("a composite was expanded")

    monkeypatch.setattr(automorphisms, "build_auto", build)
    monkeypatch.setattr(automorphisms, "substitute_all", substitute)
    monkeypatch.setattr(automorphisms.RingAutomorphism, "_images_after", expand)
    assert automorphisms.verify_auto(ring, params).passed
    phi, psi = built
    assert psi.params == automorphisms.inverse_params(ring, params)
    at_maps = [(polys, images) for polys, images in evaluated if images in (phi.images, psi.images)]
    relations = ring.relation_polys()
    assert at_maps == [
        (relations + [psi.images["X"].rep, psi.images["S"].rep], phi.images),
        (relations + [phi.images["X"].rep, phi.images["S"].rep], psi.images),
    ]
    derived = [auto.images[nm].rep for auto in built for nm in ("Y", "Z")]
    assert not any(p in derived for polys, _ in evaluated for p in polys)


def test_one_top_slice():
    # the ring says which terms have top filtration degree; the graded
    # algebra reads that slice and builds its classes without a second check
    assert not hasattr(polynomials, "WeightFunction")
    assert not hasattr(polynomials.MultiPoly, "weight_degree")
    assert not hasattr(polynomials.MultiPoly, "top_component")
    assert not hasattr(RingPresentation, "degree_weights")
    package = Path(lndfilt.__file__).parent
    graded = ast.parse((package / "graded.py").read_text(encoding="utf-8"))
    assert callers(graded, "top_slice") == {"gr_leading", "GradedElem.__mul__", "hat_ideal_tops"}
    # only the public constructor, which takes outside input, compares a
    # term's degree with the grade
    assert callers(graded, "monomial_degree") == {"GradedElem.__init__"}
    assert callers(graded, "GradedElem") == set()
    assert callers(graded, "_graded") == {
        "GradedElem.__add__", "GradedElem.__neg__", "GradedElem.__mul__", "GradedElem.__pow__", "gr_leading",
    }


def test_one_step_algorithm():
    # the shared solve is written once, on the private base of both step
    # kinds; a kind states only its formulas, and no kind spells out its
    # recovery varset
    cylinders = ast.parse((Path(lndfilt.__file__).parent / "cylinders.py").read_text(encoding="utf-8"))
    defined = {}
    for cls in cylinders.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    defined.setdefault(node.name, set()).add(cls.name)
    for name in ("solve", "source_ring", "target_ring"):
        assert defined[name] == {"_Step"}
    for kind in ("FullStep", "DanielewskiStep"):
        assert calls(definition(cylinders, kind), "VarSet") == 0
    split = [
        node for node in ast.walk(cylinders)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "RuntimeError"
        and any(isinstance(arg, ast.Constant) and arg.value == "T-image split disagrees with the solver" for arg in node.args)
    ]
    assert len(split) == 1
    assert callers(definition(cylinders, "_Step"), "RuntimeError") == {"solve"}


def test_varsets_are_built_once_per_ring_shape_and_step_kind():
    # every ring reads its varset from the one table of the four ring shapes,
    # and each step kind builds its recovery varset once, when the kind is
    # defined; so neither a ring construction nor a solve makes a VarSet
    package = Path(lndfilt.__file__).parent
    rings, cylinders = (ast.parse((package / name).read_text(encoding="utf-8")) for name in ("rings.py", "cylinders.py"))
    assert calls(definition(rings, "RingPresentation.__init__"), "VarSet") == 0
    assert calls(definition(cylinders, "_Step.solve"), "VarSet") == 0
    # the module-level tables of rings.py (scope "") and, in cylinders.py,
    # the per-kind build and the JSON reader
    assert callers(rings, "VarSet") == {""}
    assert callers(cylinders, "VarSet") == {"_Step.__init_subclass__", "PolyEndo.from_json_dict"}


def test_no_trusted_flag():
    # a QuotElem from outside is always reduced; canonical-by-construction
    # elements go through the module-private builder rings._elem
    assert not any("_trusted" in path.read_text(encoding="utf-8") for path in SOURCES)
    assert list(inspect.signature(QuotElem).parameters) == ["ring", "rep"]


def count_tests(tree: ast.AST, scope: str = "") -> list[str]:
    """The enclosing definition of every `isinstance(v, bool) or not isinstance(v, int) or ...` under tree."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found += count_tests(node, f"{scope}.{node.name}".lstrip("."))
            continue
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
            tests = [ast.unparse(value) for value in node.values]
            if any(t.startswith("isinstance(") and t.endswith(", bool)") for t in tests) and any(
                t.startswith("not isinstance(") and t.endswith(", int)") for t in tests
            ):
                found.append(scope)
        found += count_tests(node, scope)
    return found


def test_one_count_test():
    # every integer parameter is refused by polynomials._count; the only
    # other copy checks a whole exponent tuple, with its length, and names
    # the term
    found = sorted(
        f"{path.name}:{scope}" for path in SOURCES for scope in count_tests(ast.parse(path.read_text(encoding="utf-8")))
    )
    assert found == ["polynomials.py:MultiPoly.__init__", "polynomials.py:_count"]
    assert lndfilt.derivations._count is polynomials._count
