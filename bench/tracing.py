"""In-memory spans and work counters recorded around calls into lndfilt.

The tracer replaces public functions and methods of the freshly imported
package with wrappers, from outside the package.  Each wrapped call records a
span: its layer name, the span that caused it, the op it belongs to, and its
duration net of the tracer's own bookkeeping.  A layer's self time is the net
duration of its spans minus the net duration of their child spans.

Counters are machine-independent: call counts, term counts, bit sizes.  They
depend only on the inputs, so two traced passes over one seed must agree.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_net = array("d")
        self.stack: list[int] = []
        self.overhead = 0.0
        self.counts: Counter = Counter()
        self.op_id = -1
        self.enabled = False

    def layer_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, before=None, after=None):
        """fn with a span named `name` around each call made while enabled.

        `before(tracer, args)` and `after(tracer, args, result)` update
        counters; their cost is booked as tracer overhead, not as span time.
        """
        nid = self.layer_id(name)
        calls = name + ".calls"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            t_in = perf_counter()
            stack = tracer.stack
            idx = len(tracer.span_net)
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_op.append(tracer.op_id)
            tracer.span_net.append(0.0)
            tracer.counts[calls] += 1
            if before is not None:
                before(tracer, args)
            stack.append(idx)
            over0 = tracer.overhead
            t0 = perf_counter()
            tracer.overhead += t0 - t_in
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.span_net[idx] = (t1 - t0) - (tracer.overhead - over0)
            if after is not None:
                after(tracer, args, result)
            tracer.overhead += perf_counter() - t1
            return result

        return traced

    def in_layer(self, name: str) -> bool:
        """Whether a span of `name` is open around the current call."""
        nid = self._ids.get(name)
        return any(self.span_name[i] == nid for i in self.stack)

    def self_times(self) -> dict[str, float]:
        """Self time per layer: net span time minus that of the child spans."""
        own = list(self.span_net)
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                own[parent] -= self.span_net[i]
        per_layer: dict[str, float] = defaultdict(float)
        for i, t in enumerate(own):
            per_layer[self.names[self.span_name[i]]] += t
        return dict(per_layer)

    def op_times(self, op_id: int) -> tuple[float, float]:
        """Net time of an op's root span, and the part of it spent in traced layers."""
        root, inner = -1, 0.0
        for i in range(len(self.span_net)):
            if self.span_op[i] != op_id:
                continue
            if self.span_parent[i] < 0:
                root = i
            elif self.span_parent[i] == root:
                inner += self.span_net[i]
        return self.span_net[root], inner


def _coeff_bits(poly) -> int:
    best = 0
    for c in poly.terms.values():
        c = Fraction(c)
        best = max(best, c.numerator.bit_length(), c.denominator.bit_length())
    return best


def _mul_pairs(tracer, args):
    left, right = args[0], args[1]
    other = len(right.terms) if hasattr(right, "terms") else 1
    tracer.counts["polynomials.mul.term_pairs"] += len(left.terms) * other


def _substitute_bits(tracer, args, result):
    key = "polynomials.max_coeff_bits"
    tracer.counts[key] = max(tracer.counts[key], _coeff_bits(result))


def _nf_in(tracer, args):
    tracer.counts["rings.normal_form.in_terms"] += len(args[1].terms)


def _nf_out(tracer, args, result):
    elem = result[0] if isinstance(result, tuple) else result
    tracer.counts["rings.normal_form.out_terms"] += len(elem.rep.terms)


def _apply_in_degree(tracer, args):
    if tracer.in_layer("derivations.degree"):
        tracer.counts["derivations.applies_in_degree"] += 1


def _image_terms(tracer, args, result):
    tracer.counts["cylinders.image_terms"] += sum(len(p.terms) for p in result.images.values())


# (layer, module, owner class or None, attribute names, before, after)
LAYERS = [
    ("polynomials.mul", "polynomials", "MultiPoly", ("__mul__", "__rmul__"), _mul_pairs, None),
    ("polynomials.add", "polynomials", "MultiPoly", ("__add__", "__radd__"), None, None),
    ("polynomials.pow", "polynomials", "MultiPoly", ("__pow__",), None, None),
    ("polynomials.substitute", "polynomials", "MultiPoly", ("substitute",), None, _substitute_bits),
    ("rings.normal_form", "rings", "RingPresentation", ("normal_form",), _nf_in, _nf_out),
    ("rings.quot_mul", "rings", "QuotElem", ("__mul__", "__rmul__"), None, None),
    ("rings.evaluate_in_ring", "rings", None, ("evaluate_in_ring",), None, None),
    ("derivations.apply", "derivations", "Derivation", ("apply",), _apply_in_degree, None),
    ("derivations.degree", "derivations", "Derivation", ("degree",), None, None),
    ("graded.mul", "graded", "GradedElem", ("__mul__",), None, None),
    ("graded.gr_leading", "graded", None, ("gr_leading",), None, None),
    ("checks.kernel_check", "checks", None, ("kernel_check",), None, None),
    ("automorphisms.build_auto", "automorphisms", None, ("build_auto",), None, None),
    ("automorphisms.verify_auto", "automorphisms", None, ("verify_auto",), None, None),
    ("cylinders.endo_apply", "cylinders", "PolyEndo", ("apply",), None, None),
    ("cylinders.compose", "cylinders", "PolyEndo", ("compose",), None, _image_terms),
    ("cylinders.solve_step", "cylinders", None, ("solve_step",), None, _image_terms),
    ("cylinders.verify_step", "cylinders", None, ("verify_step",), None, None),
    ("cylinders.compose_chain", "cylinders", None, ("compose_chain", "compose_danielewski_chain"), None, None),
    ("cli.main", "cli", None, ("main",), None, None),
]


def instrument(tracer: Tracer, package: str) -> None:
    """Wrap every layer entry point of the imported package in place.

    Methods are replaced on their class, aliases such as __rmul__ included,
    because an alias keeps the function it was bound to at class creation.
    A module-level function is replaced in every module of the package that
    imported it by name.
    """
    modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
    for layer, modname, owner, attrs, before, after in LAYERS:
        module = sys.modules[f"{package}.{modname}"]
        for attr in attrs:
            if owner is not None:
                cls = getattr(module, owner)
                setattr(cls, attr, tracer.wrap(layer, cls.__dict__[attr], before, after))
                continue
            original = getattr(module, attr)
            wrapped = tracer.wrap(layer, original, before, after)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapped)
