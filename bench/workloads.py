"""The three seeded workloads: inputs, ops and output checks.

Each workload is a closed loop with one caller: the next op starts after the
previous one has returned and been checked.  An op is a zero-argument call
into the public API of the freshly imported package; its check runs outside
the op's timer and returns None or a description of the mismatch.

A workload has
* `setup(lnd, seed)`: the fixed inputs (rings, derivations, goldens), timed
  as set-up;
* `anchors(state)`: fixed ops run once per pass before the loop;
* `stream(state)`: the endless seeded op sequence.  Its first `deck_ops` ops
  are the deck: drawn once, in set-up, and run again and again for the whole
  loop, so that each op is timed by the median of its runs.  Ops marked
  `chain` (a fixed anchor or a repeated fixed chain) give `chain_s` and stay
  out of `ops_per_s`;
* `trace_ops`: how many deck ops one traced pass runs.

Everything random comes from `random.Random(seed)`; nothing is imported from
the package's test suite, so editing a test cannot move a workload.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random
from types import SimpleNamespace
from typing import Callable, Iterator

GOLDENS = Path(__file__).with_name("goldens.json")


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    chain: bool = False


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def endo_digest(endo) -> str:
    """Fingerprint of an endomorphism's printed images, in variable order."""
    return digest("\n".join(f"{nm}={endo.images[nm]}" for nm in endo.varset.names))


def cycle(rng: Random, items: list) -> Iterator:
    """Endless sequence of seeded permutations of `items`."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def fraction(rng: Random, span: int = 9, max_den: int = 5) -> Fraction:
    num = rng.randint(1, span) * rng.choice((-1, 1))
    return Fraction(num, rng.randint(1, max_den))


def element(lnd, ring, pool, rng: Random, x_cap: int = 3, max_terms: int = 5):
    """A seeded element in canonical form, drawn from a basis-monomial pool."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        _, (l, j, i) = rng.choice(pool)
        a = rng.randint(0, x_cap)
        key = (a, l, j) if ring.family == "danielewski" else (a, l, j, i)
        terms[key] = fraction(rng)
    return lnd.QuotElem(ring, lnd.MultiPoly(ring.varset, terms))


def full_grid(lnd) -> list:
    """The 24 full-family rings P = S^d + 1, Q = Y^m, n <= 3, e <= 2, d, m <= 3."""
    return [
        lnd.RingPresentation.full(n, e, ["1"] + ["0"] * (d - 1), ["0"] * m)
        for n in (1, 2, 3)
        for e in (1, 2)
        for d in (2, 3)
        for m in (2, 3)
    ]


def danielewski_rings(lnd) -> list:
    return [
        lnd.RingPresentation.danielewski(1, ["-1", "0"]),
        lnd.RingPresentation.danielewski(2, ["1", "0", "X^2", "0"]),
        lnd.RingPresentation.danielewski(3, ["2", "X", "0"]),
    ]


# --------------------------------------------------------------- chain-certify

TWIST_ARGV = ["cyliso", "-n", "1", "--from", "1", "--to", "3"]
SIZE_ARGV = ["danielewski-cyliso", "--from", "1", "--to", "3", "--poly", "1,0,X^2,0"]
# Composite image sizes of the 2-step twist chain and its coefficient bound;
# chains of 3 or more steps are left out: compose_chain(1, 1, 4) does not
# finish in 12 minutes.
TWIST_TERMS = {"X": 1, "S": 16, "Y": 86, "Z": 875, "T": 4227}
TWIST_MAX_BITS = 31
FULL_STEPS = [(n, e) for n in range(1, 9) for e in range(1, 9)]
SIZE_SHAPES = (("1", "0"), ("1", "0", "X^2", "0"), ("2", "X", "0"), ("-1", "X", "X", "0"))
SIZE_STEPS = [(n, p) for n in range(1, 9) for p in SIZE_SHAPES]
_TERM_SEP = re.compile(r" [+-] ")


def step_key(step) -> str:
    if hasattr(step, "e"):
        return f"full/{step.n}/{step.e}"
    return f"danielewski/{step.n}/" + ",".join(str(c) for c in step.p_coeffs)


def step_rings(step) -> tuple[dict, dict]:
    """The certificate endpoints a step must report, as ring JSON."""
    if hasattr(step, "e"):
        ring = {"family": "full", "n": step.n, "e": step.e, "P": ["1", "0"], "Q": ["0", "0"], "cylinder": True}
        return ring, {**ring, "e": step.e + 1}
    ring = {"family": "danielewski", "n": step.n, "P": [str(c) for c in step.p_coeffs], "cylinder": True}
    return ring, {**ring, "n": step.n + 1}


def image_facts(text: str) -> tuple[int, int, bool]:
    """Term count, largest coefficient bit length and integrality of a printed polynomial."""
    terms = _TERM_SEP.split(text)
    bits, integral = 0, True
    for term in terms:
        coeff = term.lstrip("-").split("*", 1)[0]
        if not coeff[0].isdigit():
            continue
        num, _, den = coeff.partition("/")
        integral = integral and not den
        bits = max(bits, int(num).bit_length(), int(den or 1).bit_length())
    return len(terms), bits, integral


def run_cli(lnd, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = lnd.cli.main(list(argv))
    return code, out.getvalue()


def chain_setup(lnd, seed: int):
    goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))
    full = [lnd.FullStep(n, e) for n, e in FULL_STEPS]
    size = [lnd.DanielewskiStep(n, list(p)) for n, p in SIZE_STEPS]
    return SimpleNamespace(lnd=lnd, seed=seed, goldens=goldens, full=full, size=size, counts={})


def check_chain(state, name: str, result) -> str | None:
    code, out = result
    state.counts["cli.out_bytes"] = state.counts.get("cli.out_bytes", 0) + len(out.encode())
    if code != 0:
        return f"{name}: exit code {code}"
    data = json.loads(out)
    gold = state.goldens["chains"][name]
    cert = data["certificate"]
    if cert["pass"] is not True:
        return f"{name}: certificate does not pass"
    if cert["source"] != gold["source"] or cert["target"] != gold["target"]:
        return f"{name}: endpoint rings {cert['source']} -> {cert['target']}"
    images = data["endo"]["images"]
    if {nm: digest(text) for nm, text in images.items()} != gold["images"]:
        return f"{name}: composite images differ from the goldens"
    if name == "twist":
        widest = 0
        for nm, text in images.items():
            terms, bits, integral = image_facts(text)
            if terms != TWIST_TERMS[nm] or not integral or bits > TWIST_MAX_BITS:
                return f"twist: image of {nm} has {terms} terms, {bits}-bit coefficients"
            state.counts[f"cylinders.chain_image_terms.{nm}"] = terms
            widest = max(widest, bits)
        state.counts["cylinders.chain_coeff_bits"] = widest
    return None


def chain_anchors(state) -> list[Op]:
    lnd = state.lnd
    return [
        Op("twist-chain", lambda: run_cli(lnd, TWIST_ARGV), lambda r: check_chain(state, "twist", r), chain=True),
        Op("size-chain", lambda: run_cli(lnd, SIZE_ARGV), lambda r: check_chain(state, "size", r)),
    ]


def certify(lnd, step):
    endo = lnd.solve_step(step)
    return endo, lnd.verify_step(endo, step)


def check_step(state, step, result) -> str | None:
    endo, cert = result
    key = step_key(step)
    source, target = step_rings(step)
    if not cert.passed:
        return f"{key}: certificate does not pass"
    if cert.source.to_json_dict() != source or cert.target.to_json_dict() != target:
        return f"{key}: wrong endpoint rings"
    if endo_digest(endo) != state.goldens["steps"][key]:
        return f"{key}: step images differ from the goldens"
    return None


def chain_stream(state) -> Iterator[Op]:
    """Atomic certificates: two twist steps, then one size step, each kind in
    seeded order.  There are twice as many twist steps as size steps, so every
    96 ops hold each step once, and a deck of 96 does not hinge on which steps
    a seed draws."""
    rng = Random(state.seed)
    lnd = state.lnd
    full, size = cycle(rng, state.full), cycle(rng, state.size)
    while True:
        for step in (next(full), next(full), next(size)):
            yield Op("step", lambda s=step: certify(lnd, s), lambda r, s=step: check_step(state, s, r))


# --------------------------------------------------------------- degree-oracle

DEGREE_BOUND = 10
KERNEL_EVERY = 36
KERNEL_WINDOW = (8, 4)  # filtration degree bound, x-power cap
ORBIT_RING = (3, 2, 3, 3)  # n, e, d, m of the fixed orbit chain
ORBIT_ELEMENT = "S^2*Y^2*Z^9 + X*Z^4"
ORBIT_DEGREE = 89
ORBIT_EVERY = 9  # rings per orbit chain


def degree_setup(lnd, seed: int):
    rings = full_grid(lnd) + danielewski_rings(lnd)
    derivations = [lnd.canonical_derivation(r) for r in rings]
    pools = [lnd.basis_monomials(r, DEGREE_BOUND) for r in rings]
    n, e, d, m = ORBIT_RING
    orbit_ring = lnd.RingPresentation.full(n, e, ["1"] + ["0"] * (d - 1), ["0"] * m)
    return SimpleNamespace(
        lnd=lnd,
        seed=seed,
        cells=list(zip(rings, derivations, pools)),
        orbit=(lnd.canonical_derivation(orbit_ring), orbit_ring.element(ORBIT_ELEMENT)),
        counts={},
    )


def check_degree(elem, got) -> str | None:
    want = elem.degree()
    return None if got == want else f"{elem}: iterated degree {got}, closed form {want}"


def orbit_op(state) -> Op:
    """The fixed chain: D applied to a degree-89 element until it reaches zero."""
    derivation, elem = state.orbit

    def check(got):
        return check_degree(elem, got) or (None if got == ORBIT_DEGREE else f"orbit degree {got}")

    return Op("orbit", lambda: derivation.degree(elem), check, chain=True)


def check_kernel(state, ring, report) -> str | None:
    bound, x_cap = KERNEL_WINDOW
    cells = len(state.lnd.basis_monomials(ring, bound)) * (x_cap + 1)
    state.counts["checks.kernel_check.cells"] = state.counts.get("checks.kernel_check.cells", 0) + cells
    if report.passed and not report.witnesses:
        return None
    return f"kernel window on {ring.fingerprint()}: {report.witnesses}"


def degree_stream(state) -> Iterator[Op]:
    """Rounds that take each ring once, in seeded order: KERNEL_EVERY iterated
    degrees of seeded elements, ring by ring of their own seeded cycle, then a
    kernel_check window on the round's ring; the fixed orbit chain before every
    ORBIT_EVERY rings.  A round of 3 + 27 * 37 = 1002 ops holds every kernel
    window once and every ring's degrees equally often."""
    rng = Random(state.seed)
    lnd = state.lnd
    cells = cycle(rng, state.cells)
    bound, x_cap = KERNEL_WINDOW
    while True:
        for k, (ring, derivation, _) in enumerate(rng.sample(state.cells, len(state.cells))):
            if k % ORBIT_EVERY == 0:
                yield orbit_op(state)
            for _ in range(KERNEL_EVERY):
                cell_ring, cell_derivation, pool = next(cells)
                elem = element(lnd, cell_ring, pool, rng)
                yield Op(
                    "degree", lambda d=cell_derivation, a=elem: d.degree(a), lambda got, a=elem: check_degree(a, got)
                )
            yield Op(
                "kernel",
                lambda r=ring, d=derivation: lnd.kernel_check(r, degree_bound=bound, x_cap=x_cap, derivation=d),
                lambda rep, r=ring: check_kernel(state, r, rep),
            )


# -------------------------------------------------------------- quotient-arith

NF_POLYS = 4  # ambient polynomials per ring visit, each reduced under both strategies
AUTO_EVERY = 9  # ring visits per group of AUTO_GROUP verify_auto ops
AUTO_GROUP = 4
# verify_auto runs on one ring, R(1, 2) with P = S^2, Q = Y^3, with scalings of
# one size, so that these ops, the slowest of the deck, cost about the same;
# a deck holds about twice TAIL_BEYOND of them, so op_tail_ms is near their
# median and hinges neither on the ambient polynomials nor on the one or two
# cheapest parameters a seed draws
AUTO_RING = (1, 2, 2, 3)  # n, e, d, m
AUTO_SCALES = [Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(-1, 2)]
AUTO_SHIFTS = [-4, -3, -2, -1, 1, 2, 3, 4]
CHAIN_RING = (1, 1, 3, 3)  # n, e, d, m of the automorphism chain
CHAIN_SCALE = 2
CHAIN_SHIFT = "X - 3"
CHAIN_LENGTH = 4  # compositions after the first automorphism
PRODUCT_BOUND = 12


def quotient_setup(lnd, seed: int):
    rings = full_grid(lnd) + [
        lnd.RingPresentation.full(2, 2, ["X^2", "X", "0"], ["X", "0"]),
        lnd.RingPresentation.full(3, 1, ["1 + X^3", "0"], ["2*X", "0", "0"]),
        lnd.RingPresentation.danielewski(2, ["1", "0", "X^2", "0"]),
    ]
    n, e, d, m = AUTO_RING
    auto_ring = lnd.RingPresentation.full(n, e, ["0"] * d, ["0"] * m)
    n, e, d, m = CHAIN_RING
    chain_ring = lnd.RingPresentation.full(n, e, ["0"] * d, ["0"] * m)
    chain_params = lnd.AutParams.make(CHAIN_SCALE ** (d * m - 1), CHAIN_SCALE ** (n * m), CHAIN_SHIFT)
    return SimpleNamespace(
        lnd=lnd,
        seed=seed,
        cells=[(r, r.relation_polys(), lnd.basis_monomials(r, PRODUCT_BOUND)) for r in rings],
        auto_ring=auto_ring,
        chain=(chain_ring, lnd.build_auto(chain_ring, chain_params)),
        counts={},
    )


def ambient(lnd, ring, rng: Random):
    """A seeded ambient polynomial with S and Y exponents up to 12."""
    terms = {}
    for _ in range(rng.randint(3, 6)):
        exps = [rng.randint(0, 4), rng.randint(0, 12), rng.randint(0, 12)]
        if ring.family == "full":
            exps.append(rng.randint(0, 2))
        terms[tuple(exps)] = fraction(rng, max_den=3)
    return lnd.MultiPoly(ring.varset, terms)


def check_reduction(poly, rels, reps: dict, strategy: str, result) -> str | None:
    """The cofactor identity holds, and both strategies land on one representative."""
    elem, (a, b) = result
    rebuilt = elem.rep + a * rels[0] + (b * rels[1] if b is not None else 0)
    if rebuilt != poly:
        return f"{strategy}: cofactor identity fails for {poly}"
    reps[strategy] = elem
    if len(reps) == 2 and reps["s_first"] != reps["y_first"]:
        return f"s_first and y_first disagree on {poly}"
    return None


def check_product(ring, a, b, got) -> str | None:
    want = ring.normal_form(a.rep * b.rep, strategy="y_first")
    return None if got == want else f"product of {a} and {b} differs from the y_first reduction"


def check_graded(lnd, a, b, top) -> str | None:
    ab = a * b
    if top.part.is_zero():
        ok = ab.is_zero() or ab.degree() < a.degree() + b.degree()
    else:
        ok = not ab.is_zero() and ab.degree() == top.grade and lnd.gr_leading(ab) == top
    return None if ok else f"leading classes of {a} and {b} do not multiply to the product's"


def auto_params(lnd, ring, rng: Random):
    """Seeded admissible (lambda, mu, a): lambda = t^(dm-1), mu = t^(nm); the
    shift a has three nonzero coefficients, since a zero one makes the check
    up to three times cheaper."""
    t = rng.choice(AUTO_SCALES)
    shift = " + ".join(f"{rng.choice(AUTO_SHIFTS)}*X^{k}" for k in range(3))
    return lnd.AutParams.make(t ** (ring.d * ring.m - 1), t ** (ring.n * ring.m), shift)


def auto_chain_op(state) -> Op:
    """The fixed chain: the (CHAIN_LENGTH + 1)-fold composite of one automorphism."""
    lnd = state.lnd
    ring, auto = state.chain

    def run():
        out = auto
        for _ in range(CHAIN_LENGTH):
            out = auto.compose(out)
        return out

    def check(out):
        k = CHAIN_LENGTH + 1
        if (out.params.lam, out.params.mu) != (auto.params.lam ** k, auto.params.mu ** k):
            return "automorphism chain: composed scalings are wrong"
        ref = lnd.build_auto(ring, out.params)
        same = all(ref.images[nm] == out.images[nm] for nm in ring.varset.names)
        return None if same else "automorphism chain differs from the automorphism of its parameters"

    return Op("auto-chain", run, check, chain=True)


def quotient_stream(state) -> Iterator[Op]:
    """Rounds of one visit to each ring, in seeded order, in groups of
    AUTO_EVERY visits.  A group opens with the fixed automorphism chain and
    ends with AUTO_GROUP verify_auto ops.  Per visit: NF_POLYS ambient
    polynomials reduced under both strategies with cofactors, one quotient
    product and one product of leading classes."""
    rng = Random(state.seed)
    lnd = state.lnd
    cells = cycle(rng, state.cells)
    while True:
        for _ in range(len(state.cells) // AUTO_EVERY):
            yield auto_chain_op(state)
            for _ in range(AUTO_EVERY):
                ring, rels, pool = next(cells)
                for _ in range(NF_POLYS):
                    poly, reps = ambient(lnd, ring, rng), {}
                    for strategy in ("s_first", "y_first"):
                        yield Op(
                            "nf",
                            lambda r=ring, p=poly, st=strategy: r.normal_form(p, st, with_cofactors=True),
                            lambda res, p=poly, rels=rels, reps=reps, st=strategy: check_reduction(
                                p, rels, reps, st, res
                            ),
                        )
                a, b = element(lnd, ring, pool, rng), element(lnd, ring, pool, rng)
                yield Op("quot-mul", lambda a=a, b=b: a * b, lambda got, r=ring, a=a, b=b: check_product(r, a, b, got))
                yield Op(
                    "graded-mul",
                    lambda a=a, b=b: lnd.gr_leading(a) * lnd.gr_leading(b),
                    lambda top, a=a, b=b: check_graded(lnd, a, b, top),
                )
            for _ in range(AUTO_GROUP):
                params = auto_params(lnd, state.auto_ring, rng)
                yield Op(
                    "verify-auto",
                    lambda p=params: lnd.verify_auto(state.auto_ring, p),
                    lambda rep: None if rep.passed else f"verify_auto: {rep.witnesses}",
                )


def no_anchors(state) -> list[Op]:
    return []


WORKLOADS = {
    "chain-certify": SimpleNamespace(
        setup=chain_setup, anchors=chain_anchors, stream=chain_stream, deck_ops=96, trace_ops=24
    ),
    "degree-oracle": SimpleNamespace(
        setup=degree_setup, anchors=no_anchors, stream=degree_stream, deck_ops=1002, trace_ops=251
    ),
    "quotient-arith": SimpleNamespace(
        setup=quotient_setup, anchors=no_anchors, stream=quotient_stream, deck_ops=570, trace_ops=95
    ),
}
