"""Benchmark of lndfilt: certified cylinder chains, the degree oracle and
quotient arithmetic, timed end to end and, in a traced run, per layer.

Run from the root of a checkout (stdlib only; the package is imported from
./src, nothing is installed):

    python3 bench/run.py                              # all workloads, one table
    python3 bench/run.py --workload chain-certify --seed 3 --seconds 30 --trace 0
    python3 bench/run.py --workload degree-oracle --seed 3 --trace 1

Every workload runs in its own interpreter.  With --trace 0 the run prints the
end-to-end metrics; with --trace 1 it runs a fixed number of ops three times
(untraced, traced, traced again), checks that the two traced passes produce
identical work counters, and prints the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import NoReturn

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracing import LAYERS, Tracer, instrument  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PACKAGE = "lndfilt"
SETUP_REPEATS = 12
TAIL_BEYOND = 10
# The host's neighbours slow this interpreter by up to 3x for seconds to
# minutes at a time, and the program's ops follow.  A fixed reference loop of
# the same kinds of work is timed every REFERENCE_EVERY seconds of the run and
# before each anchor; every end-to-end time is divided by the median of the
# REFERENCE_WINDOW reference loops nearest to it over REFERENCE_S.
REFERENCE_S = 0.05
REFERENCE_EVERY = 0.5
REFERENCE_WINDOW = 7
REFERENCE_INT_STEPS = 120_000
ANCHOR_REFERENCES = 4

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("chain_s", "s"),
]

_TIMED = [layer for layer, *_ in LAYERS]
_CALLS = [
    "polynomials.mul", "polynomials.add", "polynomials.pow", "polynomials.substitute",
    "cylinders.endo_apply", "rings.normal_form", "derivations.apply", "derivations.degree",
    "rings.quot_mul", "rings.evaluate_in_ring", "graded.mul",
]
PER_LAYER = (
    [(f"{layer}.self_s", "s") for layer in _TIMED]
    + [(f"{layer}.calls", "count") for layer in _CALLS]
    + [
        ("polynomials.mul.term_pairs", "count"),
        ("polynomials.max_coeff_bits", "bits"),
        ("rings.normal_form.in_terms", "count"),
        ("rings.normal_form.out_terms", "count"),
        ("derivations.applies_per_degree", "ratio"),
        ("checks.kernel_check.cells", "count"),
        ("cylinders.image_terms", "count"),
        ("cylinders.chain_coeff_bits", "bits"),
        ("cli.out_bytes", "B"),
    ]
    + [(f"cylinders.chain_image_terms.{nm}", "count") for nm in "XSYZT"]
    + [
        ("trace.overhead_ratio", "ratio"),
        ("trace.chain_s", "s"),
        ("trace.chain_cover", "ratio"),
        ("trace.unattributed_s", "s"),
    ]
)


def fail(message: str) -> NoReturn:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def check_declared() -> None:
    """The metric names and units in BENCHMARK.json must be the ones printed here."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    declared = json.loads(path.read_text(encoding="utf-8"))
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        theirs = [(m["name"], m["unit"]) for m in declared[key]]
        if theirs != list(ours):
            fail(f"BENCHMARK.json {key} does not list the metrics this benchmark prints")


def import_program():
    """A fresh import of the package from ./src of the checkout."""
    init = ROOT / "src" / PACKAGE / "__init__.py"
    if not init.is_file():
        fail(f"no {PACKAGE} sources under {ROOT / 'src'}; run from a checkout of the repository")
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    src = str(ROOT / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    lnd = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    if Path(lnd.__file__).resolve() != init.resolve():
        fail(f"imported {PACKAGE} from {lnd.__file__}, not from the checkout")
    return lnd


def set_up(workload, seed: int):
    """Import the package afresh, build the workload's fixed inputs and draw its deck."""
    t0 = time.perf_counter()
    lnd = import_program()
    state = workload.setup(lnd, seed)
    state.deck = list(itertools.islice(workload.stream(state), workload.deck_ops))
    return state, time.perf_counter() - t0


def reference() -> float:
    """Time a fixed stdlib loop of the package's three kinds of work: a sparse
    product of dicts with tuple keys and Fraction values, the same with
    multi-digit int values (75,600 term pairs into 1,792 terms), then small-int
    arithmetic in the interpreter.  No one of them follows the machine's
    phases as closely as the program does; the three together do."""
    t0 = time.perf_counter()
    products = (
        (
            {(i, j, i * j % 5): Fraction(i - 3, j + 1) for i in range(12) for j in range(6)},
            {(i, j, i % 3): Fraction(j + 1, i + 2) for i in range(8) for j in range(8)},
        ),
        (
            {(i, j, k): (7 * i + 3 * j - k) * 1_000_003 for i in range(20) for j in range(10) for k in range(3)},
            {(i, j, k): (5 * j - i + k) * 999_983 for i in range(9) for j in range(7) for k in range(2)},
        ),
    )
    for a, b in products:
        out: dict = {}
        for (i, j, k), x in a.items():
            for (p, q, r), y in b.items():
                key = (i + p, j + q, k + r)
                out[key] = out.get(key, 0) + x * y
    acc = 0
    for i in range(REFERENCE_INT_STEPS):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t0


class Speed:
    """The machine's speed along a run, from reference loops timed through it."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self) -> None:
        took = reference()
        self.at.append(time.perf_counter() - took / 2)
        self.took.append(took)

    def slowdown(self, at: float) -> float:
        """The median of the REFERENCE_WINDOW reference loops nearest to `at`, over REFERENCE_S."""
        i = bisect.bisect_left(self.at, at)
        lo = min(max(i - REFERENCE_WINDOW // 2, 0), max(len(self.at) - REFERENCE_WINDOW, 0))
        return statistics.median(self.took[lo : lo + REFERENCE_WINDOW]) / REFERENCE_S


def run_op(op, tracer: Tracer | None, op_id: int) -> tuple[float, str | None]:
    """Time one op (tracing it if asked), then check its output untimed."""
    call = op.call
    if tracer is not None:
        call = tracer.wrap("op", call)
        tracer.op_id = op_id
        tracer.enabled = True
    t0 = time.perf_counter()
    try:
        result = call()
    except Exception as err:  # a failing op is a finding, not a crash
        return time.perf_counter() - t0, f"{op.kind}: raised {type(err).__name__}: {err}"
    finally:
        if tracer is not None:
            tracer.enabled = False
    elapsed = time.perf_counter() - t0
    try:
        return elapsed, op.check(result)
    except Exception as err:
        return elapsed, f"{op.kind}: check raised {type(err).__name__}: {err}"


class Run:
    """Latencies and failures of the ops of one run, by op id; an op run more
    than once keeps the latency and the midpoint in time of each run."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.samples: dict[int, list[float]] = {}
        self.mids: dict[int, list[float]] = {}
        self.chain_ids: set[int] = set()
        self.loop_ids: set[int] = set()
        self.problems: list[str] = []
        self.attempted = 0

    def execute(self, op, op_id: int, looped: bool) -> None:
        start = time.perf_counter()
        elapsed, problem = run_op(op, self.tracer, op_id)
        self.samples.setdefault(op_id, []).append(elapsed)
        self.mids.setdefault(op_id, []).append(start + elapsed / 2)
        self.attempted += 1
        if op.chain:
            self.chain_ids.add(op_id)
        elif looped:
            self.loop_ids.add(op_id)
        if problem is not None:
            self.problems.append(problem)

    def scaled(self, op_id: int, speed: Speed | None) -> list[float]:
        """The op's latencies, each divided by the slowdown around it (as measured without `speed`)."""
        if speed is None:
            return self.samples[op_id]
        return [t / speed.slowdown(mid) for t, mid in zip(self.samples[op_id], self.mids[op_id])]

    def total(self) -> float:
        return sum(sum(times) for times in self.samples.values())


def run_once(workload, state, tracer: Tracer | None, count: int) -> Run:
    """The anchors, then the first `count` deck ops, each run once."""
    run = Run(tracer)
    anchors = workload.anchors(state)
    for op_id, op in enumerate(anchors):
        run.execute(op, op_id, looped=False)
    for op_id, op in enumerate(state.deck[:count], start=len(anchors)):
        run.execute(op, op_id, looped=True)
    return run


def run_timed(workload, state, seconds: float, between, every: float) -> tuple[Run, int, Speed]:
    """The anchors; the deck, pass after pass, for `seconds` of wall time (the
    first pass always completes), calling `between()` every `every` seconds of
    it; then the chain anchors once more, so that they are timed on either side
    of the loop.  The reference loop is timed before each anchor and every
    REFERENCE_EVERY seconds of the deck.  Returns the run, the number of passes
    begun and the machine's speed along the run."""
    run, speed = Run(), Speed()
    anchors = workload.anchors(state)

    def run_anchors(only_chains: bool) -> None:
        for op_id, op in enumerate(anchors):
            if op.chain or not only_chains:
                for _ in range(ANCHOR_REFERENCES):
                    speed.sample()
                run.execute(op, op_id, looped=False)

    run_anchors(only_chains=False)
    deadline = time.perf_counter() + seconds
    pause = time.perf_counter() + every
    due = 0.0
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        passes += 1
        for op_id, op in enumerate(state.deck, start=len(anchors)):
            now = time.perf_counter()
            if passes > 1 and now >= deadline:
                break
            if now >= due:
                speed.sample()
                due = time.perf_counter() + REFERENCE_EVERY
            if now >= pause:
                between()
                pause = time.perf_counter() + every
            run.execute(op, op_id, looped=True)
    run_anchors(only_chains=True)
    return run, passes, speed


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and its value."""
    ranked = sorted(samples)
    k = max(len(ranked) - TAIL_BEYOND - 1, 0)
    return 100.0 * (k + 1) / len(ranked), ranked[k]


def end_to_end(workload, seed: int, seconds: float) -> tuple[dict, dict, Run]:
    # one set-up feeds the run; the repeats are spread through the loop, so
    # that their median spans the machine states of the whole run
    setups: list[tuple[float, float]] = []

    def timed_set_up():
        state, spent = set_up(workload, seed)
        setups.append((spent, time.perf_counter() - spent / 2))
        return state

    state = timed_set_up()
    run, passes, speed = run_timed(workload, state, seconds, between=timed_set_up, every=seconds / SETUP_REPEATS)

    def figures(speed: Speed | None) -> dict:
        loop = [statistics.median(run.scaled(i, speed)) for i in sorted(run.loop_ids)]
        chain = [t for i in run.chain_ids for t in run.scaled(i, speed)]
        setup = [t / speed.slowdown(mid) if speed else t for t, mid in setups]
        return {
            "setup_s": statistics.median(setup),
            "ops_per_s": len(loop) / sum(loop),
            "op_p50_ms": 1e3 * statistics.median(loop),
            "op_tail_ms": 1e3 * tail(loop)[1],
            "chain_s": statistics.median(chain),
        }

    values = figures(speed)
    values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    loops, chains = len(run.loop_ids), sum(len(run.samples[i]) for i in run.chain_ids)
    runs = min(len(run.samples[i]) for i in run.loop_ids)
    pct = tail([0.0] * loops)[0]
    notes = {
        "op_tail_ms": f"p{pct:.2f} of {loops} deck ops",
        "ops_per_s": f"{loops} deck ops, each the median of its {runs} or more runs in {passes} passes",
        "op_p50_ms": f"of {loops} deck ops, each the median of its runs",
        "chain_s": f"median of {chains}",
        "setup_s": f"median of {len(setups)} fresh set-ups",
    }
    for key, value in figures(None).items():
        notes[key] += f"; {value:.6g} as measured"
    notes["reference"] = (
        f"{len(speed.took)} reference loops, median {statistics.median(speed.took):.6g} s; each time is divided"
        f" by the median of the {REFERENCE_WINDOW} nearest to it over {REFERENCE_S} s"
    )
    return values, notes, run


def counters(tracer: Tracer, state) -> dict:
    out = dict(tracer.counts)
    out.update(state.counts)
    degrees = out.get("derivations.degree.calls", 0)
    out["derivations.applies_per_degree"] = out.get("derivations.applies_in_degree", 0) / degrees if degrees else 0.0
    return out


def traced(workload, seed: int) -> tuple[dict, dict, list[Run], list[str]]:
    """One untraced and two traced passes of the same fixed ops."""
    state, _ = set_up(workload, seed)
    plain = run_once(workload, state, None, workload.trace_ops)
    runs, tallies, timings = [plain], [], []
    for _ in range(2):
        state, _ = set_up(workload, seed)
        tracer = Tracer()
        instrument(tracer, PACKAGE)
        run = run_once(workload, state, tracer, workload.trace_ops)
        per_layer = tracer.self_times()
        chain, covered = zip(*(tracer.op_times(i) for i in sorted(run.chain_ids)))
        timings.append(
            {
                **{f"{layer}.self_s": per_layer.get(layer, 0.0) for layer in _TIMED},
                "trace.overhead_ratio": run.total() / plain.total(),
                "trace.chain_s": statistics.median(chain),
                "trace.chain_cover": sum(covered) / sum(chain),
                "trace.unattributed_s": per_layer.get("op", 0.0),
            }
        )
        runs.append(run)
        tallies.append(counters(tracer, state))
    problems = []
    if tallies[0] != tallies[1]:
        moved = sorted(k for k in set(tallies[0]) | set(tallies[1]) if tallies[0].get(k) != tallies[1].get(k))
        problems.append(f"work counters differ between two traced passes of one seed: {moved}")
    values = {k: (timings[0][k] + timings[1][k]) / 2 for k in timings[0]}
    values.update(tallies[0])
    return values, {"trace.overhead_ratio": "traced op time over untraced, same ops"}, runs, problems


def environment() -> dict:
    src = ROOT / "src" / PACKAGE
    h = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "src_sha256": h.hexdigest()[:16],
    }


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def report(name: str, seed: int, trace: bool, values: dict, notes: dict, attempted: int, failed: int) -> dict:
    print(f"# {name} seed={seed} trace={int(trace)} " + json.dumps(environment()))
    print(f"{'fail_ratio':34s} {failed / attempted:<14.6g} ratio  ({failed} of {attempted} ops)")
    units = dict(PER_LAYER if trace else END_TO_END)
    if "reference" in notes:
        print(f"{'reference':34s} {notes['reference']}")
    metrics = {}
    for key, unit in units.items():
        value = values.get(key, 0)
        metrics[key] = {"value": value, "unit": unit}
        note = f"  ({notes[key]})" if key in notes else ""
        shown = f"{value:<14.6g}" if isinstance(value, float) else f"{value:<14d}"
        print(f"{key:34s} {shown} {unit}{note}")
    return metrics


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    if args.trace:
        values, notes, runs, problems = traced(workload, args.seed)
    else:
        values, notes, run = end_to_end(workload, args.seed, args.seconds)
        runs, problems = [run], []
    for run in runs:
        problems.extend(run.problems)
    attempted = sum(run.attempted for run in runs)
    failed = sum(len(run.problems) for run in runs)
    for problem in problems[:20]:
        print(f"FAIL {problem}")
    metrics = report(args.workload, args.seed, bool(args.trace), values, notes, attempted, failed)
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh interpreter, so set-up and peak memory are its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            fail(f"workload {name} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            total["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(total))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30, help="wall time of the seeded op loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    check_declared()
    import_program()  # fail fast, before any work, when the sources are missing
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
