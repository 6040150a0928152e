"""Write bench/goldens.json: the chain-certify outputs of the current sources.

    python3 bench/record_goldens.py

The goldens pin what the certified chains and atomic steps print, so a run
can check its outputs outside the timers.  Re-record them only in a change
that means to alter those outputs.  The twist chain alone takes a while.
"""

from __future__ import annotations

import json

from run import import_program
from workloads import (
    GOLDENS,
    SIZE_ARGV,
    SIZE_STEPS,
    FULL_STEPS,
    TWIST_ARGV,
    digest,
    endo_digest,
    run_cli,
    step_key,
)


def main() -> None:
    lnd = import_program()
    chains = {}
    for name, argv in (("twist", TWIST_ARGV), ("size", SIZE_ARGV)):
        code, out = run_cli(lnd, argv)
        data = json.loads(out)
        if code != 0 or data["certificate"]["pass"] is not True:
            raise SystemExit(f"{name} chain does not certify; nothing recorded")
        chains[name] = {
            "source": data["certificate"]["source"],
            "target": data["certificate"]["target"],
            "images": {nm: digest(text) for nm, text in data["endo"]["images"].items()},
        }
    steps = [lnd.FullStep(n, e) for n, e in FULL_STEPS]
    steps += [lnd.DanielewskiStep(n, list(p)) for n, p in SIZE_STEPS]
    golden_steps = {}
    for step in steps:
        endo = lnd.solve_step(step)
        if not lnd.verify_step(endo, step).passed:
            raise SystemExit(f"{step_key(step)} does not certify; nothing recorded")
        golden_steps[step_key(step)] = endo_digest(endo)
    GOLDENS.write_text(json.dumps({"chains": chains, "steps": golden_steps}, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
