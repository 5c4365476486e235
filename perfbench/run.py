"""Benchmark entry point: one workload, one seed, one line of metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload table3_qaoa9 --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run; ``--trace 1``
prints the per-layer metrics of a traced run (see ``perfbench/README.md``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
the full report (provenance, per-method timings, tails, sample counts).
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOADS = ("table3_qaoa9", "serve_hot", "sweep_cold", "vqe_gradient")


def _import_program(root: Path) -> None:
    """Put the checkout's ``src`` first on the path and import ``repro`` from it."""
    src = (root / "src").resolve()
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program at {src / 'repro'}; run from a checkout root")
    sys.path.insert(0, str(src))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: imported repro from {repro.__file__}, not from {src}")
    # Everything the workloads import, so the import cost lands in setup_s.
    import repro.api  # noqa: F401
    import repro.serve  # noqa: F401
    import repro.sweeps  # noqa: F401


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    _import_program(root)
    import_s = time.perf_counter() - _START

    import common
    import workloads

    common.WORK_DIR.mkdir(exist_ok=True)
    outcome = workloads.execute(
        args.workload, args.seed, args.seconds, bool(args.trace), import_s, root
    )
    report = {
        "provenance": common.provenance(root, args.workload, args.seed),
        "trace": bool(args.trace),
        "problems": outcome.problems,
        **outcome.report,
    }
    print(json.dumps(report, sort_keys=True))
    units = common.LAYER_UNITS if args.trace else common.E2E_UNITS
    missing = sorted(set(units) - set(outcome.metrics))
    if missing:
        raise SystemExit(f"error: workload did not measure {missing}")
    metrics = {
        name: {"value": float(outcome.metrics[name]), "unit": unit}
        for name, unit in units.items()
    }
    print(json.dumps({
        "correct": outcome.failed == 0 and outcome.attempted > 0 and not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
