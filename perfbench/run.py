"""twinrt benchmark: one closed-loop workload per run, checked against oracles.

Usage, from the root of a twinrt checkout:

    python3 perfbench/run.py --workload demo-shadow --seed 1 --seconds 10 --trace 0

Workloads: demo-shadow, twin-command, scale-fleet (see perfbench/README.md).
With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it runs the loop once untraced and once with pass-through timers around each
layer, and reports the per-layer metrics and the tracing overhead. The last
line of standard output is one JSON object: correct, attempted, failed and
metrics. The exit code is 0 when every oracle passed, 1 when one failed, and
2 when the checkout cannot be benchmarked.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BASELINE = HERE / "baseline.json"
WORKLOADS = ("demo-shadow", "twin-command", "scale-fleet")

# what op_p50_ms and op_tail_ms time on each workload
OP_NAMES = {"demo-shadow": "shadow refresh (step start to tick end)",
            "twin-command": "command: model_edit start to end of the pushing tick",
            "scale-fleet": "query: dashboard QueryData through mediate_operator"}


def ensure_src() -> None:
    """Put the checkout's src/ first on the import path, or exit 2."""
    if not (SRC / "twinrt").is_dir() or not (ROOT / "demo" / "tank.yaml").is_file():
        print(f"perfbench: no twinrt sources under {ROOT}; run from a twinrt checkout",
              file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def pinned_digest(workload: str, seed: int) -> str | None:
    baseline = json.loads(BASELINE.read_text(encoding="utf-8"))
    if seed != baseline["default_seed"]:
        return None
    return baseline["digests"].get(workload)


def _report(result) -> None:
    print(f"workload {result.workload}  seed {result.seed}  trace {int(result.trace)}  "
          f"nproc {os.cpu_count()}  python {platform.python_version()}")
    for name, (value, unit) in result.metrics.items():
        note = result.notes.get(name, "")
        print(f"  {name:<30} {value:>14.4f} {unit:<10} {note}")
    if not result.trace:
        print(f"  op = {OP_NAMES[result.workload]}")
    print(f"  error_rate {result.failed / result.attempted:.6f} "
          f"({result.failed} failed of {result.attempted} attempted)")
    pinned = ("not pinned at this seed" if result.pinned is None
              else "pinned: match" if result.pinned == result.digest else "pinned: MISMATCH")
    print(f"  decision digest {result.digest} ({pinned})")
    for note in result.notes.get("spans", "").splitlines():
        print(f"  {note}")
    for problem in result.problems:
        print(f"  FAILED {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="twinrt closed-loop benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ensure_src()
    import workloads

    dump = (HERE / ".work" / "traces" / f"{args.workload}-seed{args.seed}.ndjson.gz"
            if args.trace else None)
    result = workloads.run(args.workload, ROOT, args.seed, args.seconds, bool(args.trace),
                           pinned=pinned_digest(args.workload, args.seed), trace_dump=dump)
    _report(result)
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
