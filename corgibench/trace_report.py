"""Per-layer self times of a traced run, and the tracing overhead against an untraced run.

Usage (from the repository root)::

    python3 corgibench/trace_report.py --workload warm_serve --seed 1

Runs the workload untraced and then traced on the same seed.  Prints the
traced run's non-zero per-layer metrics; each layer's self time (its spans'
durations minus what their children cover), summed over the measured
operations, as seconds and as a share of the traced end-to-end time; the
share of that time the program's layers account for (the rest is the
benchmark's own code around each operation); and the median operation time
traced against untraced.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: The end-to-end metric each traced operation corresponds to (value in the unit shown).
UNTRACED = {
    "report": ("report_ms.p50", 1e-3),
    "cold_report": ("report_ms.p50", 1e-3),
    "refresh": ("refresh_s", 1.0),
}


def _run(workload: str, seed: int, seconds: int, trace: int) -> list:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    completed = subprocess.run(command, capture_output=True, text=True, cwd=str(HERE.parent), timeout=600)
    if completed.returncode != 0:
        raise SystemExit(completed.stderr[-2000:])
    return completed.stdout.strip().splitlines()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    args = parser.parse_args()

    untraced = json.loads(_run(args.workload, args.seed, args.seconds, 0)[-1])["metrics"]
    traced_lines = _run(args.workload, args.seed, args.seconds, 1)
    layers = json.loads(next(line[7:] for line in traced_lines if line.startswith("LAYERS ")))
    e2e = layers["e2e_s"]
    print(f"{args.workload} seed {args.seed}: traced end-to-end {e2e:.3f} s over the measured operations")
    print(f"  {'layer':<16} {'self s':>10} {'share':>8}")
    for layer, seconds in sorted(layers["layers"].items(), key=lambda item: -item[1]):
        print(f"  {layer:<16} {seconds:>10.4f} {seconds / e2e:>8.1%}")
    program = sum(seconds for layer, seconds in layers["layers"].items() if layer != "bench")
    print(f"  program layers cover {program / e2e:.1%} of the traced end-to-end time")
    per_layer = json.loads(traced_lines[-1])["metrics"]
    print("  per-layer metrics: " + ", ".join(
        f"{name} {entry['value']:.4g} {entry['unit']}" for name, entry in per_layer.items() if entry["value"]
    ))
    for operation, median_s in layers["operation_median_s"].items():
        if operation not in UNTRACED:
            continue
        metric, scale = UNTRACED[operation]
        plain = untraced[metric]["value"] * scale
        print(f"  {operation}: traced median {median_s:.6g} s, untraced {metric} {plain:.6g} s, "
              f"overhead {median_s / plain - 1:+.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
