"""Steadiness: run workloads N times on N seeds and print each metric's median and quartiles beside its bound.

Usage (from the repository root)::

    python3 corgibench/steady.py --workloads cold_k49 warm_serve priors_refresh --runs 10

Run ``i`` uses seed ``--first-seed + i``; the workload order alternates from
run to run.  For every end-to-end metric the spread is the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median; it is printed beside the metric's bound from
``BENCHMARK.json`` (``setup_s`` is exempt from the spread rule); the raw
results go to ``.corgibench/steady-<workloads>.json``.  The share
of failed operations must be identical in every run of a workload; the
command prints it with the failures per round by fault, which are the
counts the README quotes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    completed = subprocess.run(command, capture_output=True, text=True, cwd=str(ROOT), timeout=600)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{completed.stderr[-2000:]}")
    result = json.loads(lines[-1])
    faults = next((json.loads(line[7:]) for line in lines if line.startswith("FAULTS ")), {})
    raw = next((json.loads(line[4:]) for line in lines if line.startswith("RAW ")), {})
    return {"result": result, "faults": faults, "raw": raw, "wall_s": time.perf_counter() - started}


def spread_of(values) -> tuple:
    """(median, q1, q3, (q3 - q1) / median) of *values*."""
    q1, middle, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return middle, q1, q3, (q3 - q1) / middle if middle else float("inf")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="+", default=["cold_k49", "warm_serve", "priors_refresh"])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]

    results = {workload: [] for workload in args.workloads}
    for index in range(args.runs):
        order = args.workloads if index % 2 == 0 else list(reversed(args.workloads))
        for workload in order:
            outcome = run_once(workload, args.first_seed + index, seconds, 0)
            results[workload].append(outcome)
            print(f"run {index + 1}/{args.runs} {workload} seed {args.first_seed + index}: "
                  f"{outcome['wall_s']:.1f} s wall", file=sys.stderr, flush=True)

    out = ROOT / ".corgibench"
    out.mkdir(exist_ok=True)
    (out / f"steady-{'-'.join(args.workloads)}.json").write_text(json.dumps(results))
    steady = True
    for workload, outcomes in results.items():
        wall = statistics.median(outcome["wall_s"] for outcome in outcomes)
        print(f"\n{workload}: {len(outcomes)} runs, {wall:.1f} s wall per run (median)")
        factors = [outcome["raw"]["speed_factor"] for outcome in outcomes]
        print(f"  host-speed factor per run: {min(factors):.3f} .. {max(factors):.3f}")
        header = f"{'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}"
        print(f"  {'metric':<20} {'unit':<6} {header}  raw spread")
        for name, bound in bounds.items():
            values = [o["result"]["metrics"][name]["value"] for o in outcomes]
            unit = outcomes[0]["result"]["metrics"][name]["unit"]
            middle, q1, q3, spread = spread_of(values)
            raw_spread = spread_of([o["raw"]["metrics"][name] for o in outcomes])[3]
            verdict = "ok" if spread <= bound / 3 else "WIDE" if spread > bound else "near"
            if name == "setup_s":
                verdict = "(exempt)"
            steady &= verdict != "WIDE"
            row = f"{middle:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.3f} {bound:>6}"
            print(f"  {name:<20} {unit:<6} {row}  {raw_spread:>8.3f}  {verdict}")
        shares = {(o["result"]["failed"], o["result"]["attempted"]) for o in outcomes}
        ratios = {failed / attempted for failed, attempted in shares}
        per_round = {json.dumps(o["faults"].get("per_round")) for o in outcomes}
        faults = {json.dumps(o["faults"].get("faults"), sort_keys=True) for o in outcomes}
        print(f"  failed share per run: {sorted(ratios)} ({'identical' if len(ratios) == 1 else 'DIFFERS'})")
        print(f"  per round: {sorted(per_round)}; faults: {sorted(faults)}")
        print(f"  details: {outcomes[0]['faults'].get('details')}")
        steady &= len(ratios) == 1
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
