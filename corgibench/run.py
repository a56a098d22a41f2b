"""Run one benchmark workload and print its result as the last line of stdout.

Usage (from the repository root)::

    python3 corgibench/run.py --workload warm_serve --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps every
layer's entry points, prints the per-layer metrics and writes the spans to
``.corgibench/trace-<workload>-<seed>.json``.  Before the result the run
prints ``INPUTS`` (seed and input digest) and ``FAULTS`` (operations
attempted and failed per round, by fault) lines.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".corgibench"


def _import_program():
    if not (ROOT / "src" / "repro").is_dir():
        print(f"the program's sources are missing: {ROOT / 'src' / 'repro'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("cold_k49", "warm_serve", "priors_refresh"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    _import_program()

    import checks
    import report
    from measures import percentile
    import tracing
    import workloads

    recorder = tracing.Recorder("load") if args.trace else tracing.NullRecorder("load")
    spans_out = None
    if args.trace:
        tracing.install_client_side(recorder)
        if args.workload == "cold_k49":
            tracing.install_server_side(recorder)
        OUT_DIR.mkdir(exist_ok=True)
        spans_out = OUT_DIR / f"server-spans-{args.workload}-{args.seed}.json"
    try:
        run = workloads.WORKLOADS[args.workload](args.seed, args.seconds, recorder, spans_out)
    except checks.CheckFailed as error:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1

    print("INPUTS " + json.dumps({"workload": args.workload, "seed": args.seed, "digest": run.inputs_digest}))
    print("FAULTS " + json.dumps(report.fault_summary(run)))
    if args.trace:
        server_spans = []
        if spans_out.exists():
            server_spans = json.loads(spans_out.read_text())
            spans_out.unlink()
        analysis = report.analyse_trace(recorder.dump(), server_spans)
        trace_path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(json.dumps({"layers": analysis["layers"], "spans": analysis["spans"]}))
        layers = {key: analysis[key] for key in ("layers", "e2e_s", "operation_median_s")}
        print("LAYERS " + json.dumps(layers))
        metrics = report.per_layer_metrics(run, analysis)
    else:
        factor = run.speed.factor()
        raw = {name: entry["value"] for name, entry in report.end_to_end_metrics(run).items()}
        tail = {f"report_ms.p{q}": percentile(run.report_ms, q) for q in (90, 99)}
        probes = len(run.speed.samples)
        print("RAW " + json.dumps({"speed_factor": factor, "probes": probes, "metrics": raw, "tail": tail}))
        metrics = report.end_to_end_metrics(run, factor)
    print(json.dumps({"correct": True, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
