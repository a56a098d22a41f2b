"""The server process of the server workloads: ForestEngine → CORGIService → CORGIHTTPServer.

Started by the load process with ``python3 corgibench/server_child.py``.  It
builds the serving tree with priors from the city's check-ins, starts the
HTTP server on an ephemeral port, prints ``READY <port>`` and serves until a
``stop`` line arrives on stdin.  It then prints ``DONE <json>`` with its peak
RSS and, when traced, writes its spans to ``--spans-out``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import measures  # noqa: E402
import tracing  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans-out", default="")
    args = parser.parse_args()

    recorder = tracing.Recorder("server")
    if args.trace:
        tracing.install_server_side(recorder)

    from repro.server.engine import ForestEngine, ServerConfig
    from repro.service.http import CORGIHTTPServer
    from repro.service.service import CORGIService
    from repro.tree.priors import priors_from_checkins

    tree = inputs.build_tree(inputs.SERVE_TREE)
    priors_from_checkins(tree, inputs.city_checkins(tree))
    engine = ForestEngine(tree, ServerConfig(max_workers=1))
    server = CORGIHTTPServer(CORGIService(engine), port=0).start()
    print(f"READY {server.port}", flush=True)
    for line in sys.stdin:
        if line.strip() == "stop":
            break
    server.shutdown()
    if args.trace and args.spans_out:
        Path(args.spans_out).write_text(json.dumps(recorder.dump()))
    print("DONE " + json.dumps({"peak_rss_mb": measures.peak_rss_mb()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
