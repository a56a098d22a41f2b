"""The three workloads: cold_k49, warm_serve and priors_refresh.

Each workload repeats whole *rounds* of the same operations until the run's
seconds are spent (and until its minimum sample is reached), checks every
output against :mod:`checks`, and counts the operations that hit the named
fault.  A run returns a :class:`Run` from which ``run.py`` prints the result.
"""

from __future__ import annotations

import gc
import itertools
import json
import subprocess
import sys
import time
import urllib.request
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import checks
import inputs
import measures
import tracing
from repro.client.client import CORGIClient
from repro.client.transport import HTTPTransport
from repro.core import precision, pruning
from repro.core.exceptions import PruningError
from repro.policy.attributes import annotate_tree_with_dataset
from repro.policy.evaluation import DeltaOverflowStrategy
from repro.policy.policy import Policy
from repro.server.engine import ForestEngine, ServerConfig
from repro.server.messages import ObfuscationRequest, PrivacyForestResponse

HERE = Path(__file__).resolve().parent
EPSILON = ServerConfig().epsilon
#: Set-ups per run; ``setup_s`` is their median.
SETUPS_COLD = 5
SETUPS_SERVED = 1
#: warm_serve times at least this many successful reports (p99 has 10 beyond it).
MIN_REPORTS = 1000
#: priors_refresh runs at least this many publishes; ``refresh_s`` is their median.
MIN_PUBLISHES = 2
SERVE_DELTAS = (1, 2, 3)
REFRESH_DELTAS = (1, 3)
#: Users reporting after each publish in priors_refresh.
REFRESH_FLEET = 250
#: Operations between two host-speed probes (see :class:`measures.HostSpeed`).
PROBE_EVERY = 50


@dataclass
class Run:
    """What one run measured."""

    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    faults: Counter = field(default_factory=Counter)
    setup_s: List[float] = field(default_factory=list)
    cold_forest_s: List[float] = field(default_factory=list)
    refresh_s: List[float] = field(default_factory=list)
    report_ms: List[float] = field(default_factory=list)
    report_wall_s: float = 0.0
    response_bytes: Dict[Tuple, int] = field(default_factory=dict)
    utility_km: List[float] = field(default_factory=list)
    attacker_km: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)
    details: Dict[str, object] = field(default_factory=dict)
    inputs_digest: str = ""
    speed: measures.HostSpeed = field(default_factory=measures.HostSpeed)

    def fail(self, fault: str) -> None:
        self.failed += 1
        self.faults[f"{checks.FAULT}/{fault}"] += 1


# ---------------------------------------------------------------------- #
# Shared pieces
# ---------------------------------------------------------------------- #


class City:
    """The load process's view of the city: tree, check-ins, masses, and each leaf's ancestors."""

    def __init__(self, shape: Dict[str, int], privacy_level: int, *, attributes: bool) -> None:
        self.tree = inputs.build_tree(shape)
        self.dataset = inputs.city_checkins(self.tree)
        self.masses = inputs.raw_leaf_masses(self.tree, self.dataset)
        self.tree.set_leaf_priors(self.masses, normalize=True)
        if attributes:
            annotate_tree_with_dataset(self.tree, self.dataset)
        #: leaf id -> its ancestor ids at levels 0..privacy_level.
        self.ancestors = {
            leaf.node_id: [
                self.tree.ancestor_at_level(leaf.node_id, level).node_id for level in range(privacy_level + 1)
            ]
            for leaf in self.tree.leaves()
        }
        self.leaves_of: Dict[str, List[str]] = {}
        for leaf_id, chain in self.ancestors.items():
            self.leaves_of.setdefault(chain[privacy_level], []).append(leaf_id)
        self.range_of = {leaf_id: chain[privacy_level] for leaf_id, chain in self.ancestors.items()}
        self.base_edge_km = self.tree.grid.base_edge_km
        self.leaf_resolution = self.tree.leaf_resolution

    def level_of(self, node_id: str) -> int:
        return self.leaf_resolution - checks.axial(node_id)[0]

    def check_served(self, matrix, range_id: str, label: str) -> None:
        """The properties every served (unpruned) matrix has."""
        checks.check_stochastic(matrix.values, label)
        checks.check_covers(matrix.node_ids, self.leaves_of[range_id], label)
        checks.check_edge_geo_ind(matrix.values, matrix.node_ids, EPSILON, self.base_edge_km, label)

    def kept(self, leaf_id: str, pruned: Sequence[str]) -> List[str]:
        return [other for other in self.leaves_of[self.range_of[leaf_id]] if other not in set(pruned)]

    def check_customized(self, matrix, leaf_id: str, pruned: Sequence[str], level: int, label: str) -> None:
        """A customized matrix is stochastic over the unpruned leaves of the range (or their ancestors)."""
        checks.check_stochastic(matrix.values, label)
        expected = {self.ancestors[other][level] for other in self.kept(leaf_id, pruned)}
        checks.check_covers(matrix.node_ids, expected, label)

    def loss(self, matrix, leaf_id: str, pruned: Sequence[str]) -> Tuple[float, float]:
        """(utility loss, attacker error) of a customized matrix under the city's masses."""
        level = self.level_of(matrix.node_ids[0])
        weights = dict.fromkeys(matrix.node_ids, 0.0)
        for other in self.kept(leaf_id, pruned):
            weights[self.ancestors[other][level]] += self.masses[other]
        priors = np.array([weights[node_id] for node_id in matrix.node_ids])
        priors /= priors.sum()
        distances = checks.planar_distances(matrix.node_ids, self.base_edge_km)
        return (
            measures.utility_loss_km(matrix.values, priors, distances),
            measures.attacker_error_km(matrix.values, priors, distances),
        )

    def check_report(self, report: inputs.Report, reported: str, pruned: Sequence[str], label: str) -> None:
        level = report.precision_level
        range_leaves = self.leaves_of[self.range_of[report.leaf_id]]
        range_nodes = {self.ancestors[leaf_id][level] for leaf_id in range_leaves}
        checks.check_report(reported, range_nodes, level, self.level_of(reported), pruned, label)


def _settle() -> None:
    """Collect, then freeze what set-up allocated, so collections while measuring
    scan only what the operations allocate, not the benchmark's own city data."""
    gc.collect()
    gc.freeze()


def _enough(run: Run, started: float, seconds: float, *, min_reports: int = 0, min_rounds: int = 1) -> bool:
    """Whether the run may stop after the round it just finished."""
    return (
        time.perf_counter() - started >= seconds
        and len(run.report_ms) >= min_reports
        and run.rounds >= min_rounds
    )


def _engine_counts(diagnostics: Dict[str, object]) -> Dict[str, float]:
    """The work counters of ``cache_diagnostics()`` the per-layer metrics use."""
    solver = diagnostics["solver"]
    matrix = diagnostics["matrix_stats"]
    return {
        "solver.solves": float(solver["solves"]),
        "solver.warm_solves": float(solver["warm_solves"]),
        "solver.cold_retries": float(solver["cold_retries"]),
        "matrix_cache.hits": float(matrix["hits"]),
        "matrix_cache.misses": float(matrix["misses"]),
        "structure.reuses": float(diagnostics["structure_sharing"]["reuses"]),
    }


def _add(totals: Dict[str, float], more: Dict[str, float], sign: float = 1.0) -> None:
    for name, value in more.items():
        totals[name] = totals.get(name, 0.0) + sign * value


# ---------------------------------------------------------------------- #
# cold_k49
# ---------------------------------------------------------------------- #


def cold_k49(seed: int, seconds: float, recorder: tracing.Recorder, spans_out: Optional[Path]) -> Run:
    """A fresh engine builds the K=49 forest; seeded users customize it; a fixed audit counts the fault.

    The round's first user asks while the forest is cold, so their report
    waits for the build: that is the report the user-facing latency metrics
    time.  The other users customize the built matrix; they are checked and
    feed the utility metrics and the per-layer customization times.
    """
    del spans_out  # one process: its spans are the caller's
    run = Run()
    for _ in range(SETUPS_COLD):
        started = time.perf_counter()
        city = City(inputs.COLD_TREE, 2, attributes=False)
        users = inputs.cold_users(np.random.default_rng(seed), city.tree, city.masses)
        run.setup_s.append(time.perf_counter() - started)
        run.speed.probe()
    run.inputs_digest = inputs.digest(city.dataset, [(user, list(pruned)) for user, pruned in users])
    sample_seeds = np.random.default_rng([seed, 1])
    audit = inputs.audit_prunings(len(city.tree.leaves()))
    _settle()
    measured_from = time.perf_counter()
    while not run.rounds or not _enough(run, measured_from, seconds):
        engine = ForestEngine(city.tree, ServerConfig(max_workers=1))
        seeds = sample_seeds.integers(0, 2**31, size=len(users))
        run.attempted += 2  # the build, and the first user's report
        with recorder.span("bench", "cold_report"):
            started = time.perf_counter()
            forest = engine.build_forest(2, inputs.COLD_DELTA)
            built = time.perf_counter()
            ((range_id, matrix),) = list(forest)
            first = _customize(city, matrix, users[0], seeds[0])
            finished = time.perf_counter()
        # A fresh engine over just-installed priors: the build is also the refresh.
        run.cold_forest_s.append(built - started)
        run.refresh_s.append(built - started)
        run.report_ms.append((finished - started) * 1e3)
        run.report_wall_s += finished - started
        run.speed.probe()
        city.check_served(matrix, range_id, "K=49 forest")
        _check_cold_user(run, city, users[0], first)
        body = json.dumps(PrivacyForestResponse(2, inputs.COLD_DELTA, EPSILON, dict(forest)).to_dict())
        run.response_bytes[("k49", run.rounds)] = len(body.encode("utf-8"))
        _audit_k49(run, matrix, audit, city.base_edge_km)
        for index, (user, sample_seed) in enumerate(zip(users[1:], seeds[1:])):
            if index % PROBE_EVERY == 0:
                run.speed.probe()
            run.attempted += 1
            with recorder.span("bench", "customize"):
                outcome = _customize(city, matrix, user, sample_seed)
            _check_cold_user(run, city, user, outcome)
        _add(run.counts, _engine_counts(engine.cache_diagnostics()))
        run.rounds += 1
    run.peak_rss_mb = measures.peak_rss_mb()
    return run


def _audit_k49(run: Run, matrix, audit: Sequence[Tuple[int, ...]], base_edge_km: float) -> None:
    """The fixed δ-prunability audit: all pairs unpruned (one operation), then each fixed pruning."""
    values, node_ids = matrix.values, matrix.node_ids
    violations, constraints, worst = checks.all_pairs_violations(values, node_ids, EPSILON, base_edge_km)
    run.attempted += 1
    if violations:
        run.fail("all_pairs_geo_ind")
    run.details["k49_all_pairs"] = {"violations": violations, "constraints": constraints, "max_excess": worst}
    for pruned in audit:
        run.attempted += 1
        fault = checks.pruning_fault(values, node_ids, pruned, EPSILON, base_edge_km)
        if fault is not None:
            run.fail(fault)


def _customize(city: City, matrix, user, sample_seed) -> Tuple:
    """One cold user: find the leaf, prune the user's δ leaves, reduce to level 1, sample."""
    report, pruned = user
    leaf = city.tree.leaf_for_latlng(report.lat, report.lng)
    customized = pruning.prune_matrix(matrix, pruned)
    reduced = precision.precision_reduction(customized, city.tree, report.precision_level)
    row = city.ancestors[leaf.node_id][report.precision_level]
    return leaf, customized, reduced, reduced.sample(row, seed=int(sample_seed))


def _check_cold_user(run: Run, city: City, user, outcome) -> None:
    """Checks of one cold user's report (ε-Geo-Ind after pruning is the fault: the audit measures it)."""
    (report, pruned), (leaf, customized, reduced, reported) = user, outcome
    label = f"cold report {report.user}"
    if leaf.node_id != report.leaf_id:
        raise checks.CheckFailed(f"{label}: tree placed the user in {leaf.node_id}, not {report.leaf_id}")
    city.check_customized(customized, report.leaf_id, pruned, 0, label)
    city.check_customized(reduced, report.leaf_id, pruned, report.precision_level, label)
    city.check_report(report, reported, pruned, label)
    utility, attacker = city.loss(reduced, report.leaf_id, pruned)
    run.utility_km.append(utility)
    run.attacker_km.append(attacker)


# ---------------------------------------------------------------------- #
# The server process and the client fleet
# ---------------------------------------------------------------------- #


class ServerProcess:
    """One server child process; :meth:`close` stops it and waits for it."""

    def __init__(self, trace: bool, spans_out: Optional[Path]) -> None:
        command = [sys.executable, str(HERE / "server_child.py"), "--trace", str(int(trace))]
        if spans_out is not None:
            command += ["--spans-out", str(spans_out)]
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=str(HERE.parent)
        )
        self.peak_rss_mb = 0.0
        line = self.process.stdout.readline()
        if not line.startswith("READY "):
            self.close()
            raise RuntimeError(f"server process did not start (it said {line!r})")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"

    def close(self) -> None:
        if self.process.poll() is not None:
            return
        try:
            self.process.stdin.write("stop\n")
            self.process.stdin.flush()
            for line in self.process.stdout:
                if line.startswith("DONE "):
                    self.peak_rss_mb = float(json.loads(line[5:])["peak_rss_mb"])
            self.process.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.process.kill()
            self.process.wait()


class Fleet:
    """The clients of the server workloads; every report they make is checked."""

    def __init__(self, city: City, url: str, run: Run) -> None:
        self.city = city
        self.run = run
        self.url = url
        self.transport = HTTPTransport(url, timeout_s=120.0)
        self.bodies = tracing.install_body_recorder()
        self.client = CORGIClient(
            city.tree, self.transport, overflow_strategy=DeltaOverflowStrategy.FAVOR_PRIVACY
        )
        self.identity = checks.ByteIdentity()
        self.generation = 0
        self._checked = set()
        self._losses: Dict[Tuple, Tuple[float, float]] = {}

    def _observe_body(self, delta: int) -> None:
        size, body_digest = self.bodies.last_body
        self.identity.observe((1, delta), self.generation, body_digest)
        self.run.response_bytes[(1, delta, self.generation)] = size

    def fetch(self, delta: int) -> PrivacyForestResponse:
        """One ``/forest`` exchange (byte identity recorded; matrices checked by :meth:`check_forest`)."""
        response = self.transport.fetch_forest(ObfuscationRequest(privacy_level=1, delta=delta))
        self._observe_body(delta)
        return response

    def check_forest(self, delta: int, response: PrivacyForestResponse) -> None:
        checks.check_covers(list(response.matrices), self.city.leaves_of, f"forest δ={delta}")
        for range_id, matrix in response.matrices.items():
            self._check_served_once(delta, range_id, matrix)

    def _check_served_once(self, delta: int, range_id: str, matrix) -> None:
        key = (self.generation, delta, range_id)
        if key not in self._checked:
            self.city.check_served(matrix, range_id, f"served δ={delta} {range_id}")
            self._checked.add(key)

    def report(self, report: inputs.Report, sample_seed: int, recorder: tracing.Recorder) -> None:
        """One timed report through ``CORGIClient.obfuscate`` over HTTP, then its checks."""
        policy = Policy(
            privacy_level=report.privacy_level,
            precision_level=report.precision_level,
            preferences=list(report.preferences),
            delta=report.delta,
        )
        self.run.attempted += 1
        try:
            with recorder.span("bench", "report"):
                started = time.perf_counter()
                outcome = self.client.obfuscate(report.lat, report.lng, policy, seed=sample_seed)
                elapsed = time.perf_counter() - started
        except PruningError:
            self._observe_body(report.delta)
            if not report.preferences:
                raise  # nothing was pruned: not the named fault
            self.run.fail("zero_mass_row")
            return
        self.run.report_ms.append(elapsed * 1e3)
        self._observe_body(report.delta)
        self._check_outcome(report, outcome)

    def _check_outcome(self, report: inputs.Report, outcome) -> None:
        city = self.city
        label = f"report {report.user}"
        range_id = city.range_of[report.leaf_id]
        if outcome.real_leaf_id != report.leaf_id or outcome.subtree_root_id != range_id:
            raise checks.CheckFailed(f"{label}: placed in {outcome.real_leaf_id} / {outcome.subtree_root_id}")
        pruned = list(outcome.pruned_ids)
        in_range = set(pruned) <= set(city.leaves_of[range_id])
        if len(pruned) > report.delta or report.leaf_id in pruned or not in_range:
            raise checks.CheckFailed(f"{label}: prune set {pruned} breaks the policy's bounds")
        if any(city.tree.node(leaf_id).attributes.get("popular") for leaf_id in pruned):
            raise checks.CheckFailed(f"{label}: pruned a popular leaf")
        self._check_served_once(report.delta, range_id, outcome.matrix)
        customized = outcome.customized_matrix
        city.check_customized(customized, report.leaf_id, pruned, report.precision_level, label)
        city.check_report(report, outcome.reported_node_id, pruned, label)
        key = (self.generation, report.delta, tuple(customized.node_ids), tuple(pruned))
        if key not in self._losses:
            self._losses[key] = city.loss(customized, report.leaf_id, pruned)
        utility, attacker = self._losses[key]
        self.run.utility_km.append(utility)
        self.run.attacker_km.append(attacker)

    def report_round(self, fleet: Sequence[inputs.Report], sample_seeds, recorder: tracing.Recorder) -> None:
        for offset in range(0, len(fleet), PROBE_EVERY):
            self.run.speed.probe()
            started = time.perf_counter()
            for report, sample_seed in zip(fleet[offset : offset + PROBE_EVERY], sample_seeds[offset:]):
                self.report(report, int(sample_seed), recorder)
            self.run.report_wall_s += time.perf_counter() - started

    def get(self, path: str) -> Dict[str, object]:
        """A plain GET for the benchmark's own probes (diagnostics, published priors)."""
        with urllib.request.urlopen(self.url + path, timeout=60) as response:
            return json.loads(response.read())

    def engine_counts(self) -> Dict[str, float]:
        return _engine_counts(self.get("/admin/diagnostics"))


def _set_up_served(run: Run, deltas: Sequence[int], trace: bool, spans_out: Optional[Path]):
    """Client city, server process and a cold fetch of every key, :data:`SETUPS_SERVED` times.

    The last set-up is kept (and traced, in a traced run); the others are torn down.
    """
    for attempt in range(SETUPS_SERVED):
        last = attempt == SETUPS_SERVED - 1
        started = time.perf_counter()
        city = City(inputs.SERVE_TREE, 1, attributes=True)
        server = ServerProcess(trace and last, spans_out if last else None)
        try:
            fleet = Fleet(city, server.url, run)
            run.speed.probe()
            responses = []
            warm_started = time.perf_counter()
            for delta in deltas:
                fetch_started = time.perf_counter()
                responses.append(fleet.fetch(delta))
                run.cold_forest_s.append(time.perf_counter() - fetch_started)
            # Priors were installed at start-up: serving every key is their refresh.
            run.refresh_s.append(time.perf_counter() - warm_started)
            run.setup_s.append(time.perf_counter() - started)
            run.speed.probe()
            for delta, response in zip(deltas, responses):
                fleet.check_forest(delta, response)
        except BaseException:
            server.close()
            raise
        if not last:
            server.close()
    return city, server, fleet


# ---------------------------------------------------------------------- #
# warm_serve
# ---------------------------------------------------------------------- #


def warm_serve(seed: int, seconds: float, recorder: tracing.Recorder, spans_out: Optional[Path]) -> Run:
    """A seeded fleet reports over HTTP on one connection against warm level-1 forests."""
    run = Run()
    traced = not isinstance(recorder, tracing.NullRecorder)
    city, server, fleet = _set_up_served(run, SERVE_DELTAS, traced, spans_out)
    try:
        reports = inputs.serve_fleet(
            np.random.default_rng(seed), city.tree, city.masses, deltas=SERVE_DELTAS, preference_slots=True
        )
        run.inputs_digest = inputs.digest(city.dataset, reports)
        run.details["k7_exhaustive_3_prunings"] = _exhaustive_k7_audit(fleet, city)
        before = fleet.engine_counts()
        sample_seeds = np.random.default_rng([seed, 1])
        _settle()
        measured_from = time.perf_counter()
        while not run.rounds or not _enough(run, measured_from, seconds, min_reports=MIN_REPORTS):
            fleet.report_round(reports, sample_seeds.integers(0, 2**31, size=len(reports)), recorder)
            run.rounds += 1
        run.counts = fleet.engine_counts()
        _add(run.counts, before, -1.0)
    finally:
        server.close()
    run.peak_rss_mb = server.peak_rss_mb
    return run


def _exhaustive_k7_audit(fleet: Fleet, city: City) -> Dict[str, int]:
    """Every 3-leaf pruning of every δ=3 range (reported for the record; not an operation)."""
    failing = total = 0
    for matrix in fleet.fetch(3).matrices.values():
        for pruned in itertools.combinations(range(matrix.size), 3):
            total += 1
            fault = checks.pruning_fault(matrix.values, matrix.node_ids, pruned, EPSILON, city.base_edge_km)
            failing += fault is not None
    return {"failing": failing, "prunings": total}


# ---------------------------------------------------------------------- #
# priors_refresh
# ---------------------------------------------------------------------- #


def priors_refresh(seed: int, seconds: float, recorder: tracing.Recorder, spans_out: Optional[Path]) -> Run:
    """Publish priors where a seeded few ranges changed, refetch every key, then let the fleet report."""
    run = Run()
    traced = not isinstance(recorder, tracing.NullRecorder)
    city, server, fleet = _set_up_served(run, REFRESH_DELTAS, traced, spans_out)
    try:
        reports = inputs.serve_fleet(
            np.random.default_rng(seed),
            city.tree,
            city.masses,
            deltas=REFRESH_DELTAS,
            preference_slots=False,
            plain_users=REFRESH_FLEET,
        )
        schedule = np.random.default_rng([seed, 2])
        sample_seeds = np.random.default_rng([seed, 1])
        changed_ranges: List[List[str]] = []
        previous = None
        before = fleet.engine_counts()
        _settle()
        measured_from = time.perf_counter()
        while not run.rounds or not _enough(run, measured_from, seconds, min_rounds=MIN_PUBLISHES):
            masses, changed = inputs.publish_masses(schedule, city.tree, city.masses)
            changed_ranges.append(changed)
            run.speed.probe()
            run.attempted += 1 + len(REFRESH_DELTAS)
            with recorder.span("bench", "refresh"):
                started = time.perf_counter()
                fleet.transport.publish_priors(masses)
                fleet.generation += 1
                responses = []
                for delta in REFRESH_DELTAS:
                    fetch_started = time.perf_counter()
                    responses.append(fleet.fetch(delta))
                    run.cold_forest_s.append(time.perf_counter() - fetch_started)
                run.refresh_s.append(time.perf_counter() - started)
            for delta, response in zip(REFRESH_DELTAS, responses):
                fleet.check_forest(delta, response)
            conditional = _check_published_priors(fleet, city, masses)
            if previous is not None:
                _compare_untouched(run, city, previous, (masses, conditional))
            previous = (masses, conditional)
            fleet.report_round(reports, sample_seeds.integers(0, 2**31, size=len(reports)), recorder)
            run.rounds += 1
        run.counts = fleet.engine_counts()
        _add(run.counts, before, -1.0)
        run.inputs_digest = inputs.digest(city.dataset, reports, changed_ranges)
    finally:
        server.close()
    run.peak_rss_mb = server.peak_rss_mb
    return run


def _check_published_priors(fleet: Fleet, city: City, masses: Dict[str, float]) -> Dict[str, np.ndarray]:
    """Check ``GET /priors/<range>`` against the published masses; return each range's conditional priors."""
    expected = checks.normalized(masses)
    conditional = {}
    for range_id, leaf_ids in city.leaves_of.items():
        served = fleet.get(f"/priors/{range_id}")
        checks.check_priors(served, {leaf_id: expected[leaf_id] for leaf_id in leaf_ids}, f"priors {range_id}")
        values = np.array([served[leaf_id] for leaf_id in leaf_ids])
        conditional[range_id] = values / values.sum()
    return conditional


def _compare_untouched(run: Run, city: City, previous, current) -> None:
    """How far the conditional priors of ranges whose masses did not change moved between publishes.

    Recorded for the README's finding: global renormalization perturbs them in
    the last bits, so every sub-tree problem fingerprints anew.
    """
    (old_masses, old_conditional), (masses, conditional) = previous, current
    record = run.details.setdefault("untouched_ranges", {"ranges": 0, "bits_changed": 0, "max_abs_diff": 0.0})
    for range_id, leaf_ids in city.leaves_of.items():
        if any(masses[leaf_id] != old_masses[leaf_id] for leaf_id in leaf_ids):
            continue
        difference = np.abs(conditional[range_id] - old_conditional[range_id]).max()
        record["ranges"] += 1
        record["bits_changed"] += int(not np.array_equal(conditional[range_id], old_conditional[range_id]))
        record["max_abs_diff"] = max(record["max_abs_diff"], float(difference))


WORKLOADS = {"cold_k49": cold_k49, "warm_serve": warm_serve, "priors_refresh": priors_refresh}
