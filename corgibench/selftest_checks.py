"""The benchmark's own tests: every check fails on a broken input and passes on a sound one.

Run with ``python3 -m pytest corgibench/selftest_checks.py -q`` from the
repository root (the file name keeps it out of the repository's test run).
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import measures  # noqa: E402
import tracing  # noqa: E402

BASE_EDGE = 1280.0
EPSILON = 15.0
#: A centre cell and its six immediate neighbours at resolution 9.
FLOWER = ["h9:0:0"] + [f"h9:{dq}:{dr}" for dq, dr in checks.IMMEDIATE]


def uniform(size: int) -> np.ndarray:
    return np.full((size, size), 1.0 / size)


def test_geometry_from_cell_ids():
    a = checks.spacing_km(BASE_EDGE, 9)
    assert a == pytest.approx(math.sqrt(3) * BASE_EDGE / 7**4.5)
    distances = checks.planar_distances(["h9:0:0", "h9:1:0", "h9:1:1"], BASE_EDGE)
    assert distances[0, 1] == pytest.approx(a)
    assert distances[0, 2] == pytest.approx(math.sqrt(3) * a)
    pairs = {tuple(pair) for pair in checks.neighbour_pairs(FLOWER)}
    # Centre-petal (6), adjacent petals (6 immediate), petals two apart (6 diagonal);
    # opposite petals are two steps apart in a straight line, so not neighbours.
    assert {(0, j) for j in range(1, 7)} <= pairs
    assert len(pairs) == 2 * (6 + 6 + 6)


def test_stochastic_rejects_negative_and_bad_sums():
    checks.check_stochastic(uniform(7), "ok")
    broken = uniform(7)
    broken[0, 0] -= 1e-6
    with pytest.raises(checks.CheckFailed):
        checks.check_stochastic(broken, "sum")
    negative = uniform(2)
    negative[0] = [1.1, -0.1]
    with pytest.raises(checks.CheckFailed):
        checks.check_stochastic(negative, "negative")


def test_covers_rejects_missing_extra_and_duplicate_leaves():
    checks.check_covers(FLOWER, FLOWER, "ok")
    for node_ids in (FLOWER[:-1], FLOWER + ["h9:5:5"], FLOWER[:-1] + [FLOWER[0]]):
        with pytest.raises(checks.CheckFailed):
            checks.check_covers(node_ids, FLOWER, "broken")


def test_edge_geo_ind_rejects_a_violating_edge():
    checks.check_edge_geo_ind(uniform(7), FLOWER, EPSILON, BASE_EDGE, "ok")
    with pytest.raises(checks.CheckFailed):
        checks.check_edge_geo_ind(np.eye(7), FLOWER, EPSILON, BASE_EDGE, "identity")
    # Two neighbours whose column ratio sits exactly at e^{εa} pass; 1e-6 beyond fails.
    ratio = math.exp(EPSILON * checks.spacing_km(BASE_EDGE, 9))
    pair = ["h9:0:0", "h9:1:0"]
    tight = np.array([[ratio, 1.0], [1.0, ratio]]) / (1.0 + ratio)
    checks.check_edge_geo_ind(tight, pair, EPSILON, BASE_EDGE, "tight")
    tight[0] += [1e-6, -1e-6]
    with pytest.raises(checks.CheckFailed):
        checks.check_edge_geo_ind(tight, pair, EPSILON, BASE_EDGE, "beyond")


def test_report_check_rejects_each_broken_field():
    checks.check_report("h9:1:0", FLOWER, 0, 0, ["h9:0:1"], "ok")
    with pytest.raises(checks.CheckFailed):
        checks.check_report("h9:1:0", FLOWER, 1, 0, [], "level")
    with pytest.raises(checks.CheckFailed):
        checks.check_report("h9:7:7", FLOWER, 0, 0, [], "range")
    with pytest.raises(checks.CheckFailed):
        checks.check_report("h9:1:0", FLOWER, 0, 0, ["h9:1:0"], "pruned")


def test_byte_identity_within_a_generation_only():
    identity = checks.ByteIdentity()
    identity.observe((1, 3), 0, b"a")
    identity.observe((1, 3), 0, b"a")
    identity.observe((1, 3), 1, b"b")
    identity.observe((1, 2), 0, b"c")
    with pytest.raises(checks.CheckFailed):
        identity.observe((1, 3), 0, b"z")


def test_priors_check_against_own_normalization():
    expected = checks.normalized({"a": 1.0, "b": 3.0})
    assert expected == {"a": 0.25, "b": 0.75}
    checks.check_priors({"a": 0.25, "b": 0.75}, expected, "ok")
    with pytest.raises(checks.CheckFailed):
        checks.check_priors({"a": 0.25 + 1e-9, "b": 0.75}, expected, "value")
    with pytest.raises(checks.CheckFailed):
        checks.check_priors({"a": 0.25}, expected, "leaves")


def test_pruning_audit_names_both_fault_kinds():
    assert checks.pruning_fault(uniform(7), FLOWER, (1, 2, 3), EPSILON, BASE_EDGE) is None
    # Row 0 keeps mass only on column 1: pruning leaf 1 leaves it empty.
    zero_mass = uniform(7)
    zero_mass[0] = 0.0
    zero_mass[0, 1] = 1.0
    assert checks.pruning_fault(zero_mass, FLOWER, (1,), EPSILON, BASE_EDGE) == "zero_mass_row"
    # Sound before pruning, unsound after: pruning C rescales row A by 2 and row B by ~1,
    # so column A's tight ratio z_AA / z_BA = e^{εa} doubles.
    ratio = math.exp(EPSILON * checks.spacing_km(BASE_EDGE, 9))
    z_ba, z_ac = 0.001, 0.5
    z_bc = z_ac / ratio
    values = np.array(
        [
            [ratio * z_ba, 1.0 - ratio * z_ba - z_ac, z_ac],
            [z_ba, 1.0 - z_ba - z_bc, z_bc],
            [1 / 3, 1 / 3, 1 / 3],
        ]
    )
    cells = ["h9:0:0", "h9:1:0", "h9:5:5"]
    checks.check_edge_geo_ind(values, cells, EPSILON, BASE_EDGE, "before")
    assert checks.pruning_fault(values, cells, (2,), EPSILON, BASE_EDGE) == "geo_ind_after_prune"


def test_all_pairs_audit_counts_violations():
    violations, constraints, worst = checks.all_pairs_violations(np.eye(7), FLOWER, EPSILON, BASE_EDGE)
    assert constraints == 7 * 6 * 7
    assert violations == 7 * 6 and worst == pytest.approx(1.0)
    assert checks.all_pairs_violations(uniform(7), FLOWER, EPSILON, BASE_EDGE)[0] == 0


def test_utility_and_attacker_measures():
    distances = checks.planar_distances(FLOWER, BASE_EDGE)
    priors = np.full(7, 1 / 7)
    assert measures.utility_loss_km(np.eye(7), priors, distances) == 0.0
    assert measures.attacker_error_km(np.eye(7), priors, distances) == 0.0
    # Reporting uniformly: the attacker guesses the centre, which is a away from every petal.
    a = checks.spacing_km(BASE_EDGE, 9)
    assert measures.attacker_error_km(uniform(7), priors, distances) == pytest.approx(6 / 7 * a)
    assert measures.utility_loss_km(uniform(7), priors, distances) > measures.attacker_error_km(
        uniform(7), priors, distances
    )


def test_self_times_subtract_covered_children():
    spans = [
        tracing.Span("r", None, "report", "bench", 0.0, 10.0, 0.0),
        tracing.Span("a", "r", "x", "client", 1.0, 4.0, 0.0),
        tracing.Span("b", "r", "y", "policy", 3.0, 6.0, 0.0),
        tracing.Span("c", "a", "z", "tree", 1.0, 2.0, 0.0),
    ]
    own = tracing.self_times(spans)
    assert own == {"r": 5.0, "a": 2.0, "b": 3.0, "c": 1.0}
    assert sum(tracing.layer_self_times(spans).values()) == pytest.approx(11.0)


def test_server_spans_join_the_fetch_that_holds_them():
    client = [
        tracing.Span("load:1", None, "report", "bench", 0.0, 10.0, 0.0),
        tracing.Span("load:2", "load:1", "fetch_forest", "client.fetch", 1.0, 5.0, 0.0),
    ]
    server = [
        tracing.Span("server:1", None, "request", "service.http", 2.0, 4.0, 0.0),
        tracing.Span("server:2", "server:1", "handle", "service", 2.5, 3.0, 0.0),
        tracing.Span("server:3", None, "request", "service.http", 20.0, 21.0, 0.0),
    ]
    linked = tracing.measured(tracing.link_processes(client, server))
    assert {span.id for span in linked} == {"load:1", "load:2", "server:1", "server:2"}
    assert next(span for span in linked if span.id == "server:1").parent == "load:2"
