"""Utility and privacy of the matrices the users apply, computed with numpy from the matrices.

Both measures take a square matrix over one set of same-resolution cells,
the priors of its rows and the planar distances between the cells
(:func:`checks.planar_distances`).  Neither samples, so they read the same
on every run for the same matrices.
"""

from __future__ import annotations

import json
import resource
import time
from typing import Dict, Iterable, List, Sequence

import numpy as np
from scipy.optimize import linprog


def utility_loss_km(values: np.ndarray, priors: np.ndarray, distances: np.ndarray) -> float:
    """Prior-weighted expected distance from the real to the reported location."""
    return float((priors[:, None] * values * distances).sum())


def attacker_error_km(values: np.ndarray, priors: np.ndarray, distances: np.ndarray) -> float:
    """Expected error of a Bayes attacker who knows priors and matrix.

    For every reported cell the attacker guesses the cell that minimises the
    posterior expected distance to the real one; the error is that minimum,
    weighted by how often the cell is reported.
    """
    joint = priors[:, None] * values  # P(real i, reported c)
    expected_cost = distances @ joint  # [guess j, reported c] = Σ_i d(j, i) P(i, c)
    return float(expected_cost.min(axis=0).sum())


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default)."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values: Iterable[float]) -> float:
    return float(np.median(np.asarray(list(values), dtype=float)))


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


class HostSpeed:
    """How fast the host runs right now, from a fixed probe repeated through the run.

    The reference machine is a shared virtual machine whose speed drifts by
    up to ±45% over minutes (and ~2× between second-long spells) for the
    same work.  A run probes a fixed unit of the kinds of work the program
    does -- a small HiGHS LP, Python dict work, a JSON round trip -- between
    its operations, and scales its times by ``REFERENCE_S / median(probes)``:
    times at the speed the probe takes :data:`REFERENCE_S`.  Raw times are
    printed alongside.
    """

    #: Probe time defining the reference speed (only ratios between runs matter).
    REFERENCE_S = 0.025

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        size = 49
        self._lp = {
            "c": rng.random(size),
            "A_ub": rng.random((300, size)) - 0.5,
            "b_ub": rng.random(300),
            "A_eq": np.kron(np.eye(7), np.ones(7)),
            "b_eq": np.ones(7),
        }
        self._payload = {"values": rng.random((size, size)).tolist()}
        self.samples: List[float] = []

    def probe(self) -> None:
        started = time.perf_counter()
        linprog(bounds=(0.0, 1.0), method="highs", **self._lp)
        squares = {str(index): index * index for index in range(8000)}
        sum(squares.values())
        json.loads(json.dumps(self._payload))
        self.samples.append(time.perf_counter() - started)

    def factor(self) -> float:
        """Multiply a measured time by this to express it at the reference speed."""
        return self.REFERENCE_S / median(self.samples)
