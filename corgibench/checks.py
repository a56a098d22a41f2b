"""Property checks on the program's outputs, computed apart from the program.

Each property is declared once here, with its tolerance, and every workload
calls the same function.  Geometry is rebuilt from the cell ids alone: a node
id ``h<res>:<q>:<r>`` names a hexagon by its axial coordinates, the 12
neighbours of Section 4.2 are the 6 immediate and 6 diagonal axial offsets,
and every graph edge weighs the immediate-neighbour spacing ``a`` of the hex
plane (Lemma 4.1).  Planar distances follow from the axial differences; great
circle distances would come out ~1.5e-4 shorter and flag binding constraints.

The δ-prunability audits at the bottom are not checks that stop a run: they
measure the named fault (matrices that are not δ-prunable, Def. 4.2) and
return the failing cases so the workloads can count them.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

#: Row sums and non-negativity of a stochastic matrix.
ROW_SUM_ATOL = 1e-9
#: Edge-wise ε-Geo-Ind slack: the LP solver's primal feasibility tolerance.
GEO_IND_ATOL = 1e-7
#: A pruned row whose remaining mass is at most this is a zero-mass row
#: (the threshold the client's pruning refuses at).
ZERO_MASS = 1e-12
#: Published priors against the benchmark's own normalization.
PRIORS_ATOL = 1e-12

#: The six immediate and six diagonal axial neighbour offsets.
IMMEDIATE = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))
DIAGONAL = ((1, 1), (-1, 2), (-2, 1), (-1, -1), (1, -2), (2, -1))

#: Name of the fault every failed operation is counted under.
FAULT = "not_delta_prunable"


class CheckFailed(AssertionError):
    """An output broke a declared property; the run stops and reports ``correct: false``."""


# ---------------------------------------------------------------------- #
# Geometry from cell ids
# ---------------------------------------------------------------------- #


def axial(node_id: str) -> Tuple[int, int, int]:
    """``(resolution, q, r)`` of a cell id ``h<res>:<q>:<r>``."""
    resolution, q, r = node_id[1:].split(":")
    return int(resolution), int(q), int(r)


def spacing_km(base_edge_km: float, resolution: int) -> float:
    """Immediate-neighbour centre spacing ``a`` at *resolution* (edge shrinks by √7 per level)."""
    return math.sqrt(3.0) * base_edge_km / math.sqrt(7.0) ** resolution


def planar_distances(node_ids: Sequence[str], base_edge_km: float) -> np.ndarray:
    """Centre distances of same-resolution cells: ``a·sqrt(dq² + dq·dr + dr²)``."""
    coords = np.array([axial(node_id) for node_id in node_ids])
    if len(set(coords[:, 0])) != 1:
        raise ValueError("planar_distances needs cells of one resolution")
    dq = coords[:, None, 1] - coords[None, :, 1]
    dr = coords[:, None, 2] - coords[None, :, 2]
    return spacing_km(base_edge_km, int(coords[0, 0])) * np.sqrt(dq * dq + dq * dr + dr * dr)


def neighbour_pairs(node_ids: Sequence[str]) -> np.ndarray:
    """Ordered index pairs ``(i, j)`` of 12-neighbours among *node_ids* (both directions)."""
    index = {axial(node_id)[1:]: position for position, node_id in enumerate(node_ids)}
    pairs = []
    for position, node_id in enumerate(node_ids):
        _, q, r = axial(node_id)
        for dq, dr in IMMEDIATE + DIAGONAL:
            other = index.get((q + dq, r + dr))
            if other is not None:
                pairs.append((position, other))
    return np.array(pairs, dtype=int).reshape(-1, 2)


# ---------------------------------------------------------------------- #
# Properties
# ---------------------------------------------------------------------- #


def check_stochastic(values: np.ndarray, label: str) -> None:
    """Rows non-negative and summing to 1 within :data:`ROW_SUM_ATOL`."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise CheckFailed(f"{label}: matrix is not square, shape {values.shape}")
    if not np.all(np.isfinite(values)) or values.min() < -ROW_SUM_ATOL:
        raise CheckFailed(f"{label}: negative or non-finite entry (min {values.min():.3g})")
    excess = float(np.abs(values.sum(axis=1) - 1.0).max())
    if excess > ROW_SUM_ATOL:
        raise CheckFailed(f"{label}: a row sums to 1 ± {excess:.3g}")


def check_covers(node_ids: Sequence[str], expected: Iterable[str], label: str) -> None:
    """The matrix covers exactly its range's leaves (each once)."""
    expected = set(expected)
    if len(node_ids) != len(set(node_ids)) or set(node_ids) != expected:
        missing = sorted(expected - set(node_ids))[:3]
        extra = sorted(set(node_ids) - expected)[:3]
        raise CheckFailed(f"{label}: covers the wrong leaves (missing {missing}, extra {extra})")


def geo_ind_excess(
    values: np.ndarray, pairs: np.ndarray, distances: np.ndarray, epsilon: float
) -> np.ndarray:
    """``z_ik - e^{ε d_ij} z_jk`` for every listed pair and column (positive = violated)."""
    if len(pairs) == 0:
        return np.zeros((0, values.shape[1]))
    factors = np.exp(epsilon * distances)[:, None]
    return values[pairs[:, 0]] - factors * values[pairs[:, 1]]


def check_edge_geo_ind(
    values: np.ndarray, node_ids: Sequence[str], epsilon: float, base_edge_km: float, label: str
) -> None:
    """ε-Geo-Ind on every 12-neighbour edge within :data:`GEO_IND_ATOL` (edges weigh ``a``)."""
    pairs = neighbour_pairs(node_ids)
    resolution = axial(node_ids[0])[0]
    distances = np.full(len(pairs), spacing_km(base_edge_km, resolution))
    excess = geo_ind_excess(np.asarray(values, dtype=float), pairs, distances, epsilon)
    worst = float(excess.max()) if excess.size else 0.0
    if worst > GEO_IND_ATOL:
        raise CheckFailed(f"{label}: an edge breaks ε-Geo-Ind by {worst:.3g}")


def check_report(
    reported_id: str,
    range_ids: Iterable[str],
    precision_level: int,
    reported_level: int,
    pruned_ids: Iterable[str],
    label: str,
) -> None:
    """The report lies in the real range, at the policy's precision level, outside the prune set."""
    if reported_level != precision_level:
        raise CheckFailed(f"{label}: reported level {reported_level}, policy asks {precision_level}")
    if reported_id not in set(range_ids):
        raise CheckFailed(f"{label}: reported {reported_id} lies outside the real location's range")
    if reported_id in set(pruned_ids):
        raise CheckFailed(f"{label}: reported {reported_id}, which the user pruned")


class ByteIdentity:
    """All fetches of one key within one priors generation return identical bytes."""

    def __init__(self) -> None:
        self._seen: Dict[Tuple[object, ...], bytes] = {}

    def observe(self, key: Tuple[object, ...], generation: int, body_digest: bytes) -> None:
        first = self._seen.setdefault((generation,) + tuple(key), body_digest)
        if first != body_digest:
            raise CheckFailed(f"key {key} generation {generation}: two fetches differ in their bytes")


def normalized(masses: Mapping[str, float]) -> Dict[str, float]:
    """The benchmark's own normalization of published leaf masses."""
    total = math.fsum(masses.values())
    return {node_id: mass / total for node_id, mass in masses.items()}


def check_priors(served: Mapping[str, float], expected: Mapping[str, float], label: str) -> None:
    """``GET /priors/<range>`` equals the benchmark's normalization of what was published."""
    if set(served) != set(expected):
        raise CheckFailed(f"{label}: served priors name other leaves than published")
    worst = max(abs(float(served[node_id]) - expected[node_id]) for node_id in expected)
    if worst > PRIORS_ATOL:
        raise CheckFailed(f"{label}: served priors differ from the published ones by {worst:.3g}")


# ---------------------------------------------------------------------- #
# δ-prunability audits (the named fault)
# ---------------------------------------------------------------------- #


def prune(values: np.ndarray, pruned: Sequence[int]) -> Tuple[Optional[np.ndarray], List[int]]:
    """Remove rows/columns *pruned* and renormalize; ``None`` when a row keeps no mass."""
    keep = [index for index in range(values.shape[0]) if index not in set(pruned)]
    block = values[np.ix_(keep, keep)]
    mass = block.sum(axis=1)
    if mass.min() <= ZERO_MASS:
        return None, keep
    return block / mass[:, None], keep


def pruning_fault(
    values: np.ndarray,
    node_ids: Sequence[str],
    pruned: Sequence[int],
    epsilon: float,
    base_edge_km: float,
) -> Optional[str]:
    """Why pruning *pruned* breaks Def. 4.2, or ``None`` when it does not.

    ``"zero_mass_row"`` -- a remaining row had all its mass on pruned
    columns; ``"geo_ind_after_prune"`` -- the renormalized matrix breaks
    ε-Geo-Ind on a remaining neighbour edge beyond :data:`GEO_IND_ATOL`.
    """
    customized, keep = prune(values, pruned)
    if customized is None:
        return "zero_mass_row"
    try:
        check_edge_geo_ind(customized, [node_ids[i] for i in keep], epsilon, base_edge_km, "pruned")
    except CheckFailed:
        return "geo_ind_after_prune"
    return None


def all_pairs_violations(
    values: np.ndarray, node_ids: Sequence[str], epsilon: float, base_edge_km: float
) -> Tuple[int, int, float]:
    """ε-Geo-Ind over every ordered pair at its planar distance: (violations, constraints, max excess)."""
    size = len(node_ids)
    pairs = np.array([(i, j) for i in range(size) for j in range(size) if i != j], dtype=int)
    distances = planar_distances(node_ids, base_edge_km)[pairs[:, 0], pairs[:, 1]]
    excess = geo_ind_excess(np.asarray(values, dtype=float), pairs, distances, epsilon)
    return int((excess > GEO_IND_ATOL).sum()), int(excess.size), float(excess.max())
