"""Seeded inputs of the benchmark: the city, the user fleet and the publish schedule.

Everything a workload feeds the program is generated here, from numpy
generators only; nothing is taken from the program's own data generators
(``repro.loadgen``, ``repro.datasets.synthetic`` / ``gowalla``), so a change
there cannot shift a workload.

Two sources of randomness are kept apart:

* The **city** -- its check-ins, hence the leaf priors, the ``popular``
  attribute and every matrix Algorithm 1 serves at set-up -- comes from the
  fixed :data:`CITY_SEED`.  The fault the benchmark counts (matrices that are
  not δ-prunable) is a property of those matrices, so its count per round is
  the same on every run and every seed.
* The **users and updates** come from ``--seed``: home leaves, positions,
  precision levels and the δ mix of the fleet, the prune sets of the cold
  workload's users, the sampling seeds, and which ranges each priors publish
  changes and by how much.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from datetime import datetime, timedelta
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.datasets.checkin import CheckIn, CheckInDataset
from repro.geometry.haversine import LatLng
from repro.tree.builder import tree_for_point
from repro.tree.location_tree import LocationTree
from repro.tree.priors import checkin_counts_by_cell

#: Fixed seed of the city's check-ins (see the module docstring).
CITY_SEED = 20230328
#: Seed of the fixed pruning audit of the cold workload (seed-independent on purpose).
AUDIT_SEED = 42
CITY_CENTER = LatLng(37.77, -122.42)
#: Height-2 tree: one privacy-level-2 range of 49 leaves (the cold workload).
COLD_TREE = {"height": 2, "root_resolution": 7}
#: Height-3 tree: 343 leaves in 49 privacy-level-1 ranges of 7 (the server workloads).
SERVE_TREE = {"height": 3, "root_resolution": 6}

#: Check-ins per leaf of the city.
CHECKINS_PER_LEAF = 60
CITY_USERS = 400
#: Hotspots and venues per 49 leaves; venues cluster around hotspots and
#: their popularity is Zipf-distributed, so most leaves see few check-ins.
HOTSPOTS_PER_49_LEAVES = 3
VENUES_PER_49_LEAVES = 20
#: Share of check-ins at no venue (spread uniformly over the leaves).
OUTLIER_SHARE = 0.03
#: Additive smoothing of leaf counts, as the program's own prior estimator uses.
PRIOR_SMOOTHING = 0.5

KM_PER_DEG_LAT = 110.574
KM_PER_DEG_LNG_EQUATOR = 111.320


def build_tree(shape: Dict[str, int]) -> LocationTree:
    """The location tree of one workload shape around the city centre."""
    return tree_for_point(CITY_CENTER, height=shape["height"], root_resolution=shape["root_resolution"])


def leaf_edge_km(tree: LocationTree) -> float:
    """Circumradius of a leaf hexagon (the grid's base edge shrinks by √7 per resolution)."""
    return tree.grid.base_edge_km / math.sqrt(7.0) ** tree.leaf_resolution


def _offset(lat: float, lng: float, east_km: float, north_km: float) -> Tuple[float, float]:
    """Move a point by a small planar offset (equirectangular, exact enough below 1 km)."""
    dlat = north_km / KM_PER_DEG_LAT
    dlng = east_km / (KM_PER_DEG_LNG_EQUATOR * math.cos(math.radians(lat)))
    return lat + dlat, lng + dlng


# ---------------------------------------------------------------------- #
# The city
# ---------------------------------------------------------------------- #


def city_checkins(tree: LocationTree, seed: int = CITY_SEED) -> CheckInDataset:
    """Gowalla-like check-ins: Zipf-popular venues clustered around hotspots, plus outliers."""
    rng = np.random.default_rng(seed)
    leaves = tree.leaves()
    centers = np.array([leaf.center.as_tuple() for leaf in leaves])
    spacing = math.sqrt(3.0) * leaf_edge_km(tree)
    hotspots = rng.choice(len(leaves), size=max(2, HOTSPOTS_PER_49_LEAVES * len(leaves) // 49), replace=False)
    num_venues = VENUES_PER_49_LEAVES * len(leaves) // 49
    venue_hotspot = hotspots[rng.integers(0, len(hotspots), size=num_venues)]
    venue_offset = rng.normal(0.0, 2.5 * spacing, size=(num_venues, 2))
    venues = [
        _offset(centers[h, 0], centers[h, 1], float(east), float(north))
        for h, (east, north) in zip(venue_hotspot, venue_offset)
    ]
    popularity = 1.0 / rng.permutation(np.arange(1, num_venues + 1))
    popularity /= popularity.sum()
    total = CHECKINS_PER_LEAF * len(leaves)
    outlier = rng.random(total) < OUTLIER_SHARE
    venue_pick = rng.choice(num_venues, size=total, p=popularity)
    outlier_leaf = rng.integers(0, len(leaves), size=total)
    jitter = rng.normal(0.0, 0.08, size=(total, 2))
    spread = rng.uniform(-0.4, 0.4, size=(total, 2)) * spacing
    users = rng.integers(0, CITY_USERS, size=total)
    seconds = rng.integers(0, 30 * 24 * 3600, size=total)
    start = datetime(2023, 3, 1)
    checkins: List[CheckIn] = []
    for index in range(total):
        if outlier[index]:
            lat, lng = centers[int(outlier_leaf[index])]
            east, north = spread[index]
            location_id = f"x{int(outlier_leaf[index])}"
        else:
            lat, lng = venues[int(venue_pick[index])]
            east, north = jitter[index]
            location_id = f"v{int(venue_pick[index])}"
        lat, lng = _offset(float(lat), float(lng), float(east), float(north))
        checkins.append(
            CheckIn(
                user_id=f"u{int(users[index])}",
                timestamp=start + timedelta(seconds=int(seconds[index])),
                lat=lat,
                lng=lng,
                location_id=location_id,
            )
        )
    return CheckInDataset(checkins, name="bench-city")


def raw_leaf_masses(tree: LocationTree, dataset: CheckInDataset) -> Dict[str, float]:
    """Smoothed check-in counts per leaf: the raw masses the priors are normalized from."""
    counts = checkin_counts_by_cell(tree, dataset)
    return {leaf.node_id: counts.get(leaf.node_id, 0) + PRIOR_SMOOTHING for leaf in tree.leaves()}


# ---------------------------------------------------------------------- #
# Users
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class Report:
    """One location report: where the user really is and the policy they apply."""

    user: str
    leaf_id: str
    lat: float
    lng: float
    privacy_level: int
    precision_level: int
    delta: int
    preferences: Tuple[str, ...]


def position_in_leaf(rng: np.random.Generator, tree: LocationTree, leaf_id: str) -> Tuple[float, float]:
    """A point well inside the leaf hexagon (within 0.3 of its circumradius of the centre)."""
    center = tree.node(leaf_id).center
    radius = 0.3 * leaf_edge_km(tree) * math.sqrt(rng.random())
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return _offset(center.lat, center.lng, radius * math.cos(angle), radius * math.sin(angle))


def prior_weighted_leaves(
    rng: np.random.Generator, masses: Dict[str, float], count: int
) -> List[str]:
    """Home leaves drawn in proportion to the city's check-in masses."""
    leaf_ids = sorted(masses)
    weights = np.array([masses[leaf_id] for leaf_id in leaf_ids])
    picks = rng.choice(len(leaf_ids), size=count, p=weights / weights.sum())
    return [leaf_ids[int(pick)] for pick in picks]


#: The fleet of the server workloads: users without preferences (seeded) ...
PLAIN_USERS = 857
#: ... and one slot per (privacy-level-1 range, δ) carrying ``popular = True``.
PREFERENCE_DELTAS = (1, 2, 3)
POPULAR = ("popular = True",)


def serve_fleet(
    rng: np.random.Generator,
    tree: LocationTree,
    masses: Dict[str, float],
    *,
    deltas: Sequence[int],
    preference_slots: bool,
    plain_users: int = PLAIN_USERS,
) -> List[Report]:
    """One round of reports for the server workloads, in seeded order.

    Plain users carry no preferences; their home leaves (prior-weighted) and
    positions are seeded, while δ and the precision level cycle through every
    combination in equal shares, so the fleet's make-up is the same on every
    seed.  Preference users occupy fixed slots -- for every range and every δ
    in :data:`PREFERENCE_DELTAS`, the range's ``(index + δ) mod 7``-th leaf in
    id order -- because whether such a report hits the named fault depends
    only on the slot; their positions are still seeded.
    """
    reports: List[Report] = []
    for index, leaf_id in enumerate(prior_weighted_leaves(rng, masses, plain_users)):
        lat, lng = position_in_leaf(rng, tree, leaf_id)
        delta = deltas[index % len(deltas)]
        precision_level = (index // len(deltas)) % 2
        reports.append(Report(f"plain-{index}", leaf_id, lat, lng, 1, precision_level, delta, ()))
    if preference_slots:
        for range_index, node in enumerate(tree.nodes_at_level(1)):
            leaf_ids = sorted(leaf.node_id for leaf in tree.descendant_leaves(node.node_id))
            for delta in PREFERENCE_DELTAS:
                leaf_id = leaf_ids[(range_index + delta) % len(leaf_ids)]
                lat, lng = position_in_leaf(rng, tree, leaf_id)
                precision_level = (range_index + delta) % 2
                user = f"slot-{range_index}-{delta}"
                reports.append(Report(user, leaf_id, lat, lng, 1, precision_level, delta, POPULAR))
    order = rng.permutation(len(reports))
    return [reports[int(index)] for index in order]


#: Users of the cold workload per round, each pruning δ = 3 seeded leaves.
COLD_USERS = 1000
COLD_DELTA = 3
#: Prunings of the fixed δ-prunability audit per cold build.
AUDIT_PRUNINGS = 200


def cold_users(
    rng: np.random.Generator, tree: LocationTree, masses: Dict[str, float]
) -> List[Tuple[Report, Tuple[str, ...]]]:
    """Seeded users of the K=49 range with the δ leaves each prunes (never their own)."""
    leaf_ids = sorted(masses)
    users = []
    for index, leaf_id in enumerate(prior_weighted_leaves(rng, masses, COLD_USERS)):
        others = [other for other in leaf_ids if other != leaf_id]
        pruned = tuple(sorted(others[int(i)] for i in rng.choice(len(others), COLD_DELTA, replace=False)))
        lat, lng = position_in_leaf(rng, tree, leaf_id)
        report = Report(f"cold-{index}", leaf_id, lat, lng, 2, 1, COLD_DELTA, ())
        users.append((report, pruned))
    return users


def audit_prunings(num_leaves: int) -> List[Tuple[int, ...]]:
    """The fixed δ-prunability audit: :data:`AUDIT_PRUNINGS` 3-leaf sets from :data:`AUDIT_SEED`."""
    rng = np.random.default_rng(AUDIT_SEED)
    return [
        tuple(sorted(int(i) for i in rng.choice(num_leaves, COLD_DELTA, replace=False)))
        for _ in range(AUDIT_PRUNINGS)
    ]


# ---------------------------------------------------------------------- #
# Priors updates
# ---------------------------------------------------------------------- #

#: Ranges whose check-in mass changes in one publish.
RANGES_PER_PUBLISH = 3


def publish_masses(
    rng: np.random.Generator, tree: LocationTree, base: Dict[str, float]
) -> Tuple[Dict[str, float], List[str]]:
    """Raw leaf masses of one publish: a seeded few ranges gain check-ins, the rest keep theirs."""
    ranges = tree.nodes_at_level(1)
    changed = sorted(ranges[int(i)].node_id for i in rng.choice(len(ranges), RANGES_PER_PUBLISH, replace=False))
    masses = dict(base)
    for range_id in changed:
        for leaf in tree.descendant_leaves(range_id):
            masses[leaf.node_id] = base[leaf.node_id] + float(rng.poisson(2.0 * base[leaf.node_id] + 1.0))
    return masses, changed


# ---------------------------------------------------------------------- #
# Digest
# ---------------------------------------------------------------------- #


def digest(*parts: object) -> str:
    """sha256 of the canonical JSON of the generated inputs (printed by every run)."""
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(json.dumps(part, sort_keys=True, default=_plain).encode("utf-8"))
    return hasher.hexdigest()[:16]


def _plain(value: object) -> object:
    if isinstance(value, Report):
        return asdict(value)
    if isinstance(value, CheckInDataset):
        return [(c.user_id, c.timestamp.isoformat(), round(c.lat, 9), round(c.lng, 9)) for c in value]
    raise TypeError(f"cannot digest {type(value).__name__}")
