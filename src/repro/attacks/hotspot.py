"""Hotspot-harvesting attacks (paper §2.1).

Two attacker capabilities from the literature the paper cites:

* **Human-seeded harvesting** (Thorpe & van Oorschot 2007): cluster
  click-points observed from *some* users to find the image's hotspots,
  then guess other users' passwords from the cluster centers.  Implemented
  by :func:`harvest_hotspots` (greedy density-peak extraction) +
  :func:`hotspot_seed_points`.
* **Automated image processing** (Dirik et al. 2007): predict likely
  click-points from the image alone.  Our stand-in reads peaks directly off
  the synthetic salience map (:func:`salience_hotspots`) — the synthetic
  equivalent of a perfect saliency detector, an *upper bound* on automated
  attacks.

Both produce seed-point pools that plug into
:class:`~repro.attacks.dictionary.HumanSeededDictionary`, so the offline
and online attack machinery runs unchanged on harvested or automated seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.batch import as_point_array
from repro.core.scheme import DiscretizationScheme
from repro.errors import AttackError
from repro.geometry.point import Point
from repro.study.dataset import PasswordSample
from repro.study.image import StudyImage
from repro.attacks.dictionary import HumanSeededDictionary

__all__ = [
    "HarvestedHotspot",
    "harvest_hotspots",
    "hotspot_seed_points",
    "hotspot_coverage",
    "salience_hotspots",
    "dictionary_from_hotspots",
]


@dataclass(frozen=True, slots=True)
class HarvestedHotspot:
    """A cluster of observed click-points: center and support."""

    x: int
    y: int
    support: int


def harvest_hotspots(
    observed: Sequence[PasswordSample],
    radius: int = 9,
    max_hotspots: int = 60,
) -> Tuple[HarvestedHotspot, ...]:
    """Greedy density-peak clustering of observed click-points.

    Repeatedly takes the point with the most neighbours within Chebyshev
    *radius* as a hotspot center, removes the neighbourhood, and continues.
    Simple, deterministic, and faithful to how hotspot lists were built in
    the human-seeded-attack literature.

    The pairwise Chebyshev adjacency is computed once up front and
    neighbour counts are maintained incrementally as neighbourhoods are
    claimed, so extraction is O(N²) total instead of O(N²) per hotspot.
    """
    if radius < 0:
        raise AttackError(f"radius must be >= 0, got {radius}")
    if max_hotspots < 1:
        raise AttackError(f"max_hotspots must be >= 1, got {max_hotspots}")
    points: List[Tuple[int, int]] = []
    for sample in observed:
        for point in sample.points:
            points.append((int(point.x), int(point.y)))
    if not points:
        raise AttackError("no observed click-points to harvest")

    coords = np.array(points, dtype=np.int64)
    within = (
        np.maximum(
            np.abs(coords[:, 0][:, None] - coords[:, 0][None, :]),
            np.abs(coords[:, 1][:, None] - coords[:, 1][None, :]),
        )
        <= radius
    )
    alive = np.ones(len(coords), dtype=bool)
    counts = within.sum(axis=1)  # neighbour counts among live points
    hotspots: List[HarvestedHotspot] = []
    while alive.any() and len(hotspots) < max_hotspots:
        # argmax over live points only; ties break toward the lowest
        # original index, like the per-round recomputation did.
        best = int(np.argmax(np.where(alive, counts, -1)))
        hotspots.append(
            HarvestedHotspot(
                x=int(coords[best, 0]),
                y=int(coords[best, 1]),
                support=int(counts[best]),
            )
        )
        # Remove the claimed neighbourhood and discount its members from
        # every remaining point's neighbour count.
        removed = alive & within[best]
        counts -= within[:, removed].sum(axis=1)
        alive &= ~removed
    return tuple(hotspots)


def hotspot_seed_points(
    hotspots: Sequence[HarvestedHotspot], minimum_support: int = 2
) -> Tuple[Point, ...]:
    """Seed-point pool from harvested hotspots, most-supported first."""
    chosen = [h for h in hotspots if h.support >= minimum_support]
    chosen.sort(key=lambda h: -h.support)
    if not chosen:
        raise AttackError(
            f"no hotspot reaches minimum_support={minimum_support}"
        )
    return tuple(Point.xy(h.x, h.y) for h in chosen)


def hotspot_coverage(
    scheme: DiscretizationScheme,
    hotspots: Sequence[HarvestedHotspot],
    targets: Sequence[PasswordSample],
) -> float:
    """Fraction of target click-points captured by hotspot-centered cells.

    Enrolls each hotspot center under *scheme* and asks, via the batch
    engine, what fraction of all target users' click-points would verify
    against at least one of those enrollments — i.e. how much of the
    population's clicking behaviour an attacker guessing only hotspots
    already covers.  Higher coverage means the image/scheme combination
    leaks more of its practical password space to hotspot guessing.
    """
    if not hotspots:
        raise AttackError("no hotspots to measure coverage for")
    clicks: List[Point] = []
    for sample in targets:
        clicks.extend(sample.points)
    if not clicks:
        raise AttackError("no target click-points")
    kernel = scheme.batch()
    points = as_point_array(clicks, scheme.dim)
    covered = np.zeros(len(points), dtype=bool)
    for hotspot in hotspots:
        enrollment = scheme.enroll(Point.xy(hotspot.x, hotspot.y))
        covered |= kernel.accepts(enrollment, points)
    return float(covered.mean())


def salience_hotspots(image: StudyImage, top_n: int = 30) -> Tuple[Point, ...]:
    """Automated-attack stand-in: top salience-map peaks of the image.

    Uses non-maximum suppression with a 9-px Chebyshev window over the
    dense salience map, returning up to *top_n* peak pixels ordered by
    salience.  Models an idealized Dirik-style image-processing attacker.
    """
    if top_n < 1:
        raise AttackError(f"top_n must be >= 1, got {top_n}")
    dense = image.salience_map()
    flat_order = np.argsort(dense, axis=None)[::-1]
    suppression = 9
    peaks: List[Tuple[int, int]] = []
    claimed = np.zeros_like(dense, dtype=bool)
    for flat_index in flat_order:
        y, x = np.unravel_index(int(flat_index), dense.shape)
        if claimed[y, x]:
            continue
        peaks.append((int(x), int(y)))
        if len(peaks) >= top_n:
            break
        y0 = max(0, y - suppression)
        y1 = min(dense.shape[0], y + suppression + 1)
        x0 = max(0, x - suppression)
        x1 = min(dense.shape[1], x + suppression + 1)
        claimed[y0:y1, x0:x1] = True
    return tuple(Point.xy(x, y) for x, y in peaks)


def dictionary_from_hotspots(
    seed_points: Sequence[Point],
    image_name: str,
    tuple_length: int = 5,
) -> HumanSeededDictionary:
    """Wrap a hotspot-derived seed pool as an attack dictionary."""
    return HumanSeededDictionary(
        seed_points=tuple(seed_points),
        tuple_length=tuple_length,
        image_name=image_name,
    )
