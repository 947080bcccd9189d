"""Human-seeded attack dictionaries (paper §5.1).

The paper's attack dictionary is built from 30 lab-study passwords per
image: their 150 click-points seed "all possible 5-click-point permutations"
— ordered tuples of distinct seed points — giving ≈ 2^36 entries per image.
Enumerating 2^36 hashes is the attacker's cost, not the analyst's: whether
*any* entry cracks a password, and exactly *how many* do, can be computed in
closed form from the per-position match sets.

* A password is cracked by some entry  ⟺  the bipartite graph between
  click positions and matching seed points has a perfect matching on the
  positions (Hall's condition); we decide this with a tiny augmenting-path
  matcher (5 positions × 150 points).
* The exact number of cracking entries is the permanent of the 5×150
  biadjacency matrix, computed by Möbius inversion over the partition
  lattice of the 5 positions (52 partitions — exact and fast).

For attackers that cannot afford full enumeration (online attacks), the
dictionary also yields entries **best-first by popularity**: tuples ordered
by the product of their points' empirical seed popularity, via lazy heap
expansion.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.core.batch import BatchDiscretization, as_point_array
from repro.core.scheme import Discretization, DiscretizationScheme
from repro.errors import AttackError
from repro.geometry.point import Point
from repro.study.dataset import PasswordSample

__all__ = [
    "HumanSeededDictionary",
    "INJECTIVE_CACHE_MAXSIZE",
    "set_partitions",
    "partition_moebius_weight",
]


def set_partitions(items: Sequence[int]) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    """Yield all partitions of *items* into non-empty blocks.

    Standard recursive construction; Bell(5) = 52 partitions for the
    classic 5-click case.
    """
    items = list(items)
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub_partition in set_partitions(rest):
        # first joins an existing block...
        for index, block in enumerate(sub_partition):
            yield (
                sub_partition[:index]
                + ((first,) + block,)
                + sub_partition[index + 1 :]
            )
        # ...or starts its own.
        yield ((first,),) + sub_partition


def partition_moebius_weight(partition: Tuple[Tuple[int, ...], ...]) -> int:
    """Möbius weight of a partition in the injective-count inversion.

    For counting injective tuples from per-position candidate sets:
    ``Σ_partitions  Π_blocks (-1)^(|B|-1) (|B|-1)! · |∩_{j∈B} m_j|``.
    This function returns the ``Π_blocks (-1)^(|B|-1) (|B|-1)!`` factor.
    """
    weight = 1
    for block in partition:
        size = len(block)
        weight *= (-1) ** (size - 1) * math.factorial(size - 1)
    return weight


#: Bound on the injective-count memo.  Long-lived processes (the parallel
#: engine's pooled workers grinding millions of accounts) would otherwise
#: grow the memo without limit; 4096 distinct match structures comfortably
#: covers a whole field-study image while capping the per-process footprint.
INJECTIVE_CACHE_MAXSIZE = 4096


@functools.lru_cache(maxsize=INJECTIVE_CACHE_MAXSIZE)
def _count_injective_cached(canonical_sets: Tuple[Tuple[int, ...], ...]) -> int:
    """Memoized injective-tuple count for a canonicalized match-set key.

    The key is the position-order-canonicalized match sets (the count is a
    permanent, invariant under permuting positions), so attack loops over
    many passwords that induce the same match structure — common on
    hotspot-heavy images — pay the Möbius inversion once.

    Before recursing into the Bell-number partition sum, positions are
    short-circuited: any empty match set zeroes the count outright, and a
    singleton position must take its only seed point, which removes that
    point from every other position's set and shrinks the partition
    lattice one position at a time.
    """
    sets = [set(s) for s in canonical_sets]
    while True:
        if any(not s for s in sets):
            return 0
        singleton = next((i for i, s in enumerate(sets) if len(s) == 1), None)
        if singleton is None:
            break
        value = next(iter(sets[singleton]))
        sets = [s - {value} for i, s in enumerate(sets) if i != singleton]
    if not sets:
        return 1
    total = 0
    for partition in set_partitions(range(len(sets))):
        term = partition_moebius_weight(partition)
        for block in partition:
            common = set.intersection(*[sets[j] for j in block])
            term *= len(common)
            if term == 0:
                break
        total += term
    return total


@dataclass(frozen=True)
class HumanSeededDictionary:
    """The attacker's dictionary: seed click-points and derived machinery.

    Attributes
    ----------
    seed_points:
        The flattened pool of observed click-points (150 for the paper's
        30×5 configuration).
    tuple_length:
        Entry length (5 for classic PassPoints).
    image_name:
        The image the seeds were harvested from (entries only make sense
        against passwords on the same image).
    """

    seed_points: Tuple[Point, ...]
    tuple_length: int = 5
    image_name: str = ""

    def __post_init__(self) -> None:
        if self.tuple_length < 1:
            raise AttackError(f"tuple_length must be >= 1, got {self.tuple_length}")
        if len(self.seed_points) < self.tuple_length:
            raise AttackError(
                f"need at least {self.tuple_length} seed points, got "
                f"{len(self.seed_points)}"
            )

    # -- construction -------------------------------------------------------

    @classmethod
    def from_lab_passwords(
        cls, samples: Sequence[PasswordSample], tuple_length: int = 5
    ) -> "HumanSeededDictionary":
        """Build the dictionary from lab-study passwords (paper's method)."""
        if not samples:
            raise AttackError("need at least one lab password")
        image_names = {s.image_name for s in samples}
        if len(image_names) != 1:
            raise AttackError(
                f"lab passwords span multiple images: {sorted(image_names)}"
            )
        points: List[Point] = []
        for sample in samples:
            points.extend(sample.points)
        return cls(
            seed_points=tuple(points),
            tuple_length=tuple_length,
            image_name=image_names.pop(),
        )

    # -- size ----------------------------------------------------------------

    @property
    def entry_count(self) -> int:
        """Number of entries: ordered tuples of distinct seed points.

        For the paper's 150-point pool and 5-click tuples this is
        P(150, 5) = 150·149·148·147·146 ≈ 2^36.05 — the "36-bit
        dictionary" of Figures 7–8.
        """
        n = len(self.seed_points)
        return math.perm(n, self.tuple_length)

    @property
    def bits(self) -> float:
        """log2 of the entry count."""
        return math.log2(self.entry_count)

    # -- cracking decision ------------------------------------------------------

    def match_sets(
        self, accepts: Callable[[int, Point], bool]
    ) -> Tuple[Tuple[int, ...], ...]:
        """Per-position sets of seed-point indices accepted at that position.

        *accepts(position, point)* is the oracle "would this seed point,
        placed at this click position, fall in the stored cell?" — supplied
        by the offline attack, which knows the stored public material.
        """
        return tuple(
            tuple(
                index
                for index, point in enumerate(self.seed_points)
                if accepts(position, point)
            )
            for position in range(self.tuple_length)
        )

    def seed_array(self) -> "np.ndarray":
        """The seed pool as an ``(N, dim)`` float64 array for batch kernels.

        Built once and cached (the dataclass is frozen, so the pool can
        never change); the cached array is read-only.  Per-password attack
        loops can therefore call this freely.
        """
        cached = self.__dict__.get("_seed_array")
        if cached is None:
            cached = as_point_array(self.seed_points)
            cached.flags.writeable = False
            self.__dict__["_seed_array"] = cached
        return cached

    def match_sets_batch(
        self,
        scheme: "DiscretizationScheme",
        enrollments: Sequence["Discretization"],
    ) -> Tuple[Tuple[int, ...], ...]:
        """Vectorized :meth:`match_sets` against per-position enrollments.

        One :meth:`~repro.core.batch.BatchKernel.accepts` call per click
        position tests the entire seed pool against that position's stored
        cell.  For a whole password enrolled through
        :func:`~repro.core.batch.discretize_batch`, prefer
        :meth:`match_mask_batch`, which answers all positions in a single
        kernel call.
        """
        if len(enrollments) != self.tuple_length:
            raise AttackError(
                f"expected {self.tuple_length} enrollments, got "
                f"{len(enrollments)}"
            )
        kernel = scheme.batch()
        seeds = self.seed_array()
        return tuple(
            tuple(int(i) for i in np.nonzero(kernel.accepts(enrollment, seeds))[0])
            for enrollment in enrollments
        )

    def match_mask_batch(
        self,
        scheme: "DiscretizationScheme",
        enrollment: "BatchDiscretization",
    ) -> "np.ndarray":
        """``(positions, N)`` acceptance mask in **one** kernel call.

        *enrollment* is a whole password discretized at once via
        :func:`~repro.core.batch.discretize_batch` (one row per click
        position).  The seed pool is tiled against every position's
        stored public material and located in a single vectorized call,
        so the per-password attack cost is one ``(positions·N, dim)``
        array pass instead of ``positions`` separate kernel calls.
        """
        positions = len(enrollment)
        if positions != self.tuple_length:
            raise AttackError(
                f"expected {self.tuple_length} enrolled positions, got "
                f"{positions}"
            )
        kernel = scheme.batch()
        seeds = self.seed_array()
        pool = len(seeds)
        tiled_seeds = np.tile(seeds, (positions, 1))
        tiled_public = np.repeat(enrollment.public, pool, axis=0)
        tiled_secret = np.repeat(enrollment.secret, pool, axis=0)
        located = kernel.locate(tiled_seeds, tiled_public)
        return np.all(located == tiled_secret, axis=1).reshape(positions, pool)

    @staticmethod
    def match_sets_from_mask(mask: "np.ndarray") -> Tuple[Tuple[int, ...], ...]:
        """Convert a :meth:`match_mask_batch` mask to per-position index sets."""
        return tuple(
            tuple(int(i) for i in np.nonzero(row)[0]) for row in mask
        )

    @staticmethod
    def has_injective_assignment(match_sets: Sequence[Sequence[int]]) -> bool:
        """Whether distinct seed points can fill every position.

        Augmenting-path bipartite matching with positions on the small side;
        O(positions² · points) worst case, trivial at 5×150.
        """
        assigned: dict[int, int] = {}  # seed index -> position

        def try_assign(position: int, banned: set) -> bool:
            for seed in match_sets[position]:
                if seed in banned:
                    continue
                banned.add(seed)
                if seed not in assigned or try_assign(assigned[seed], banned):
                    assigned[seed] = position
                    return True
            return False

        return all(try_assign(position, set()) for position in range(len(match_sets)))

    def cracks(self, accepts: Callable[[int, Point], bool]) -> bool:
        """Whether *any* dictionary entry cracks the target password."""
        return self.has_injective_assignment(self.match_sets(accepts))

    @staticmethod
    def count_injective_assignments(match_sets: Sequence[Sequence[int]]) -> int:
        """Exact number of ordered distinct-point tuples filling all positions.

        Permanent of the position×seed biadjacency matrix via Möbius
        inversion over position partitions: distinctness of seed points is
        handled exactly, with Bell(tuple_length) terms.  The computation is
        memoized on the canonicalized match sets (the permanent is
        position-order invariant) and short-circuits empty and singleton
        positions before touching the partition lattice — this is the
        per-password CPU hotspot of the known-identifier attack loop.
        """
        key = tuple(sorted(tuple(sorted(set(m))) for m in match_sets))
        return _count_injective_cached(key)

    @staticmethod
    def assignment_cache_info() -> "functools._CacheInfo":
        """Hit/miss/size statistics of the injective-count memo.

        The memo is process-wide and bounded at
        :data:`INJECTIVE_CACHE_MAXSIZE` entries; these stats let tests and
        long-running attack loops confirm both that the cache is earning
        its keep (hits on hotspot-heavy images) and that it cannot grow
        without bound.
        """
        return _count_injective_cached.cache_info()

    @staticmethod
    def assignment_cache_clear() -> None:
        """Reset the injective-count memo (mainly for test isolation)."""
        _count_injective_cached.cache_clear()

    def matching_entry_count(self, accepts: Callable[[int, Point], bool]) -> int:
        """Exact number of dictionary entries that crack the target."""
        return self.count_injective_assignments(self.match_sets(accepts))

    # -- prioritized enumeration ---------------------------------------------------

    def popularity_scores(self) -> Tuple[float, ...]:
        """Empirical popularity of each seed point.

        A point observed (near-)identically several times in the seed pool
        is more popular; we count neighbours within Chebyshev distance 5 as
        "the same spot".  The pairwise count is vectorized in row chunks,
        so peak memory stays bounded (a few million matrix elements) even
        for the 10^5-point pools the batch engine targets.
        """
        xs = np.array([int(p.x) for p in self.seed_points], dtype=np.int64)
        ys = np.array([int(p.y) for p in self.seed_points], dtype=np.int64)
        n = len(xs)
        counts = np.empty(n, dtype=np.int64)
        chunk = max(1, 4_000_000 // n)
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            chebyshev = np.maximum(
                np.abs(xs[start:stop, None] - xs[None, :]),
                np.abs(ys[start:stop, None] - ys[None, :]),
            )
            counts[start:stop] = (chebyshev <= 5).sum(axis=1)
        return tuple(float(c) for c in counts)

    def prioritized_entries(self, limit: int) -> Iterator[Tuple[Point, ...]]:
        """Yield up to *limit* entries, best-first by popularity product.

        Lazy best-first search over the sorted seed list: start from the
        top tuple (indices 0..k-1 of the popularity-sorted order) and
        expand one index at a time, deduplicating via a visited set.
        Entries with repeated seed points are skipped (dictionary entries
        are ordered tuples of distinct points).
        """
        if limit < 0:
            raise AttackError(f"limit must be >= 0, got {limit}")
        scores = self.popularity_scores()
        order = sorted(
            range(len(self.seed_points)), key=lambda i: -scores[i]
        )
        k = self.tuple_length

        def tuple_score(ranks: Tuple[int, ...]) -> float:
            product = 1.0
            for rank in ranks:
                product *= scores[order[rank]]
            return product

        start = tuple(range(k))
        heap = [(-tuple_score(start), start)]
        visited = {start}
        yielded = 0
        while heap and yielded < limit:
            negative_score, ranks = heapq.heappop(heap)
            indices = tuple(order[rank] for rank in ranks)
            if len(set(indices)) == k:
                yield tuple(self.seed_points[i] for i in indices)
                yielded += 1
            for slot in range(k):
                bumped = ranks[slot] + 1
                if bumped >= len(self.seed_points):
                    continue
                successor = ranks[:slot] + (bumped,) + ranks[slot + 1 :]
                if successor in visited:
                    continue
                visited.add(successor)
                heapq.heappush(heap, (-tuple_score(successor), successor))

    def enumerate_all(self) -> Iterator[Tuple[Point, ...]]:
        """Exhaustive entry enumeration (only sane for tiny seed pools).

        Provided for test cross-validation of the closed-form machinery;
        guarded against accidental 2^36-entry iteration.
        """
        if self.entry_count > 2_000_000:
            raise AttackError(
                f"refusing to enumerate {self.entry_count} entries; use the "
                "closed-form cracks()/matching_entry_count() instead"
            )
        yield from itertools.permutations(self.seed_points, self.tuple_length)
