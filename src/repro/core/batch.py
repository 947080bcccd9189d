"""NumPy-vectorized batch discretization kernels.

The scalar schemes in :mod:`repro.core` follow the paper in using exact
rational arithmetic, one click-point at a time.  That is the *reference
implementation*: always correct, never fast.  Dictionary and brute-force
attacks, experiment sweeps and password-space analyses are batch
workloads — the same scheme applied to 10⁵–10⁷ click-points — so this
module provides float64 kernels that operate on ``(N, dim)`` arrays and
answer "which of these N points verify?" in a handful of vector ops.

Three entry points mirror the scalar API:

* :func:`discretize_batch` — vectorized :meth:`~repro.core.scheme.DiscretizationScheme.enroll`
  over an ``(N, dim)`` array, returning a :class:`BatchDiscretization`;
* :func:`verify_batch` — vectorized
  :meth:`~repro.core.scheme.DiscretizationScheme.accepts`: one enrolled
  discretization against N candidates (the attack shape), or N enrollments
  against N candidates pairwise;
* :func:`acceptance_region_batch` — vectorized
  :meth:`~repro.core.scheme.DiscretizationScheme.acceptance_region`,
  returning ``(lo, hi)`` corner arrays.

Each is a thin wrapper over a per-scheme :class:`BatchKernel`, obtained
from :meth:`DiscretizationScheme.batch` (one kernel is cached per scheme
instance; grid partition tables are further LRU-cached per distinct grid
in :mod:`repro.geometry.grid`).

**Float exactness.**  The kernels compute in float64 rather than exact
rationals.  For the data this library handles that loses nothing: cell
boundaries of the paper's schemes are rationals with denominators in
{1, 2, 3, 6} while click-points are integer pixels, so the smallest
boundary-to-coordinate gap (1/6 px) exceeds accumulated float error by
~10 orders of magnitude, and comparisons land on the same side as exact
arithmetic (the same argument under which the attack code already used
float comparisons).  The one subtlety is Robust grid selection: two grids
can have *exactly* equal margins under exact arithmetic, and the two float
computations of that shared value may differ by 1 ulp.  The kernel treats
margins within a small epsilon (``1e-9·(1+r)``, far below the 1/6 minimum
spacing of genuinely distinct margins, far above float error) as tied and
breaks toward the lowest grid identifier — the same tie-break as the
scalar path, so enrollments agree bit-for-bit on pixel data; the property
tests in ``tests/test_core_batch.py`` assert exactly that.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from repro.errors import (
    DimensionMismatchError,
    EnrollmentError,
    ParameterError,
    VerificationError,
)
from repro.geometry.grid import grid_float_table
from repro.geometry.point import Point
from repro.core.scheme import Discretization, DiscretizationScheme

__all__ = [
    "BatchDiscretization",
    "BatchKernel",
    "CenteredBatchKernel",
    "RobustBatchKernel",
    "StaticBatchKernel",
    "as_point_array",
    "batch_kernel_for",
    "discretize_batch",
    "verify_batch",
    "acceptance_region_batch",
]

#: Anything the batch API accepts as a set of points.
PointArrayLike = Union["np.ndarray", Sequence[Point], Sequence[Sequence[float]]]


def as_point_array(points: PointArrayLike, dim: int | None = None) -> np.ndarray:
    """Coerce *points* to a C-contiguous float64 array of shape ``(N, dim)``.

    Accepts an ``(N, dim)`` array, a sequence of :class:`Point`, or a
    sequence of coordinate tuples.  A single :class:`Point` or 1-D array is
    promoted to one row.  Fraction coordinates go through ``float()``
    (correctly rounded).

    Parameters
    ----------
    points:
        The points to convert.
    dim:
        Expected dimensionality; when given, a mismatch raises
        :class:`~repro.errors.DimensionMismatchError`.
    """
    if isinstance(points, Point):
        array = np.array([points.as_floats()], dtype=np.float64)
    elif isinstance(points, np.ndarray):
        if points.size == 0:
            raise ParameterError("points must contain at least one point")
        array = np.ascontiguousarray(points, dtype=np.float64)
        if array.ndim == 1:
            array = array.reshape(1, -1)
    else:
        rows = [
            p.as_floats() if isinstance(p, Point) else [float(c) for c in p]
            for p in points
        ]
        if not rows:
            raise ParameterError("points must contain at least one point")
        if len({len(r) for r in rows}) > 1:
            raise ParameterError(
                "points have inconsistent dimensionality: "
                f"{sorted({len(r) for r in rows})}"
            )
        array = np.array(rows, dtype=np.float64).reshape(len(rows), -1)
    if array.ndim != 2:
        raise ParameterError(
            f"points must be an (N, dim) array, got shape {array.shape}"
        )
    if not np.isfinite(array).all():
        raise ParameterError("points contain non-finite coordinates")
    if dim is not None and array.shape[1] != dim:
        raise DimensionMismatchError(
            f"points are {array.shape[1]}-D, scheme is {dim}-D"
        )
    return array


@dataclass(frozen=True)
class BatchDiscretization:
    """N discretizations in columnar (structure-of-arrays) form.

    Attributes
    ----------
    scheme_name:
        Name of the scheme that produced the batch.
    public:
        Clear-text material, one row per point.  Centered: ``(N, dim)``
        float64 offsets ``d``; Robust: ``(N,)`` int64 grid identifiers;
        static: ``(N, 0)`` (nothing is stored in the clear).
    secret:
        ``(N, dim)`` int64 segment/cell index vectors (the hashed part).
    """

    scheme_name: str
    public: np.ndarray
    secret: np.ndarray

    def __post_init__(self) -> None:
        if self.secret.ndim != 2:
            raise ParameterError(
                f"secret must be (N, dim), got shape {self.secret.shape}"
            )
        if len(self.public) != len(self.secret):
            raise ParameterError(
                f"public has {len(self.public)} rows, secret has "
                f"{len(self.secret)}"
            )

    def __len__(self) -> int:
        return len(self.secret)

    @property
    def count(self) -> int:
        """Number of discretized points in the batch."""
        return len(self.secret)

    @property
    def dim(self) -> int:
        """Dimensionality of the discretized points."""
        return self.secret.shape[1]

    def row(self, index: int) -> Discretization:
        """The *index*-th entry as a scalar :class:`Discretization`.

        Centered offsets come back as floats (the batch engine's working
        precision), not the scalar path's exact rationals.
        """
        secret = tuple(int(v) for v in self.secret[index])
        public_row = self.public[index]
        if self.public.ndim == 1:  # robust: grid identifier
            public: Tuple = (int(public_row),)
        else:
            public = tuple(float(v) for v in public_row)
        return Discretization(public=public, secret=secret)


class BatchKernel(abc.ABC):
    """Vectorized counterpart of one :class:`DiscretizationScheme` instance.

    Obtained via :meth:`DiscretizationScheme.batch`; stateless beyond
    float64 copies of the scheme's parameters, so one kernel serves any
    number of batches concurrently.
    """

    def __init__(self, scheme: DiscretizationScheme) -> None:
        self._scheme = scheme

    @property
    def scheme(self) -> DiscretizationScheme:
        """The scalar scheme this kernel mirrors."""
        return self._scheme

    @property
    def dim(self) -> int:
        """Dimensionality of the underlying scheme."""
        return self._scheme.dim

    # -- abstract ----------------------------------------------------------

    @abc.abstractmethod
    def enroll(self, points: PointArrayLike) -> BatchDiscretization:
        """Vectorized enrollment of ``(N, dim)`` points."""

    @abc.abstractmethod
    def locate(self, points: PointArrayLike, public: np.ndarray) -> np.ndarray:
        """Vectorized verification-side index vectors.

        *public* must have one row (broadcast to all points) or one row
        per point.  Returns ``(N, dim)`` int64 indices.
        """

    @abc.abstractmethod
    def acceptance_bounds(
        self, discretization: Union[Discretization, BatchDiscretization]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized acceptance regions: ``(lo, hi)`` arrays of ``(N, dim)``.

        Regions are half-open boxes ``[lo, hi)``, matching the scalar
        :meth:`~repro.core.scheme.DiscretizationScheme.acceptance_region`.
        """

    # -- derived -----------------------------------------------------------

    def accepts(
        self,
        discretization: Union[Discretization, BatchDiscretization],
        candidates: PointArrayLike,
    ) -> np.ndarray:
        """Boolean mask of candidates that verify against *discretization*.

        A scalar :class:`Discretization` (or a 1-row batch) is tested
        against every candidate — the attack shape, "which of these N
        guesses falls in the stored cell?".  An N-row
        :class:`BatchDiscretization` is tested pairwise against N
        candidates.
        """
        public, secret = self._material(discretization)
        points = as_point_array(candidates, self.dim)
        if len(secret) not in (1, len(points)):
            raise DimensionMismatchError(
                f"{len(secret)} discretizations cannot pair with "
                f"{len(points)} candidates"
            )
        located = self.locate(points, public)
        return np.all(located == secret, axis=1)

    def _material(
        self, discretization: Union[Discretization, BatchDiscretization]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Normalize scalar or batch discretizations to (public, secret) arrays."""
        if isinstance(discretization, BatchDiscretization):
            return discretization.public, discretization.secret
        if isinstance(discretization, Discretization):
            return (
                self._public_array(discretization.public),
                np.array([discretization.secret], dtype=np.int64),
            )
        raise ParameterError(
            f"expected a Discretization or BatchDiscretization, got "
            f"{type(discretization).__name__}"
        )

    def public_rows(self, publics: Sequence[Tuple]) -> np.ndarray:
        """Stack scalar public tuples into one kernel-shaped public array.

        One row per input tuple, in order, shaped as :meth:`locate`
        expects for this scheme (Centered: ``(N, dim)`` float offsets;
        Robust: ``(N,)`` int identifiers; static: ``(N, 0)``).  This is
        how row-oriented stores (per-account
        :class:`~repro.passwords.system.StoredPassword` publics) feed the
        columnar batch engine.
        """
        if not publics:
            raise ParameterError("publics must contain at least one tuple")
        return np.concatenate(
            [self._public_array(public) for public in publics], axis=0
        )

    @abc.abstractmethod
    def _public_array(self, public: Tuple) -> np.ndarray:
        """Scheme-specific conversion of scalar public material to one row."""


class CenteredBatchKernel(BatchKernel):
    """Vectorized Centered Discretization (paper §3).

    Enrollment: ``i = ⌊(x − r)/2r⌋``, ``d = (x − r) mod 2r`` per axis, all
    N points at once.  Verification: ``⌊(x′ − d)/2r⌋ == i``.
    """

    def __init__(self, scheme: DiscretizationScheme) -> None:
        super().__init__(scheme)
        self._r = float(scheme.r)  # type: ignore[attr-defined]
        self._two_r = float(scheme.cell_size)

    def enroll(self, points: PointArrayLike) -> BatchDiscretization:
        """Vectorized centered enrollment: secrets ``i``, publics ``d``."""
        pts = as_point_array(points, self.dim)
        shifted = pts - self._r
        secret = np.floor_divide(shifted, self._two_r).astype(np.int64)
        public = np.mod(shifted, self._two_r)
        return BatchDiscretization(
            scheme_name=self._scheme.name, public=public, secret=secret
        )

    def locate(self, points: PointArrayLike, public: np.ndarray) -> np.ndarray:
        """``⌊(x′ − d)/2r⌋`` per axis under stored offsets *public*."""
        pts = as_point_array(points, self.dim)
        offsets = np.asarray(public, dtype=np.float64)
        if offsets.ndim != 2 or offsets.shape[1] != self.dim:
            raise VerificationError(
                f"centered: offsets must be (N, {self.dim}), got shape "
                f"{offsets.shape}"
            )
        return np.floor_divide(pts - offsets, self._two_r).astype(np.int64)

    def acceptance_bounds(
        self, discretization: Union[Discretization, BatchDiscretization]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Half-open cubes of side 2r centered on the enrolled points."""
        public, secret = self._material(discretization)
        lo = np.asarray(public, dtype=np.float64) + secret * self._two_r
        return lo, lo + self._two_r

    def _public_array(self, public: Tuple) -> np.ndarray:
        if len(public) != self.dim:
            raise VerificationError(
                f"centered: expected {self.dim} offsets, got {len(public)}"
            )
        return np.array([[float(d) for d in public]], dtype=np.float64)


class RobustBatchKernel(BatchKernel):
    """Vectorized Robust Discretization (Birget et al., paper §2.2).

    Margins of all N points in all ``dim + 1`` candidate grids are computed
    as one ``(N, G, dim)`` tensor; grid selection (FIRST_SAFE or
    MOST_CENTERED) reduces over the grid axis.  RANDOM_SAFE is supported by
    drawing one uniform per point from the scheme's rng.
    """

    def __init__(self, scheme: DiscretizationScheme) -> None:
        super().__init__(scheme)
        grids = [scheme.grid(g) for g in range(scheme.grid_count)]  # type: ignore[attr-defined]
        tables = [grid_float_table(g) for g in grids]
        self._sizes = np.stack([t[0] for t in tables])  # (G, dim)
        self._offsets = np.stack([t[1] for t in tables])  # (G, dim)
        self._r = float(scheme.r)  # type: ignore[attr-defined]
        # Margins of the paper's rational tolerances are >= 1/6 apart when
        # they differ at all, so an epsilon far below that (but far above
        # accumulated float64 error) lets exact-arithmetic ties be
        # recognized as ties and broken toward the lowest grid identifier,
        # matching the scalar reference bit-for-bit.
        self._eps = 1e-9 * (1.0 + self._r)

    @property
    def grid_count(self) -> int:
        """Number of candidate grids (dim + 1)."""
        return len(self._sizes)

    def margins(self, points: PointArrayLike) -> np.ndarray:
        """``(N, G)`` margins: distance of each point to its nearest cell
        edge in each candidate grid.  A point is r-safe in grid g iff
        ``margins[n, g] >= r``.
        """
        pts = as_point_array(points, self.dim)
        rel = pts[:, None, :] - self._offsets[None, :, :]
        frac = np.mod(rel, self._sizes[None, :, :])
        return np.minimum(frac, self._sizes[None, :, :] - frac).min(axis=2)

    def _choose(self, margins: np.ndarray) -> np.ndarray:
        """Apply the scheme's grid-selection policy to a margin matrix."""
        from repro.core.robust import GridSelection

        safe = margins >= self._r - self._eps
        if not bool(safe.any(axis=1).all()):
            unsafe = int(np.argmin(safe.any(axis=1)))
            raise EnrollmentError(
                f"robust: no r-safe grid for point row {unsafe} with "
                f"r={self._r!r}"
            )
        selection = self._scheme.selection  # type: ignore[attr-defined]
        if selection is GridSelection.FIRST_SAFE:
            return np.argmax(safe, axis=1)
        if selection is GridSelection.RANDOM_SAFE:
            rng = self._scheme._rng  # type: ignore[attr-defined]
            counts = safe.sum(axis=1)
            draws = np.asarray([rng() for _ in range(len(safe))])
            picks = np.minimum((draws * counts).astype(np.int64), counts - 1)
            rank = np.cumsum(safe, axis=1) - 1
            return np.argmax(safe & (rank == picks[:, None]), axis=1)
        # MOST_CENTERED: the global max-margin grid is necessarily safe
        # (its margin >= the best safe margin >= r).  Grids within eps of
        # the max are exact-arithmetic ties; pick the lowest identifier,
        # matching the scalar tie-break.
        max_margin = margins.max(axis=1, keepdims=True)
        return np.argmax(margins >= max_margin - self._eps, axis=1)

    def enroll(self, points: PointArrayLike) -> BatchDiscretization:
        """Pick an r-safe grid per point and discretize all points in it."""
        pts = as_point_array(points, self.dim)
        chosen = self._choose(self.margins(pts))
        secret = np.floor_divide(
            pts - self._offsets[chosen], self._sizes[chosen]
        ).astype(np.int64)
        return BatchDiscretization(
            scheme_name=self._scheme.name,
            public=chosen.astype(np.int64),
            secret=secret,
        )

    def _identifiers(self, public: np.ndarray) -> np.ndarray:
        identifiers = np.asarray(public)
        if identifiers.ndim != 1:
            raise VerificationError(
                f"robust: grid identifiers must be a 1-D array, got shape "
                f"{identifiers.shape}"
            )
        if not np.issubdtype(identifiers.dtype, np.integer):
            raise VerificationError(
                f"robust: grid identifiers must be integers, got dtype "
                f"{identifiers.dtype}"
            )
        if identifiers.size and (
            identifiers.min() < 0 or identifiers.max() >= self.grid_count
        ):
            raise VerificationError(
                f"robust: grid identifier out of range [0, {self.grid_count - 1}]"
            )
        return identifiers

    def locate(self, points: PointArrayLike, public: np.ndarray) -> np.ndarray:
        """Cell indices of *points* in their stored grids."""
        pts = as_point_array(points, self.dim)
        identifiers = self._identifiers(public)
        return np.floor_divide(
            pts - self._offsets[identifiers], self._sizes[identifiers]
        ).astype(np.int64)

    def acceptance_bounds(
        self, discretization: Union[Discretization, BatchDiscretization]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The stored grid-squares as ``(lo, hi)`` corner arrays."""
        public, secret = self._material(discretization)
        identifiers = self._identifiers(public)
        sizes = self._sizes[identifiers]
        lo = self._offsets[identifiers] + secret * sizes
        return lo, lo + sizes

    def _public_array(self, public: Tuple) -> np.ndarray:
        if len(public) != 1:
            raise VerificationError(
                f"robust: expected 1 grid identifier, got {len(public)}"
            )
        identifier = public[0]
        if isinstance(identifier, bool) or not isinstance(identifier, int):
            raise VerificationError(
                f"robust: grid identifier must be an int, got {identifier!r}"
            )
        return np.array([identifier], dtype=np.int64)


class StaticBatchKernel(BatchKernel):
    """Vectorized static-grid discretization (the edge-problem baseline)."""

    def __init__(self, scheme: DiscretizationScheme) -> None:
        super().__init__(scheme)
        sizes, offsets = grid_float_table(scheme.grid)  # type: ignore[attr-defined]
        self._cell_sizes = sizes
        self._offsets = offsets

    def enroll(self, points: PointArrayLike) -> BatchDiscretization:
        """Map every point to its fixed-grid cell; public stays empty."""
        pts = as_point_array(points, self.dim)
        secret = np.floor_divide(pts - self._offsets, self._cell_sizes).astype(
            np.int64
        )
        return BatchDiscretization(
            scheme_name=self._scheme.name,
            public=np.empty((len(pts), 0), dtype=np.float64),
            secret=secret,
        )

    def locate(self, points: PointArrayLike, public: np.ndarray) -> np.ndarray:
        """Fixed-grid cell indices; *public* must be empty per row."""
        shape = np.asarray(public).shape
        if shape[-1] != 0:
            raise VerificationError(
                f"static: expected no public material, got shape {shape}"
            )
        pts = as_point_array(points, self.dim)
        return np.floor_divide(pts - self._offsets, self._cell_sizes).astype(
            np.int64
        )

    def acceptance_bounds(
        self, discretization: Union[Discretization, BatchDiscretization]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The fixed cells the enrolled points fell into."""
        _, secret = self._material(discretization)
        lo = self._offsets + secret * self._cell_sizes
        return lo, lo + self._cell_sizes

    def _public_array(self, public: Tuple) -> np.ndarray:
        if public:
            raise VerificationError(
                f"static: expected no public material, got {public!r}"
            )
        return np.empty((1, 0), dtype=np.float64)


def batch_kernel_for(scheme: DiscretizationScheme) -> BatchKernel:
    """Build the vectorized kernel matching *scheme*'s concrete type.

    Prefer :meth:`DiscretizationScheme.batch`, which caches the kernel on
    the scheme instance.
    """
    from repro.core.centered import CenteredDiscretization
    from repro.core.robust import RobustDiscretization
    from repro.core.static import StaticGridScheme

    if isinstance(scheme, CenteredDiscretization):
        return CenteredBatchKernel(scheme)
    if isinstance(scheme, RobustDiscretization):
        return RobustBatchKernel(scheme)
    if isinstance(scheme, StaticGridScheme):
        return StaticBatchKernel(scheme)
    raise ParameterError(
        f"no batch kernel for scheme type {type(scheme).__name__}"
    )


def discretize_batch(
    scheme: DiscretizationScheme, points: PointArrayLike
) -> BatchDiscretization:
    """Vectorized enrollment of ``(N, dim)`` *points* under *scheme*.

    Equivalent to ``[scheme.enroll(p) for p in points]`` in columnar form
    (float64 working precision — see the module docstring's exactness
    note).
    """
    return scheme.batch().enroll(points)


def verify_batch(
    scheme: DiscretizationScheme,
    discretization: Union[Discretization, BatchDiscretization],
    candidates: PointArrayLike,
) -> np.ndarray:
    """Boolean mask: which *candidates* verify against *discretization*?

    *discretization* may be one scalar :class:`Discretization` (tested
    against every candidate — the attack shape) or an N-row
    :class:`BatchDiscretization` paired elementwise with N candidates.
    """
    return scheme.batch().accepts(discretization, candidates)


def acceptance_region_batch(
    scheme: DiscretizationScheme,
    discretization: Union[Discretization, BatchDiscretization],
) -> Tuple[np.ndarray, np.ndarray]:
    """Half-open acceptance boxes as ``(lo, hi)`` arrays of ``(N, dim)``."""
    return scheme.batch().acceptance_bounds(discretization)
