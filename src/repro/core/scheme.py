"""Scheme-neutral discretization interface.

A *discretization scheme* turns a continuous point into two pieces:

* **public** material, stored in the clear (Robust: the chosen grid
  identifier; Centered: the per-axis offsets ``d``), and
* a **secret** integer index vector (the grid-square / segment indices),
  which is never stored directly — only inside a hash.

Verification never sees the original point: it re-discretizes a candidate
point *under the stored public material* and compares the resulting index
vector (in deployment, compares hashes).  This interface captures exactly
that contract, so PassPoints, the analysis harness and the attacks can be
written once and run against Centered Discretization, Robust Discretization
or the naive static grid.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.crypto.encoding import Encodable
from repro.errors import DimensionMismatchError
from repro.geometry.numbers import RealLike
from repro.geometry.point import Point
from repro.geometry.region import Box

__all__ = ["Discretization", "DiscretizationScheme"]


@dataclass(frozen=True, slots=True)
class Discretization:
    """The result of discretizing one point.

    ``public`` is clear-text material; ``secret`` is the index vector that
    goes inside the hash.  Together with the scheme parameters they fully
    determine the acceptance region.
    """

    public: Tuple[Encodable, ...]
    secret: Tuple[int, ...]


class DiscretizationScheme(abc.ABC):
    """Common interface of all discretization schemes.

    Concrete schemes (:class:`~repro.core.centered.CenteredDiscretization`,
    :class:`~repro.core.robust.RobustDiscretization`,
    :class:`~repro.core.static.StaticGridScheme`) implement :meth:`enroll`,
    :meth:`locate` and :meth:`acceptance_region`; everything else derives.
    """

    #: Human-readable scheme name, set by subclasses.
    name: str = "abstract"

    def __init__(self, dim: int) -> None:
        if dim < 1:
            raise DimensionMismatchError(f"dim must be >= 1, got {dim}")
        self._dim = dim
        self._batch_kernel: "object | None" = None

    # -- abstract ----------------------------------------------------------

    @abc.abstractmethod
    def enroll(self, point: Point) -> Discretization:
        """Discretize an *original* (enrollment-time) point.

        May raise :class:`~repro.errors.EnrollmentError` when the scheme
        cannot discretize the point (cannot happen for the schemes in this
        library, by the papers' guarantees, but the contract allows it).
        """

    @abc.abstractmethod
    def locate(
        self, point: Point, public: Tuple[Encodable, ...]
    ) -> Tuple[int, ...]:
        """Index vector of *point* under stored *public* material.

        This is the verification-side computation: it must not depend on
        the original point, only on what the password file stores.
        """

    @abc.abstractmethod
    def acceptance_region(self, discretization: Discretization) -> Box:
        """The half-open region of points accepted against *discretization*."""

    @property
    @abc.abstractmethod
    def guaranteed_tolerance(self) -> RealLike:
        """Minimum r such that any point within r (Chebyshev) is accepted."""

    @property
    @abc.abstractmethod
    def cell_size(self) -> RealLike:
        """Side length of the scheme's (hyper-)square cells."""

    # -- derived -----------------------------------------------------------

    @property
    def dim(self) -> int:
        """Dimensionality of the space the scheme operates in."""
        return self._dim

    def accepts(self, discretization: Discretization, candidate: Point) -> bool:
        """Whether *candidate* verifies against an enrolled discretization.

        Equivalent to the deployed hash comparison: the candidate's index
        vector under the stored public material must equal the enrolled
        secret index vector.
        """
        return self.locate(candidate, discretization.public) == discretization.secret

    def max_accepted_distance(self, discretization: Discretization) -> RealLike:
        """Largest Chebyshev distance from the *region center* still accepted.

        For Centered Discretization this equals ``r`` (the region is centered
        on the original point).  For Robust Discretization the region is not
        centered on the original point, so the worst-case accepted distance
        from the original point can reach ``5r`` (paper §2.2.1) — see
        :mod:`repro.core.tolerance` for the original-point-relative bounds.
        """
        region = self.acceptance_region(discretization)
        return max(region.side(k) for k in range(region.dim)) / 2

    def _check_point(self, point: Point) -> None:
        """Validate dimensionality of an input point."""
        if point.dim != self._dim:
            raise DimensionMismatchError(
                f"{self.name}: point is {point.dim}-D, scheme is {self._dim}-D"
            )

    def enroll_many(self, points: Sequence[Point]) -> Tuple[Discretization, ...]:
        """Enroll several click-points (one password) at once."""
        return tuple(self.enroll(p) for p in points)

    def batch(self) -> "BatchKernel":
        """The vectorized kernel mirroring this scheme instance.

        Lazily built on first use and cached on the instance; all batch
        entry points (:func:`repro.core.batch.discretize_batch`,
        :func:`~repro.core.batch.verify_batch`,
        :func:`~repro.core.batch.acceptance_region_batch`) route through
        it.  The scalar methods remain the exact-arithmetic reference
        implementation.
        """
        from repro.core.batch import batch_kernel_for

        if self._batch_kernel is None:
            self._batch_kernel = batch_kernel_for(self)
        return self._batch_kernel  # type: ignore[return-value]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(dim={self._dim}, "
            f"r={self.guaranteed_tolerance!r}, cell={self.cell_size!r})"
        )
