"""Theoretical full password-space calculations (paper §2.2.2, Table 3).

For an image of W×H pixels and square grid cells of side s, each overlaid
grid has ``⌈W/s⌉ · ⌈H/s⌉`` distinct cells, and a k-click password ranges
over ``cells^k`` — ``k · log2(cells)`` bits.  The discretization scheme
enters through what s means for usability:

* Centered Discretization achieves pixel tolerance t with s = 2t + 1
  (or generally r = s/2);
* Robust Discretization needs s = 6r for guaranteed tolerance r — 3× the
  side, ~3.17 bits fewer per click in 2-D at equal r.

Also provides the text-password comparator the paper quotes: a random
8-character password over the standard 95-symbol printable alphabet is
52.5 bits.

Alongside the closed-form *theoretical* space, this module measures the
*empirical* space real users exercise: :func:`empirical_cell_distribution`
discretizes an observed click-point pool through the batch engine
(:mod:`repro.core.batch`) and :func:`effective_space_bits` reports the
Shannon entropy of the resulting cell distribution — the hotspot-skewed
space an attacker actually has to search, always at most the theoretical
value.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Sequence, Tuple

from repro.core.batch import PointArrayLike
from repro.core.scheme import DiscretizationScheme
from repro.errors import ParameterError
from repro.geometry.numbers import (
    centered_pixel_tolerance_for_grid_size,
    robust_r_for_grid_size,
)

__all__ = [
    "squares_per_grid",
    "password_space_bits",
    "text_password_bits",
    "SpaceRow",
    "space_row",
    "space_table",
    "equal_r_comparison",
    "empirical_cell_distribution",
    "effective_space_bits",
    "PAPER_GRID_SIZES",
    "PAPER_IMAGE_SIZES",
]

#: Grid sizes tabulated in the paper's Table 3.
PAPER_GRID_SIZES: Tuple[int, ...] = (9, 13, 19, 24, 36, 54)

#: Image sizes tabulated in the paper's Table 3 (study image, VGA).
PAPER_IMAGE_SIZES: Tuple[Tuple[int, int], ...] = ((451, 331), (640, 480))


def squares_per_grid(width: int, height: int, grid_size: int) -> int:
    """Number of grid cells overlapping a W×H image: ⌈W/s⌉·⌈H/s⌉.

    Cells straddling the image edge still count — a click near the border
    discretizes into them.  Reproduces Table 3's "# of Squares per Grid"
    column exactly (451×331 @ 9×9 → 1887, 640×480 @ 9×9 → 3888, …).

    >>> squares_per_grid(451, 331, 9)
    1887
    >>> squares_per_grid(640, 480, 36)
    252
    """
    if width < 1 or height < 1:
        raise ParameterError(f"image must be positive, got {width}x{height}")
    if grid_size < 1:
        raise ParameterError(f"grid_size must be >= 1, got {grid_size}")
    return math.ceil(width / grid_size) * math.ceil(height / grid_size)


def password_space_bits(
    width: int, height: int, grid_size: int, clicks: int = 5
) -> float:
    """Theoretical full password space in bits: clicks · log2(cells).

    >>> round(password_space_bits(640, 480, 9), 1)
    59.6
    """
    if clicks < 1:
        raise ParameterError(f"clicks must be >= 1, got {clicks}")
    return clicks * math.log2(squares_per_grid(width, height, grid_size))


def text_password_bits(length: int = 8, alphabet: int = 95) -> float:
    """Bits of a random text password: length · log2(alphabet).

    Paper §2.2.2: 8 characters over 95 symbols → 52.5 bits.

    >>> round(text_password_bits(), 1)
    52.6
    """
    if length < 1:
        raise ParameterError(f"length must be >= 1, got {length}")
    if alphabet < 2:
        raise ParameterError(f"alphabet must be >= 2, got {alphabet}")
    return length * math.log2(alphabet)


@dataclass(frozen=True, slots=True)
class SpaceRow:
    """One row of the Table-3 reproduction."""

    width: int
    height: int
    grid_size: int
    centered_r: Fraction
    robust_r: Fraction
    squares: int
    bits: float


def space_row(
    width: int, height: int, grid_size: int, clicks: int = 5
) -> SpaceRow:
    """Compute one Table-3 row for a given image and grid size."""
    return SpaceRow(
        width=width,
        height=height,
        grid_size=grid_size,
        centered_r=centered_pixel_tolerance_for_grid_size(grid_size),
        robust_r=robust_r_for_grid_size(grid_size),
        squares=squares_per_grid(width, height, grid_size),
        bits=password_space_bits(width, height, grid_size, clicks),
    )


def space_table(
    image_sizes: Sequence[Tuple[int, int]] = PAPER_IMAGE_SIZES,
    grid_sizes: Sequence[int] = PAPER_GRID_SIZES,
    clicks: int = 5,
) -> Tuple[SpaceRow, ...]:
    """The full Table-3 grid: every image size × every grid size."""
    return tuple(
        space_row(width, height, size, clicks)
        for (width, height) in image_sizes
        for size in grid_sizes
    )


def equal_r_comparison(
    width: int, height: int, r: int, clicks: int = 5
) -> dict:
    """Password-space bits of both schemes at the same guaranteed r.

    Centered uses (2r+1)-px cells (pixel convention); Robust needs 6r-px
    cells.  The paper's in-text example: 640×480, r = 4 → 59.6 bits
    (Centered, 9×9) vs 45.4 bits (Robust, 24×24).
    """
    if r < 1:
        raise ParameterError(f"r must be >= 1, got {r}")
    centered_size = 2 * r + 1
    robust_size = 6 * r
    return {
        "r": r,
        "centered_grid_size": centered_size,
        "robust_grid_size": robust_size,
        "centered_bits": password_space_bits(width, height, centered_size, clicks),
        "robust_bits": password_space_bits(width, height, robust_size, clicks),
        "advantage_bits": (
            password_space_bits(width, height, centered_size, clicks)
            - password_space_bits(width, height, robust_size, clicks)
        ),
    }


def empirical_cell_distribution(
    scheme: DiscretizationScheme, points: PointArrayLike
) -> Dict[Tuple[int, ...], int]:
    """Occupancy counts of discretization cells over an observed pool.

    Discretizes *points* in one :func:`~repro.core.batch.discretize_batch`
    call and tallies how many land in each distinct cell.  Keys are the
    secret index vectors, prefixed with the grid identifier for Robust
    Discretization (cells of different grids are different cells); for
    Centered Discretization the secret segment indices are the cells of
    the fixed ``2r`` lattice shifted by ``r``, so counts group clicks that
    would share a hashed secret.
    """
    import numpy as np

    batch = scheme.batch().enroll(points)
    keys = batch.secret
    if batch.public.ndim == 1:  # robust: grid identifier distinguishes cells
        keys = np.column_stack([batch.public, batch.secret])
    return dict(Counter(tuple(int(v) for v in row) for row in keys))


def effective_space_bits(
    scheme: DiscretizationScheme, points: PointArrayLike, clicks: int = 5
) -> float:
    """Empirical password space: clicks × Shannon entropy of cell choice.

    The theoretical space (:func:`password_space_bits`) assumes users pick
    cells uniformly; real users cluster on hotspots, so the entropy of the
    observed cell distribution — measured here from a click-point pool via
    the batch engine — is the honest per-click exponent.  The gap between
    the two is the security cost of hotspots (paper §2.1 and the
    hotspot-attack literature).
    """
    if clicks < 1:
        raise ParameterError(f"clicks must be >= 1, got {clicks}")
    distribution = empirical_cell_distribution(scheme, points)
    total = sum(distribution.values())
    entropy = -sum(
        (count / total) * math.log2(count / total)
        for count in distribution.values()
    )
    return clicks * entropy
