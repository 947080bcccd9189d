"""Batch engine correctness: batch/scalar agreement and kernel contracts.

The batch kernels (:mod:`repro.core.batch`) are float64 re-implementations
of the exact-arithmetic scalar schemes.  These tests hold them to the
strongest available standard: on pixel data with the library's rational
tolerances, every batch result — secret indices, public material, accept
decisions, acceptance regions — must agree with the scalar reference
bit-for-bit, for all three schemes, across dimensions and grid-selection
policies.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BatchDiscretization,
    CenteredDiscretization,
    Discretization,
    RobustDiscretization,
    StaticGridScheme,
    acceptance_region_batch,
    discretize_batch,
    verify_batch,
)
from repro.core.batch import as_point_array, batch_kernel_for
from repro.core.robust import GridSelection
from repro.errors import (
    DimensionMismatchError,
    ParameterError,
    VerificationError,
)
from repro.geometry.point import Point

coords = st.integers(min_value=-(10**4), max_value=10**4)
tolerances = st.integers(min_value=0, max_value=20)
grid_sizes = st.integers(min_value=2, max_value=60)


def _point_batch(draw_coords, dim, size):
    return st.lists(
        st.tuples(*[draw_coords] * dim), min_size=size, max_size=size
    ).map(lambda rows: np.array(rows, dtype=float))


def _schemes_2d():
    return [
        CenteredDiscretization.for_pixel_tolerance(2, 9),
        RobustDiscretization.for_pixel_tolerance(2, 9),
        RobustDiscretization.for_grid_size(2, 13),  # r = 13/6
        RobustDiscretization.for_pixel_tolerance(
            2, 9, selection=GridSelection.FIRST_SAFE
        ),
        StaticGridScheme(dim=2, cell_size=19),
        StaticGridScheme(dim=2, cell_size=Fraction(19, 3), offset=Fraction(1, 2)),
    ]


class TestBatchScalarAgreement:
    """Randomized agreement between batch kernels and the exact reference."""

    @given(_point_batch(coords, 2, 15), tolerances)
    @settings(max_examples=25, deadline=None)
    def test_centered_enroll_agrees(self, pts, t):
        scheme = CenteredDiscretization.for_pixel_tolerance(2, t)
        batch = discretize_batch(scheme, pts)
        for n, row in enumerate(pts):
            scalar = scheme.enroll(Point.xy(int(row[0]), int(row[1])))
            assert tuple(int(v) for v in batch.secret[n]) == scalar.secret
            assert tuple(batch.public[n]) == tuple(
                float(d) for d in scalar.public
            )

    @given(_point_batch(coords, 2, 15), tolerances)
    @settings(max_examples=20, deadline=None)
    def test_robust_enroll_agrees(self, pts, t):
        scheme = RobustDiscretization.for_pixel_tolerance(2, t)
        batch = discretize_batch(scheme, pts)
        for n, row in enumerate(pts):
            scalar = scheme.enroll(Point.xy(int(row[0]), int(row[1])))
            assert int(batch.public[n]) == scalar.public[0]
            assert tuple(int(v) for v in batch.secret[n]) == scalar.secret

    @given(_point_batch(coords, 2, 15), grid_sizes)
    @settings(max_examples=20, deadline=None)
    def test_robust_fractional_r_enroll_agrees(self, pts, size):
        """Denominator-6 tolerances: exact-arithmetic margin ties included."""
        scheme = RobustDiscretization.for_grid_size(2, size)
        batch = discretize_batch(scheme, pts)
        for n, row in enumerate(pts):
            scalar = scheme.enroll(Point.xy(int(row[0]), int(row[1])))
            assert int(batch.public[n]) == scalar.public[0]
            assert tuple(int(v) for v in batch.secret[n]) == scalar.secret

    @given(_point_batch(coords, 2, 15), grid_sizes)
    @settings(max_examples=20, deadline=None)
    def test_static_enroll_agrees(self, pts, size):
        scheme = StaticGridScheme(dim=2, cell_size=size)
        batch = discretize_batch(scheme, pts)
        for n, row in enumerate(pts):
            scalar = scheme.enroll(Point.xy(int(row[0]), int(row[1])))
            assert tuple(int(v) for v in batch.secret[n]) == scalar.secret

    @given(
        _point_batch(coords, 2, 12),
        st.lists(
            st.tuples(
                st.integers(min_value=-12, max_value=12),
                st.integers(min_value=-12, max_value=12),
            ),
            min_size=12,
            max_size=12,
        ),
    )
    @settings(max_examples=10, deadline=None)
    def test_verify_agrees_all_schemes(self, pts, jitter):
        """Accept decisions match the scalar path for near-miss candidates."""
        candidates = pts + np.array(jitter, dtype=float)
        for scheme in _schemes_2d():
            batch = discretize_batch(scheme, pts)
            pairwise = verify_batch(scheme, batch, candidates)
            for n, row in enumerate(pts):
                scalar_enrollment = scheme.enroll(
                    Point.xy(int(row[0]), int(row[1]))
                )
                candidate = Point.xy(
                    int(candidates[n][0]), int(candidates[n][1])
                )
                expected = scheme.accepts(scalar_enrollment, candidate)
                assert bool(pairwise[n]) == expected
            # Attack shape: one scalar enrollment vs the whole candidate set.
            first = scheme.enroll(Point.xy(int(pts[0][0]), int(pts[0][1])))
            attack = verify_batch(scheme, first, candidates)
            for n in range(len(candidates)):
                candidate = Point.xy(
                    int(candidates[n][0]), int(candidates[n][1])
                )
                assert bool(attack[n]) == scheme.accepts(first, candidate)

    @given(_point_batch(coords, 2, 10))
    @settings(max_examples=10, deadline=None)
    def test_acceptance_regions_agree(self, pts):
        """Regions match the scalar path: exactly when every quantity is
        float-representable (the pixel convention), to 1e-9 otherwise
        (composed float ops are not correctly rounded; denominator-3
        bounds may differ from the exact value by 1 ulp)."""
        for scheme, exact in [
            (CenteredDiscretization.for_pixel_tolerance(2, 9), True),
            (RobustDiscretization.for_pixel_tolerance(2, 9), True),
            (RobustDiscretization.for_grid_size(2, 13), False),
            (StaticGridScheme(dim=2, cell_size=19), True),
        ]:
            batch = discretize_batch(scheme, pts)
            lo, hi = acceptance_region_batch(scheme, batch)
            for n, row in enumerate(pts):
                box = scheme.acceptance_region(
                    scheme.enroll(Point.xy(int(row[0]), int(row[1])))
                )
                if exact:
                    assert tuple(lo[n]) == box.lo.as_floats()
                    assert tuple(hi[n]) == box.hi.as_floats()
                else:
                    assert np.allclose(lo[n], box.lo.as_floats(), atol=1e-9)
                    assert np.allclose(hi[n], box.hi.as_floats(), atol=1e-9)

    @given(_point_batch(coords, 1, 15), tolerances)
    @settings(max_examples=10, deadline=None)
    def test_one_dimensional_agreement(self, pts, t):
        for scheme in (
            CenteredDiscretization.for_pixel_tolerance(1, t),
            RobustDiscretization.for_pixel_tolerance(1, t),
        ):
            batch = discretize_batch(scheme, pts)
            for n, row in enumerate(pts):
                scalar = scheme.enroll(Point.of(int(row[0])))
                assert tuple(int(v) for v in batch.secret[n]) == scalar.secret

    @given(_point_batch(coords, 3, 10), st.integers(min_value=0, max_value=9))
    @settings(max_examples=8, deadline=None)
    def test_three_dimensional_agreement(self, pts, t):
        for scheme in (
            CenteredDiscretization.for_pixel_tolerance(3, t),
            RobustDiscretization.for_pixel_tolerance(3, t),
        ):
            batch = discretize_batch(scheme, pts)
            for n, row in enumerate(pts):
                scalar = scheme.enroll(Point.of(*[int(v) for v in row]))
                assert tuple(int(v) for v in batch.secret[n]) == scalar.secret


class TestRandomSafeSelection:
    def test_random_safe_enrollments_are_valid(self):
        """RANDOM_SAFE batch enrollments always land on an r-safe grid."""
        rng = np.random.default_rng(7)
        scheme = RobustDiscretization.for_pixel_tolerance(
            2, 9, selection=GridSelection.RANDOM_SAFE, rng=rng.random
        )
        pts = rng.integers(0, 640, size=(300, 2)).astype(float)
        batch = discretize_batch(scheme, pts)
        for n, row in enumerate(pts):
            point = Point.xy(int(row[0]), int(row[1]))
            assert int(batch.public[n]) in scheme.safe_grids(point)
            assert (
                tuple(int(v) for v in batch.secret[n])
                == scheme.grid(int(batch.public[n])).cell_of(point)
            )


class TestCenteredZeroFalseRates:
    """The paper's headline theorem holds for the batch path too."""

    def test_accepts_iff_within_r_chebyshev(self):
        scheme = CenteredDiscretization.for_pixel_tolerance(2, 9)
        rng = np.random.default_rng(3)
        originals = rng.integers(50, 500, size=(200, 2)).astype(float)
        offsets = rng.integers(-15, 16, size=(200, 2)).astype(float)
        batch = discretize_batch(scheme, originals)
        accepted = verify_batch(scheme, batch, originals + offsets)
        within = np.abs(offsets).max(axis=1) < float(scheme.r)
        assert np.array_equal(accepted, within)


class TestBatchApiContracts:
    def test_kernel_cached_per_scheme_instance(self):
        scheme = CenteredDiscretization.for_pixel_tolerance(2, 9)
        assert scheme.batch() is scheme.batch()

    def test_batch_kernel_for_rejects_unknown_scheme(self):
        with pytest.raises(ParameterError):
            batch_kernel_for(object())  # type: ignore[arg-type]

    def test_as_point_array_shapes(self):
        assert as_point_array(Point.xy(1, 2)).shape == (1, 2)
        assert as_point_array([Point.xy(1, 2), Point.xy(3, 4)]).shape == (2, 2)
        assert as_point_array([(1, 2, 3)]).shape == (1, 3)
        assert as_point_array(np.zeros(4)).shape == (1, 4)

    def test_as_point_array_rejects_bad_input(self):
        with pytest.raises(ParameterError):
            as_point_array(np.zeros((2, 2, 2)))
        with pytest.raises(ParameterError):
            as_point_array(np.array([[np.nan, 0.0]]))
        with pytest.raises(DimensionMismatchError):
            as_point_array(np.zeros((3, 3)), dim=2)

    def test_pairwise_count_mismatch_rejected(self):
        scheme = CenteredDiscretization.for_pixel_tolerance(2, 9)
        batch = discretize_batch(scheme, np.zeros((3, 2)))
        with pytest.raises(DimensionMismatchError):
            verify_batch(scheme, batch, np.zeros((5, 2)))

    def test_robust_locate_rejects_bad_identifiers(self):
        scheme = RobustDiscretization.for_pixel_tolerance(2, 9)
        kernel = scheme.batch()
        with pytest.raises(VerificationError):
            kernel.locate(np.zeros((2, 2)), np.array([0, 99]))
        with pytest.raises(VerificationError):
            kernel.locate(np.zeros((2, 2)), np.array([0.5, 1.5]))
        with pytest.raises(VerificationError):
            kernel.accepts(
                Discretization(public=("nope",), secret=(0, 0)),
                np.zeros((1, 2)),
            )

    def test_static_rejects_public_material(self):
        scheme = StaticGridScheme(dim=2, cell_size=10)
        kernel = scheme.batch()
        with pytest.raises(VerificationError):
            kernel.accepts(
                Discretization(public=(1,), secret=(0, 0)), np.zeros((1, 2))
            )

    def test_row_round_trips_to_scalar_discretization(self):
        pts = np.array([[100.0, 200.0], [5.0, 7.0]])
        for scheme in _schemes_2d():
            batch = discretize_batch(scheme, pts)
            for n in range(2):
                row = batch.row(n)
                assert isinstance(row, Discretization)
                assert row.secret == tuple(int(v) for v in batch.secret[n])
                # A row converted back verifies exactly like the batch.
                assert bool(
                    scheme.batch().accepts(row, pts[n : n + 1])[0]
                )

    def test_batch_discretization_validates_shapes(self):
        with pytest.raises(ParameterError):
            BatchDiscretization(
                scheme_name="x",
                public=np.zeros((2, 2)),
                secret=np.zeros(3, dtype=np.int64),
            )
        with pytest.raises(ParameterError):
            BatchDiscretization(
                scheme_name="x",
                public=np.zeros((1, 2)),
                secret=np.zeros((2, 2), dtype=np.int64),
            )

    def test_len_count_dim(self):
        scheme = CenteredDiscretization.for_pixel_tolerance(2, 9)
        batch = discretize_batch(scheme, np.zeros((4, 2)))
        assert len(batch) == batch.count == 4
        assert batch.dim == 2

