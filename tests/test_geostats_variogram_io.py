"""Unit tests for variogram estimation and dataset persistence."""

import numpy as np
import pytest

from repro.geostats import (
    Dataset,
    SyntheticField,
    empirical_variogram,
    fit_variogram,
    theoretical_variogram,
)
from repro.geostats.covariance import Matern, SquaredExponential
from repro.geostats.dataplane import (
    dataset_from_pointset,
    pointset_from_dataset,
    read_pointset,
    read_pointset_csv,
    write_pointset,
)


@pytest.fixture(scope="module")
def matern_ds():
    return SyntheticField.matern_2d(n=400, range_=0.1, smoothness=0.5, seed=6).sample()


class TestEmpiricalVariogram:
    def test_shape_and_positivity(self, matern_ds):
        emp = empirical_variogram(matern_ds, n_bins=12)
        assert emp.n_bins <= 12
        assert np.all(emp.semivariance >= 0.0)
        assert np.all(emp.counts > 0)
        assert np.all(np.diff(emp.bin_centers) > 0)

    def test_increases_with_distance(self, matern_ds):
        """Semivariance rises toward the sill for a correlated field."""
        emp = empirical_variogram(matern_ds, n_bins=10)
        assert emp.semivariance[0] < emp.semivariance[-1]

    def test_short_lag_near_zero_for_smooth_field(self):
        ds = SyntheticField.matern_2d(n=300, range_=0.3, smoothness=1.0, seed=1).sample()
        emp = empirical_variogram(ds, n_bins=10)
        assert emp.semivariance[0] < 0.25 * np.var(ds.z)

    def test_max_distance_respected(self, matern_ds):
        emp = empirical_variogram(matern_ds, n_bins=8, max_distance=0.3)
        assert emp.bin_centers[-1] <= 0.3

    def test_invalid_bins(self, matern_ds):
        with pytest.raises(ValueError):
            empirical_variogram(matern_ds, n_bins=0)


class TestTheoreticalVariogram:
    def test_zero_at_origin(self):
        g = theoretical_variogram(Matern(dim=2), (1.0, 0.1, 0.5), np.array([0.0]))
        assert g[0] == 0.0

    def test_sill_at_infinity(self):
        g = theoretical_variogram(SquaredExponential(dim=2), (1.5, 0.1), np.array([100.0]))
        assert g[0] == pytest.approx(1.5)

    def test_nugget_discontinuity(self):
        g = theoretical_variogram(
            Matern(dim=2), (1.0, 0.1, 0.5), np.array([0.0, 1e-6]), nugget=0.2
        )
        assert g[0] == 0.0
        assert g[1] > 0.2

    def test_monotone(self):
        h = np.linspace(0, 1, 30)
        g = theoretical_variogram(Matern(dim=2), (1.0, 0.2, 1.0), h)
        assert np.all(np.diff(g) >= -1e-12)


class TestFitVariogram:
    def test_recovers_sill_and_range_scale(self, matern_ds):
        theta, emp = fit_variogram(matern_ds)
        assert emp.n_bins > 3
        # sill (variance) within a factor of ~2.5, range within an order
        assert 0.3 < theta[0] < 2.0
        assert 0.01 < theta[1] < 0.8

    def test_consistent_with_theoretical(self, matern_ds):
        theta, emp = fit_variogram(matern_ds)
        fitted = theoretical_variogram(matern_ds.model, theta, emp.bin_centers)
        rel = np.linalg.norm(fitted - emp.semivariance) / np.linalg.norm(emp.semivariance)
        assert rel < 0.5


def _write_csv(ds, path):
    """``x,y[,z],value`` rows with a header, digits enough to round-trip."""
    header = ",".join(["x", "y", "z"][: ds.locations.shape[1]] + ["value"])
    np.savetxt(path, np.column_stack([ds.locations, ds.z]), delimiter=",",
               header=header, comments="", fmt="%.17g")
    return path


def _npz_roundtrip(ds, path, model_name):
    written = write_pointset(path, pointset_from_dataset(ds), format="npz")
    return dataset_from_pointset(read_pointset(written), model_name)


class TestIO:
    def test_csv_roundtrip(self, matern_ds, tmp_path):
        path = _write_csv(matern_ds, str(tmp_path / "d.csv"))
        back = dataset_from_pointset(read_pointset_csv(path), "2d-matern")
        assert np.allclose(back.locations, matern_ds.locations)
        assert np.allclose(back.z, matern_ds.z)
        assert back.model.name == "2D-Matern"

    def test_csv_3d(self, tmp_path):
        ds = SyntheticField.sqexp_3d(64, nugget=0.01, seed=2).sample()
        path = _write_csv(ds, str(tmp_path / "d3.csv"))
        back = dataset_from_pointset(read_pointset_csv(path), "3d-sqexp", nugget=0.01)
        assert back.locations.shape == (64, 3)
        assert back.nugget == 0.01

    def test_csv_dim_mismatch(self, matern_ds, tmp_path):
        path = _write_csv(matern_ds, str(tmp_path / "d.csv"))
        with pytest.raises(ValueError, match="3D but locations are 2D"):
            dataset_from_pointset(read_pointset_csv(path), "3d-sqexp")

    def test_csv_empty(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        open(path, "w").write("x,y,value\n")
        with pytest.raises(ValueError, match="no data"):
            read_pointset_csv(path)

    def test_npz_roundtrip(self, matern_ds, tmp_path):
        back = _npz_roundtrip(matern_ds, str(tmp_path / "d.npz"), "2d-matern")
        assert np.array_equal(back.locations, matern_ds.locations)
        assert np.array_equal(back.z, matern_ds.z)
        assert back.theta_true == matern_ds.theta_true
        assert back.nugget == matern_ds.nugget
        assert back.model.name == matern_ds.model.name
        ds3 = SyntheticField.sqexp_3d(64, nugget=0.01, seed=2).sample()
        back3 = _npz_roundtrip(ds3, str(tmp_path / "d3.npz"), "3d-sqexp")
        assert back3.theta_true == ds3.theta_true and back3.nugget == 0.01

    def test_npz_without_theta(self, tmp_path):
        ds = Dataset(np.random.default_rng(0).random((10, 2)), np.zeros(10),
                     Matern(dim=2))
        assert _npz_roundtrip(ds, str(tmp_path / "x.npz"), "2d-matern").theta_true is None
