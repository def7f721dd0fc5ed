"""Dataplane format round-trips, dataset IO edge cases, reorder consistency."""

import numpy as np
import pytest

from repro.geostats import Dataset, build_tiled_covariance, dataplane as dp
from repro.geostats.covariance import Matern, get_model
from repro.geostats.locations import generate_locations
from repro.obs import get_registry


def _write_csv(path, coords, values):
    """``x,y,value`` rows with a header, digits enough to round-trip."""
    np.savetxt(path, np.column_stack([coords, values]), delimiter=",",
               header="x,y,value", comments="", fmt="%.17g")
    return path


def _dataset_npz_roundtrip(ds, path):
    written = dp.write_pointset(path, dp.pointset_from_dataset(ds), format="npz")
    return dp.dataset_from_pointset(dp.read_pointset(written), "2d-matern")


def _pointset(n=200, dim=2, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    return dp.PointSet(
        coords=rng.uniform(size=(n, dim)).astype(dtype),
        values=rng.standard_normal(n).astype(dtype),
        meta={"origin": "test"},
    )


# -- PointSet validation --------------------------------------------------


def test_pointset_rejects_nan_coords():
    coords = np.zeros((4, 2))
    coords[2, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        dp.PointSet(coords=coords, values=np.zeros(4))


def test_pointset_rejects_inf_values():
    with pytest.raises(ValueError, match="non-finite"):
        dp.PointSet(coords=np.zeros((2, 2)), values=np.array([1.0, np.inf]))


def test_pointset_shape_mismatch():
    with pytest.raises(ValueError, match="coordinates but"):
        dp.PointSet(coords=np.zeros((3, 2)), values=np.zeros(2))


# -- round-trips ----------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_npz_roundtrip_preserves_dtype_and_bits(tmp_path, dtype):
    ps = _pointset(dtype=dtype)
    path = dp.write_pointset(str(tmp_path / "pts"), ps, format="npz")
    back = dp.read_pointset(path)
    assert back.coords.dtype == dtype and back.values.dtype == dtype
    assert back.coords.tobytes() == ps.coords.tobytes()
    assert back.values.tobytes() == ps.values.tobytes()
    assert back.crs == ps.crs and back.meta["origin"] == "test"


def test_empty_pointset_roundtrip(tmp_path):
    ps = dp.PointSet(coords=np.zeros((0, 2)), values=np.zeros(0))
    path = dp.write_pointset(str(tmp_path / "empty"), ps, format="npz")
    back = dp.read_pointset(path)
    assert back.n == 0 and back.dim == 2
    chunks = list(dp.stream_pointset(path, 16))
    assert sum(c.n for c in chunks) == 0


def test_single_point_roundtrip(tmp_path):
    ps = dp.PointSet(coords=np.array([[0.25, 0.75]]), values=np.array([1.5]))
    path = dp.write_pointset(str(tmp_path / "one"), ps, format="npz")
    back = dp.read_pointset(path)
    assert back.n == 1 and float(back.values[0]) == 1.5
    assert dp.check_spatial_order(back.coords) == 0.0


def test_stream_pointset_covers_in_order(tmp_path):
    ps = _pointset(n=333)
    path = dp.write_pointset(str(tmp_path / "pts"), ps, format="npz")
    chunks = list(dp.stream_pointset(path, 100))
    assert [c.n for c in chunks] == [100, 100, 100, 33]
    assert np.concatenate([c.coords for c in chunks]).tobytes() == ps.coords.tobytes()


def test_format_env_override_forces_npz(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_DATAPLANE_FORMAT", "npz")
    assert dp.resolve_format() == "npz"
    path = dp.write_pointset(str(tmp_path / "pts"), _pointset())
    assert path.endswith(".npz")


def test_parquet_requested_without_pyarrow():
    if dp.parquet_available():
        pytest.skip("pyarrow installed; the gate cannot be exercised")
    with pytest.raises(RuntimeError, match="pyarrow"):
        dp.resolve_format("parquet")


def test_schema_tag_checked(tmp_path):
    path = str(tmp_path / "bogus.npz")
    np.savez(path, coords=np.zeros((1, 2)), values=np.zeros(1),
             meta=np.frombuffer(b'{"schema": "other/9"}', dtype=np.uint8))
    with pytest.raises(ValueError, match="repro.pointset/1"):
        dp.read_pointset(path)


def test_read_counter_advances(tmp_path):
    ps = _pointset(n=57)
    path = dp.write_pointset(str(tmp_path / "pts"), ps, format="npz")
    counter = get_registry().counter("dataplane.points_read")
    before = counter.value()
    dp.read_pointset(path)
    assert counter.value() == before + 57


def test_csv_pointset_roundtrip(tmp_path):
    ps = _pointset(n=40)
    csv_path = _write_csv(str(tmp_path / "pts.csv"), ps.coords, ps.values)
    back = dp.read_pointset_csv(csv_path)
    assert back.n == 40 and back.dim == 2
    assert np.array_equal(back.coords, ps.coords)


# -- dataset IO edge cases ------------------------------------------------


def test_dataset_rejects_nan_locations():
    locs = generate_locations(16, 2, seed=0)
    locs[3, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        Dataset(locations=locs, z=np.zeros(16), model=Matern(dim=2))


def test_dataset_rejects_inf_measurements():
    locs = generate_locations(16, 2, seed=0)
    z = np.zeros(16)
    z[5] = -np.inf
    with pytest.raises(ValueError, match="non-finite"):
        Dataset(locations=locs, z=z, model=Matern(dim=2))


def test_empty_dataset_npz_roundtrip(tmp_path):
    ds = Dataset(locations=np.zeros((0, 2)), z=np.zeros(0), model=Matern(dim=2))
    back = _dataset_npz_roundtrip(ds, str(tmp_path / "empty"))
    assert back.n == 0 and back.model.name == ds.model.name


def test_single_point_dataset_csv_roundtrip(tmp_path):
    ds = Dataset(locations=np.array([[0.5, 0.5]]), z=np.array([2.0]),
                 model=Matern(dim=2))
    path = _write_csv(str(tmp_path / "one.csv"), ds.locations, ds.z)
    back = dp.dataset_from_pointset(dp.read_pointset_csv(path), "2d-matern")
    assert back.n == 1
    assert np.array_equal(back.locations, ds.locations)
    assert np.array_equal(back.z, ds.z)


def test_empty_csv_raises_clear_error(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("x,y,value\n")
    with pytest.raises(ValueError, match="no data rows"):
        dp.read_pointset_csv(str(path))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dataset_npz_roundtrip_preserves_dtype(tmp_path, dtype):
    rng = np.random.default_rng(4)
    locs = rng.uniform(size=(12, 2)).astype(dtype)
    z = rng.standard_normal(12).astype(dtype)
    ds = Dataset(locations=locs, z=z, model=Matern(dim=2))
    assert ds.locations.dtype == dtype  # construction preserves it
    back = _dataset_npz_roundtrip(ds, str(tmp_path / "ds"))
    assert back.locations.dtype == dtype and back.z.dtype == dtype
    assert back.locations.tobytes() == locs.tobytes()
    assert back.z.tobytes() == z.tobytes()


# -- reorder consistency (satellite: the bit-identical covariance fix) ----


def test_permuted_then_reordered_covariance_bit_identical():
    """A shuffled dataset, spatially reordered, must build the same
    covariance bit-for-bit as one generated already in that order — the
    permutation has to travel with the observations."""
    n, nb = 192, 32
    model = get_model("2d-matern")
    theta = (1.0, 0.1, 0.5)
    locs = generate_locations(n, 2, seed=11, sort=False)
    rng = np.random.default_rng(2)
    z = rng.standard_normal(n)
    direct = Dataset(locations=locs, z=z, model=model)
    direct_ordered = dp.reorder_dataset(direct, "hilbert")

    perm = rng.permutation(n)
    shuffled = dp.permute_dataset(direct, perm)
    recovered = dp.reorder_dataset(shuffled, "hilbert")

    assert recovered.locations.tobytes() == direct_ordered.locations.tobytes()
    assert recovered.z.tobytes() == direct_ordered.z.tobytes()

    a = build_tiled_covariance(direct_ordered.locations, model, theta, nb)
    b = build_tiled_covariance(recovered.locations, model, theta, nb)
    for i in range(a.nt):
        for j in range(i + 1):
            assert a.get(i, j).tobytes() == b.get(i, j).tobytes()


def test_reorder_dataset_keeps_pairs_together():
    n = 128
    locs = generate_locations(n, 2, seed=5, sort=False)
    z = np.arange(n, dtype=np.float64)
    ds = Dataset(locations=locs, z=z, model=Matern(dim=2))
    out = dp.reorder_dataset(ds, "hilbert")
    # every (location, z) pair survives: z values are unique indices
    lookup = {int(v): i for i, v in enumerate(z)}
    for loc, val in zip(out.locations, out.z):
        assert np.array_equal(loc, locs[lookup[int(val)]])


def test_morton_default_unchanged():
    """order_locations(..., 'morton') reproduces generate_locations(sort=True)
    bit-for-bit — the sweep default is backwards-compatible."""
    pts_sorted = generate_locations(256, 2, seed=9, sort=True)
    pts_raw = generate_locations(256, 2, seed=9, sort=False)
    assert dp.order_locations(pts_raw, "morton").tobytes() == pts_sorted.tobytes()
