"""CSV bundle round-trips and table serialization."""

import numpy as np
import pytest

from relkin import ConfigError, RmseEntry, RmseTable, SimConfig, TimeSweepEntry
from relkin import benchmark_trajectory, estimate_from_distances, simulate_measurements
from relkin.bundle_io import (
    ACCEL_FILE,
    DIAGNOSTICS_FILE,
    EDM_FILE,
    ESTIMATE_FILE,
    TIMESTAMPS_FILE,
    read_measurement_bundle,
    write_estimate,
    write_measurement_bundle,
    write_rmse_table,
    write_time_sweep,
)


@pytest.fixture
def meas():
    cfg = SimConfig(k_samples=6, sigma_d=0.01, sigma_a=0.001, seed=3,
                    accel_rotation_angle=0.4)
    return simulate_measurements(cfg, benchmark_trajectory())


class TestBundleRoundTrip:
    def test_exact_roundtrip(self, meas, tmp_path):
        write_measurement_bundle(meas, tmp_path)
        back = read_measurement_bundle(tmp_path)
        assert np.array_equal(back.timestamps, meas.timestamps)
        assert np.array_equal(back.edms, meas.edms)
        assert np.array_equal(back.accels, meas.accels)

    def test_bundle_without_accels(self, meas, tmp_path):
        meas.accels = None
        write_measurement_bundle(meas, tmp_path)
        assert not (tmp_path / ACCEL_FILE).exists()
        back = read_measurement_bundle(tmp_path)
        assert back.accels is None
        assert np.array_equal(back.edms, meas.edms)

    def test_write_is_deterministic(self, meas, tmp_path):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        write_measurement_bundle(meas, dir_a)
        write_measurement_bundle(meas, dir_b)
        for name in (TIMESTAMPS_FILE, EDM_FILE, ACCEL_FILE):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_bad_header_rejected(self, meas, tmp_path):
        write_measurement_bundle(meas, tmp_path)
        (tmp_path / TIMESTAMPS_FILE).write_text("wrong,header\n0,0.0\n")
        with pytest.raises(ConfigError):
            read_measurement_bundle(tmp_path)

    def test_pairless_edm_file_rejected(self, meas, tmp_path):
        write_measurement_bundle(meas, tmp_path)
        (tmp_path / EDM_FILE).write_text("k,i,j,value\n")
        with pytest.raises(ConfigError, match="pairwise"):
            read_measurement_bundle(tmp_path)


def _edit_rows(path, edit):
    """Rewrite a bundle file with ``edit`` applied to its data rows."""
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header] + edit(rows)) + "\n")


class TestMalformedBundle:
    """Each case is a bundle written by write_measurement_bundle, then damaged."""

    @pytest.fixture
    def bundle(self, meas, tmp_path):
        write_measurement_bundle(meas, tmp_path)
        return tmp_path

    def test_deleted_edm_row_rejected(self, bundle):
        _edit_rows(bundle / EDM_FILE, lambda rows: rows[:7] + rows[8:])
        with pytest.raises(ConfigError, match=r"\(k, i, j\) must occur exactly once"):
            read_measurement_bundle(bundle)

    def test_duplicated_edm_row_rejected(self, bundle):
        _edit_rows(bundle / EDM_FILE, lambda rows: rows + rows[3:4])
        with pytest.raises(ConfigError, match=r"\(k, i, j\) must occur exactly once"):
            read_measurement_bundle(bundle)

    def test_deleted_accel_row_rejected(self, bundle):
        _edit_rows(bundle / ACCEL_FILE, lambda rows: rows[:5] + rows[6:])
        with pytest.raises(ConfigError, match=r"\(k, node, axis\) must occur exactly once"):
            read_measurement_bundle(bundle)

    def test_k_out_of_range_rejected(self, bundle):
        _edit_rows(bundle / EDM_FILE, lambda rows: ["99" + rows[0][1:]] + rows[1:])
        with pytest.raises(ConfigError, match="0 <= k < 7"):
            read_measurement_bundle(bundle)

    def test_short_row_rejected(self, bundle):
        _edit_rows(bundle / EDM_FILE, lambda rows: [rows[0].rsplit(",", 1)[0]] + rows[1:])
        with pytest.raises(ConfigError, match="4 comma-separated fields"):
            read_measurement_bundle(bundle)

    def test_deleted_timestamp_row_rejected(self, bundle):
        _edit_rows(bundle / TIMESTAMPS_FILE, lambda rows: rows[:-1])
        with pytest.raises(ConfigError, match="0 <= k < 6"):
            read_measurement_bundle(bundle)


class TestEstimateOutput:
    def test_blocks_and_diagnostics_written(self, meas, tmp_path):
        est = estimate_from_distances(meas)
        write_estimate(est, tmp_path)
        text = (tmp_path / ESTIMATE_FILE).read_text()
        lines = text.strip().splitlines()
        assert lines[0] == "block,row,col,value"
        blocks = {line.split(",")[0] for line in lines[1:]}
        assert blocks == {"Y0", "Y1", "Y2", "rotation"}
        # 3 blocks of 2x10 plus the 2x2 rotation
        assert len(lines) - 1 == 3 * 20 + 4
        diag = (tmp_path / DIAGNOSTICS_FILE).read_text()
        assert "residual gram_fit = " in diag

    def test_values_roundtrip_via_repr(self, meas, tmp_path):
        est = estimate_from_distances(meas)
        write_estimate(est, tmp_path)
        lines = (tmp_path / ESTIMATE_FILE).read_text().strip().splitlines()[1:]
        for line in lines:
            block, r, c, value = line.split(",")
            if block == "Y0":
                assert float(value) == est.y0[int(r), int(c)]


class TestTables:
    def test_rmse_table_csv(self, tmp_path):
        table = RmseTable(rows=[RmseEntry("distance", 10, "Y0", 0.125)])
        path = write_rmse_table(table, tmp_path / "rmse.csv")
        assert path.read_text() == "method,k,block,rmse\ndistance,10,Y0,0.125\n"

    def test_time_sweep_csv(self, tmp_path):
        entries = [TimeSweepEntry("accel", 20, -5.0, 0.5)]
        path = write_time_sweep(entries, tmp_path / "sweep.csv")
        assert path.read_text() == "method,k,t,rmse\naccel,20,-5.0,0.5\n"
