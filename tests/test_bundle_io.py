"""CSV bundle round-trips and table serialization."""

import warnings

import numpy as np
import pytest

from relkin import ConfigError, InvalidDimensionError, KinematicEstimate, MeasurementSet
from relkin import RmseEntry, RmseTable
from relkin import SimConfig, TimeSweepEntry
from relkin import benchmark_trajectory, estimate_from_distances, simulate_measurements
from relkin.bundle_io import (
    ACCEL_FILE,
    DIAGNOSTICS_FILE,
    EDM_FILE,
    ESTIMATE_FILE,
    TIMESTAMPS_FILE,
    _write_table,
    read_measurement_bundle,
    write_estimate,
    write_failure_counts,
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
        assert np.array_equal(back.pairs, meas.pairs)
        assert np.array_equal(back.accels, meas.accels)

    def test_bundle_without_accels(self, meas, tmp_path):
        meas.accels = None
        write_measurement_bundle(meas, tmp_path)
        assert not (tmp_path / ACCEL_FILE).exists()
        back = read_measurement_bundle(tmp_path)
        assert back.accels is None
        assert np.array_equal(back.pairs, meas.pairs)

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

    def test_blank_lines_and_crlf_read(self, meas, tmp_path):
        write_measurement_bundle(meas, tmp_path)
        for name in (TIMESTAMPS_FILE, EDM_FILE, ACCEL_FILE):
            lines = (tmp_path / name).read_text().splitlines()
            spaced = ["", "  \t"] + [x for line in lines for x in (line, " ")] + [""]
            (tmp_path / name).write_bytes("\r\n".join(spaced).encode())
        back = read_measurement_bundle(tmp_path)
        for field in ("timestamps", "pairs", "accels"):
            assert np.array_equal(getattr(back, field), getattr(meas, field))


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

    @pytest.mark.parametrize(
        "name,edit,message",
        [
            (EDM_FILE, lambda rows: rows[:3] + rows[4:5] + rows[4:],
             r"every \(k, i, j\) must occur exactly once \(found a repeat\)"),
            (TIMESTAMPS_FILE, lambda rows: rows[:1] + ["0" + rows[1][1:]] + rows[2:],
             "k must take each value 0..K exactly once"),
            (ACCEL_FILE, lambda rows: ["0,99,0,1.0"] + rows[1:],
             "readings need 0 <= k < 7 .* 0 <= node < 10 .* and axis >= 0"),
        ],
        ids=["repeated-cell", "k-not-0-to-K", "reading-out-of-range"],
    )
    def test_each_index_guard_names_its_rule(self, bundle, name, edit, message):
        _edit_rows(bundle / name, edit)
        with pytest.raises(ConfigError, match=message):
            read_measurement_bundle(bundle)

    def test_short_row_rejected(self, bundle):
        _edit_rows(bundle / EDM_FILE, lambda rows: [rows[0].rsplit(",", 1)[0]] + rows[1:])
        with pytest.raises(ConfigError, match="4 comma-separated fields"):
            read_measurement_bundle(bundle)

    def test_negative_squared_distance_rejected(self, bundle):
        negative = lambda rows: rows[:4] + [rows[4].rsplit(",", 1)[0] + ",-5.0"] + rows[5:]
        _edit_rows(bundle / EDM_FILE, negative)
        with pytest.raises(InvalidDimensionError, match="squared distances must be nonnegative"):
            read_measurement_bundle(bundle)

    def test_deleted_timestamp_row_rejected(self, bundle):
        _edit_rows(bundle / TIMESTAMPS_FILE, lambda rows: rows[:-1])
        with pytest.raises(ConfigError, match="0 <= k < 6"):
            read_measurement_bundle(bundle)

    @pytest.mark.parametrize("edit", [
        lambda rows: rows[:3] + ["# a comment"] + rows[3:],
        lambda rows: [rows[0] + ","] + rows[1:],
    ], ids=["hash-line", "trailing-comma"])
    def test_malformed_row_names_field_count(self, bundle, edit):
        _edit_rows(bundle / EDM_FILE, edit)
        with pytest.raises(ConfigError, match="every row needs 4 comma-separated fields"):
            read_measurement_bundle(bundle)

    @pytest.mark.parametrize("index", ["1.5", "1e0", "", "99999999999999999999"])
    def test_index_must_be_an_int64_literal(self, bundle, index):
        _edit_rows(bundle / EDM_FILE, lambda rows: [index + rows[0][1:]] + rows[1:])
        with pytest.raises(ConfigError, match=EDM_FILE):
            read_measurement_bundle(bundle)

    @pytest.mark.parametrize("value", ["", "1_000.5"])
    def test_value_must_be_a_plain_float_literal(self, bundle, value):
        _edit_rows(bundle / EDM_FILE, lambda rows: [rows[0].rsplit(",", 1)[0] + "," + value]
                   + rows[1:])
        with pytest.raises(ConfigError, match=EDM_FILE):
            read_measurement_bundle(bundle)

    def test_index_parsed_via_a_float_is_rejected(self, bundle, monkeypatch):
        """A numpy whose loadtxt reads int field '1.0' as 1 with only a warning."""
        loadtxt = np.loadtxt

        def lenient_loadtxt(rows, **kwargs):
            truncated = [row.replace(",1.0,", ",1,", 1) for row in rows]
            if truncated != rows:
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                              DeprecationWarning, stacklevel=2)
            return loadtxt(truncated, **kwargs)

        monkeypatch.setattr(np, "loadtxt", lenient_loadtxt)
        _edit_rows(bundle / EDM_FILE, lambda rows: [rows[0].replace(",1,", ",1.0,", 1)]
                   + rows[1:])
        assert (bundle / EDM_FILE).read_text().splitlines()[1].startswith("0,0,1.0,")
        with pytest.raises(ConfigError, match=f"{EDM_FILE}: .*integer via a float"):
            read_measurement_bundle(bundle)

    def test_header_only_accels_is_one_clean_error(self, bundle):
        (bundle / ACCEL_FILE).write_text("k,node,axis,value\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="no accelerometer readings"):
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
        assert "residual edm_fit = " in diag

    def test_conditioning_lines_follow_residuals(self, tmp_path):
        _, est, _, _ = _hand_built_outputs()
        est.conditioning = {"position_mds": 2.5e4, "basis": float("nan")}
        write_estimate(est, tmp_path)
        assert (tmp_path / DIAGNOSTICS_FILE).read_text() == (
            "residual edm_fit = 1e-05\n"
            "residual basis = 0.1\n"
            "conditioning position_mds = 25000.0\n"
            "conditioning basis = nan\n"
            "warning: minimum-norm velocity\n"
        )

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


    def test_empty_tables_are_header_only(self, tmp_path):
        assert write_rmse_table(RmseTable(rows=[]), tmp_path / "r.csv").read_text() == (
            "method,k,block,rmse\n")
        assert write_time_sweep([], tmp_path / "s.csv").read_text() == "method,k,t,rmse\n"
        path = write_failure_counts({}, 10, tmp_path / "f.csv")
        assert path.read_text() == "k,failures,n_trials\n"


def _hand_built_outputs():
    """A 4-node, 2-sample bundle, a small estimate and tables, with values
    whose shortest repr takes each form: 0.1, 1e-05, 2.0, 1e+20, -1e-07."""
    pairs = np.array([[1.0, 2.0, 0.1, 1e-05, 3.5, 12345.678],
                      [0.30000000000000004, 2.0, 1e-05, 4.0, 0.25, 1e+20]])
    accels = np.array([[[0.1, -0.5, 2.0, 1e-05], [0.0, 3.0, -1e-07, 0.7]],
                       [[1.5, 0.1, -2.0, 0.0], [1e-05, 0.2, 0.3, -4.25]]])
    meas = MeasurementSet(timestamps=[0.0, 0.1], pairs=pairs, accels=accels)
    est = KinematicEstimate(
        y0=np.array([[0.1, -2.0], [1e-05, 3.0]]),
        y1=np.array([[2.0, 0.0], [-0.1, 1e-05]]),
        y2=np.array([[0.5, 0.25], [-1e-07, 2.0]]),
        rotation=np.array([[0.0, -1.0], [1.0, 0.0]]),
        residuals={"edm_fit": 1e-05, "basis": 0.1},
        warnings=["minimum-norm velocity"],
    )
    table = RmseTable(rows=[RmseEntry("accel", 10, "Y0", 0.1),
                            RmseEntry("distance", 40, "B2", 1e-05)])
    sweep = [TimeSweepEntry("distance", 10, -5.0, 2.0), TimeSweepEntry("accel", 10, 0.1, 1e-05)]
    return meas, est, table, sweep


GOLDEN = {
    "timestamps.csv": (
        "k,t\n"
        "0,0.0\n"
        "1,0.1\n"
    ),
    "edms.csv": (
        "k,i,j,value\n"
        "0,0,1,1.0\n"
        "0,0,2,2.0\n"
        "0,0,3,0.1\n"
        "0,1,2,1e-05\n"
        "0,1,3,3.5\n"
        "0,2,3,12345.678\n"
        "1,0,1,0.30000000000000004\n"
        "1,0,2,2.0\n"
        "1,0,3,1e-05\n"
        "1,1,2,4.0\n"
        "1,1,3,0.25\n"
        "1,2,3,1e+20\n"
    ),
    "accels.csv": (
        "k,node,axis,value\n"
        "0,0,0,0.1\n"
        "0,0,1,0.0\n"
        "0,1,0,-0.5\n"
        "0,1,1,3.0\n"
        "0,2,0,2.0\n"
        "0,2,1,-1e-07\n"
        "0,3,0,1e-05\n"
        "0,3,1,0.7\n"
        "1,0,0,1.5\n"
        "1,0,1,1e-05\n"
        "1,1,0,0.1\n"
        "1,1,1,0.2\n"
        "1,2,0,-2.0\n"
        "1,2,1,0.3\n"
        "1,3,0,0.0\n"
        "1,3,1,-4.25\n"
    ),
    "estimate.csv": (
        "block,row,col,value\n"
        "Y0,0,0,0.1\n"
        "Y0,0,1,-2.0\n"
        "Y0,1,0,1e-05\n"
        "Y0,1,1,3.0\n"
        "Y1,0,0,2.0\n"
        "Y1,0,1,0.0\n"
        "Y1,1,0,-0.1\n"
        "Y1,1,1,1e-05\n"
        "Y2,0,0,0.5\n"
        "Y2,0,1,0.25\n"
        "Y2,1,0,-1e-07\n"
        "Y2,1,1,2.0\n"
        "rotation,0,0,0.0\n"
        "rotation,0,1,-1.0\n"
        "rotation,1,0,1.0\n"
        "rotation,1,1,0.0\n"
    ),
    "diagnostics.txt": (
        "residual edm_fit = 1e-05\n"
        "residual basis = 0.1\n"
        "warning: minimum-norm velocity\n"
    ),
    "rmse.csv": (
        "method,k,block,rmse\n"
        "accel,10,Y0,0.1\n"
        "distance,40,B2,1e-05\n"
    ),
    "time_sweep.csv": (
        "method,k,t,rmse\n"
        "distance,10,-5.0,2.0\n"
        "accel,10,0.1,1e-05\n"
    ),
    "failures.csv": "k,failures,n_trials\n10,0,100\n40,1,100\n",
}


class TestGoldenText:
    """The exact text of every writer; a change of number format fails here."""

    def test_every_file_matches(self, tmp_path):
        meas, est, table, sweep = _hand_built_outputs()
        write_measurement_bundle(meas, tmp_path)
        write_estimate(est, tmp_path)
        write_rmse_table(table, tmp_path / "rmse.csv")
        write_time_sweep(sweep, tmp_path / "time_sweep.csv")
        write_failure_counts({10: 0, 40: 1}, 100, tmp_path / "failures.csv")
        for name, text in GOLDEN.items():
            assert (tmp_path / name).read_text(encoding="utf-8") == text, name

    def test_golden_bundle_reads_back_exactly(self, tmp_path):
        meas = _hand_built_outputs()[0]
        write_measurement_bundle(meas, tmp_path)
        back = read_measurement_bundle(tmp_path)
        for field in ("timestamps", "pairs", "accels"):
            assert np.array_equal(getattr(back, field), getattr(meas, field))


def _row_join_oracle(header, *columns):
    """The table text built row by row: broadcast, ravel, ``str`` each cell, join."""
    cells = [map(str, np.ravel(c).tolist()) for c in np.broadcast_arrays(*columns)]
    return "\n".join([header, *map(",".join, zip(*cells))]) + "\n"


def _random_floats(rng, shape):
    """Floats of every repr form: fixed and exponent notation, both signs, ±0."""
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)
    values.flat[::7] = 0.0
    values.flat[3::11] = -0.0
    return values


def _layouts(rng):
    kk, m = rng.integers(1, 8), rng.integers(1, 12)
    names = rng.choice(["distance", "accel", "Y0", "rotation"], size=m)
    return {
        "scalar-column": (7, np.arange(m), _random_floats(rng, m)),
        "grid-against-indices": (
            np.arange(kk)[:, None], rng.integers(0, 50, m), rng.integers(0, 50, m),
            _random_floats(rng, (kk, m)),
        ),
        "string-columns": (names, tuple(str(x) for x in rng.integers(0, 9, m)),
                           _random_floats(rng, m)),
        "full-size": (rng.integers(-5, 5, (kk, m)), _random_floats(rng, (kk, m))),
    }


class TestWriteTableOracle:
    """``_write_table`` against the row-by-row join on random broadcast layouts."""

    @pytest.mark.parametrize(
        "layout", ["scalar-column", "grid-against-indices", "string-columns", "full-size"]
    )
    @pytest.mark.parametrize("seed", range(5))
    def test_bytes_match_row_join(self, tmp_path, layout, seed):
        columns = _layouts(np.random.default_rng(seed))[layout]
        header = ",".join(f"c{i}" for i in range(len(columns)))
        path = _write_table(tmp_path / "t.csv", header, *columns)
        assert path.read_bytes() == _row_join_oracle(header, *columns).encode()

    def test_empty_table_is_header_only(self, tmp_path):
        path = _write_table(tmp_path / "t.csv", "a,b", np.arange(3)[:, None], np.empty(0))
        assert path.read_bytes() == b"a,b\n" == _row_join_oracle("a,b", np.arange(3)[:, None],
                                                                  np.empty(0)).encode()


    def test_no_columns_is_header_only(self, tmp_path):
        path = _write_table(tmp_path / "t.csv", "a,b")
        assert path.read_bytes() == b"a,b\n" == _row_join_oracle("a,b").encode()


class TestWideRoundTrip:
    """n = 30, K = 60, with values whose repr takes each form, -0.0 included."""

    @pytest.fixture
    def wide(self):
        rng = np.random.default_rng(11)
        pairs = rng.random((61, 435)) * 10.0 ** rng.integers(-8, 8, (61, 435))
        pairs.flat[[5, 77, 400, 9000]] = [5e-324, 1e+20, 1e-05, 0.30000000000000004]
        accels = _random_floats(rng, (61, 2, 30))
        accels.flat[[0, 17, 3000]] = [-0.0, 5e-324, -1e+20]
        return MeasurementSet(np.linspace(-3.0, 3.0, 61), pairs, accels)

    def test_write_read_is_bit_identical(self, wide, tmp_path):
        write_measurement_bundle(wide, tmp_path)
        back = read_measurement_bundle(tmp_path)
        assert back.pairs.shape == (61, 435) and back.accels.shape == (61, 2, 30)
        for field in ("timestamps", "pairs", "accels"):
            assert np.array_equal(getattr(back, field).view(np.uint64),
                                  getattr(wide, field).view(np.uint64))

    def test_write_read_write_is_byte_identical(self, wide, tmp_path):
        write_measurement_bundle(wide, tmp_path / "a")
        write_measurement_bundle(read_measurement_bundle(tmp_path / "a"), tmp_path / "b")
        for name in (TIMESTAMPS_FILE, EDM_FILE, ACCEL_FILE):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
