"""Result records and CSV artifact round trips."""

import csv
import io
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from morphbeam.beampattern import BeampatternGrid
from morphbeam.covariance import covariance_factor
from morphbeam.results import (
    BEAMPATTERN_HEADER,
    COMPARE_HEADER,
    COVARIANCE_HEADER,
    SHAPE_HEADER,
    SWEEP_POWER_HEADER,
    SWEEP_RANGE_HEADER,
    ResultRecord,
    read_beampattern_csv,
    read_covariance_csv,
    read_shape_csv,
    write_beampattern_csv,
    write_compare_csv,
    write_covariance_csv,
    write_shape_csv,
    write_sweep_power_csv,
    write_sweep_range_csv,
)


def sample_record(**overrides):
    kw = dict(
        config_digest="ab" * 32,
        scheme="fim-mimo",
        seed=3,
        objective_mw=1454.93,
        objective_dbm=31.6,
        per_target_dbm=[25.6, 25.6, 28.5],
        min_target_dbm=25.6,
        outer_iterations=18,
        sdp_all_converged=True,
        max_sdp_gap=1.1e-7,
        ascent_stops={"gradient_tol": 9, "step_floor": 8, "max_iters": 1},
        termination_reason="threshold",
        wall_time_seconds=8.2,
    )
    kw.update(overrides)
    return ResultRecord(**kw)


class TestResultRecord:
    def test_save_load_round_trip(self, tmp_path):
        rec = sample_record()
        rec.save(tmp_path / "record.json")
        back = ResultRecord.load(tmp_path / "record.json")
        assert back == rec

    def test_canonical_form_ignores_wall_time(self):
        a = sample_record(wall_time_seconds=1.0)
        b = sample_record(wall_time_seconds=99.0)
        assert a.canonical_json() == b.canonical_json()
        assert a.digest() == b.digest()
        assert "wall_time" not in a.canonical_json()

    def test_digest_tracks_payload(self):
        assert sample_record().digest() != sample_record(seed=4).digest()

    def test_version_gate(self):
        d = sample_record().to_dict()
        d["artifact_version"] = 999
        with pytest.raises(ValueError):
            ResultRecord.from_dict(d)


class TestCsvRoundTrips:
    def test_covariance_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        r = g @ g.conj().T
        path = tmp_path / "cov.csv"
        write_covariance_csv(path, r)
        assert path.read_text().splitlines()[0] == ",".join(COVARIANCE_HEADER)
        back = read_covariance_csv(path)
        np.testing.assert_array_equal(back, covariance_factor(r))   # repr round-trips doubles
        assert np.linalg.norm(back @ back.conj().T - r) <= 1e-12 * np.linalg.norm(r)

    def test_shape_exact(self, tmp_path):
        d = np.array([0.0, -0.25, 0.3333333333333333, 1e-17])
        path = tmp_path / "shape.csv"
        write_shape_csv(path, d)
        assert path.read_text().splitlines()[0] == ",".join(SHAPE_HEADER)
        np.testing.assert_array_equal(read_shape_csv(path), d)

    def test_beampattern_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        grid = BeampatternGrid(
            theta_axis=np.linspace(0.0, np.pi, 7),
            phi_axis=np.linspace(0.0, np.pi, 5),
            power_dbm=rng.uniform(-40, 30, (7, 5)),
        )
        path = tmp_path / "bp.csv"
        write_beampattern_csv(path, grid)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(BEAMPATTERN_HEADER)
        assert len(lines) == 1 + 7 * 5
        back = read_beampattern_csv(path)
        # angles pass through a degree conversion, so allow rounding there
        np.testing.assert_allclose(back.theta_axis, grid.theta_axis, atol=1e-12)
        np.testing.assert_allclose(back.phi_axis, grid.phi_axis, atol=1e-12)
        np.testing.assert_array_equal(back.power_dbm, grid.power_dbm)

    def test_header_mismatch_detected(self, tmp_path):
        path = tmp_path / "cov.csv"
        write_shape_csv(path, np.zeros(3))       # wrong artifact on purpose
        with pytest.raises(ValueError):
            read_covariance_csv(path)

    def test_sweep_and_compare_writers(self, tmp_path):
        p_path = tmp_path / "sp.csv"
        write_sweep_power_csv(p_path, [(10.0, "raa-pa", 1.5, 1.76)])
        assert p_path.read_text().splitlines()[0] == ",".join(SWEEP_POWER_HEADER)

        r_path = tmp_path / "sr.csv"
        write_sweep_range_csv(r_path, [(0.5, 10, 10, 1454.9)])
        assert r_path.read_text().splitlines()[0] == ",".join(SWEEP_RANGE_HEADER)

        c_path = tmp_path / "cmp.csv"
        write_compare_csv(c_path, [("fim-mimo", 1454.9, 31.6, 25.6)])
        assert c_path.read_text().splitlines()[0] == ",".join(COMPARE_HEADER)


# doubles at the edges of the format: signed zeros, subnormals, the extremes
EDGE_VALUES = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                        1.7976931348623157e+308, -1.7976931348623157e+308,
                        1.0 / 3.0, -1e-17, 123456789.0])


def csv_writer_bytes(header, rows):
    "The bytes csv.writer gives for a header and rows: the streaming writers' reference."
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


class TestWriterBytes:
    @pytest.mark.parametrize("shape", [(3, 5), (5, 2), (1, 1)])
    def test_covariance_bytes_unchanged(self, tmp_path, shape):
        # R = B B^H is square PSD, with B of the given shape drawn from doubles
        # whose products stay finite and normal; the file holds R's factor G
        rng = np.random.default_rng(sum(shape))
        values = np.array([1.0 / 3.0, -1e-17, 123456789.0, -2.5])
        b = np.empty(shape, dtype=complex)
        b.real = rng.choice(values, shape)
        b.imag = rng.choice(values, shape)
        r = b @ b.conj().T
        for m in (r, r.real.copy()):
            path = tmp_path / "cov.csv"
            write_covariance_csv(path, m)
            g = covariance_factor(m)
            want = csv_writer_bytes(COVARIANCE_HEADER, (
                (i, j, float(g[i, j].real), float(g[i, j].imag))
                for i in range(g.shape[0]) for j in range(g.shape[1])))
            assert path.read_bytes() == want

    def test_beampattern_bytes_unchanged(self, tmp_path):
        rng = np.random.default_rng(9)
        grid = BeampatternGrid(theta_axis=np.linspace(0.0, np.pi, 4),
                               phi_axis=np.array([0.0, 0.1, 1.0, 2.0, 3.0, np.pi]),
                               power_dbm=rng.choice(EDGE_VALUES, (4, 6)))
        path = tmp_path / "bp.csv"
        write_beampattern_csv(path, grid)
        theta_deg = np.rad2deg(grid.theta_axis)
        phi_deg = np.rad2deg(grid.phi_axis)
        want = csv_writer_bytes(BEAMPATTERN_HEADER, (
            (float(theta_deg[i]), float(phi_deg[j]), float(grid.power_dbm[i, j]))
            for i in range(4) for j in range(6)))
        assert path.read_bytes() == want


class TestCovarianceWriterRejects:
    # What the writer cannot store as R = G G^H is refused before a file is made.
    @pytest.mark.parametrize("r, reason", [
        (np.eye(3, 4), r"covariance is \(3, 4\)"),
        (np.ones(3), "matrix"),
        (np.array([[1.0, 0.5j], [0.5j, 1.0]]), "Hermitian"),
        (np.diag([1.0, np.nan, 1.0]), "non-finite"),
        (np.diag([1.0, 1.0, -1e-3]), "not PSD"),
        (np.zeros((3, 3)), "zero"),
    ], ids=["non-square", "vector", "non-hermitian", "non-finite", "indefinite", "zero"])
    def test_rejected(self, tmp_path, r, reason):
        path = tmp_path / "cov.csv"
        with pytest.raises(ValueError, match=reason):
            write_covariance_csv(path, r)
        assert not path.exists()

    def test_psd_rounding_is_accepted_and_not_stored(self):
        # -1e-9 lam_max passes the PSD test; only the positive eigenpairs are stored
        g = covariance_factor(np.diag([1.0, 0.5, -1e-9]))
        assert g.shape == (3, 2)
        np.testing.assert_allclose(g @ g.conj().T, np.diag([1.0, 0.5, 0.0]), atol=1e-15)


def bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


@st.composite
def psd_matrices(draw):
    "R = B B^H for a finite, nonzero complex B whose products stay finite and normal."
    shape = draw(st.tuples(st.integers(1, 6), st.integers(1, 6)))
    entries = st.floats(-1e100, 1e100, allow_subnormal=False)
    parts = [draw(hnp.arrays(np.float64, shape, elements=entries)) for _ in range(2)]
    b = np.empty(shape, dtype=complex)
    b.real, b.imag = parts
    assume(np.max(np.abs(b)) > 1e-100)
    return b @ b.conj().T


class TestRoundTripBits:
    @settings(max_examples=60, deadline=None)
    @given(r=psd_matrices())
    def test_covariance(self, tmp_path_factory, r):
        path = tmp_path_factory.mktemp("cov") / "cov.csv"
        write_covariance_csv(path, r)
        np.testing.assert_array_equal(bits(read_covariance_csv(path)),
                                      bits(covariance_factor(r)))

    @settings(max_examples=60, deadline=None)
    @given(d=hnp.arrays(np.float64, st.integers(1, 12),
                        elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_shape(self, tmp_path_factory, d):
        path = tmp_path_factory.mktemp("shape") / "shape.csv"
        write_shape_csv(path, d)
        np.testing.assert_array_equal(bits(read_shape_csv(path)), bits(d))

    @settings(max_examples=60, deadline=None)
    @given(power=hnp.arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 5)),
                            elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_beampattern_power(self, tmp_path_factory, power):
        n_t, n_p = power.shape
        grid = BeampatternGrid(theta_axis=np.linspace(0.0, np.pi, n_t),
                               phi_axis=np.linspace(0.1, 3.0, n_p), power_dbm=power)
        path = tmp_path_factory.mktemp("bp") / "bp.csv"
        write_beampattern_csv(path, grid)
        np.testing.assert_array_equal(bits(read_beampattern_csv(path).power_dbm), bits(power))


def write_body(path, header, lines):
    path.write_text("".join(f"{line}\r\n" for line in [",".join(header), *lines]),
                    newline="")
    return path


COVARIANCE_ROWS = ["0,0,1.0,0.0", "0,1,0.5,0.25", "1,0,0.5,-0.25", "1,1,2.0,0.0"]
SHAPE_ROWS = ["0,0.1", "1,-0.2", "2,0.3"]
BEAMPATTERN_ROWS = ["0.0,0.0,1.0", "0.0,45.0,2.0", "0.0,90.0,3.0",
                    "90.0,0.0,4.0", "90.0,45.0,5.0", "90.0,90.0,6.0"]


def order_reason(row, got, put):
    "The pattern of a reader's message for a data row whose keys are not the writer's."
    return re.escape(f"data row {row} holds ") + r"\[.*\] = " + re.escape(
        f"{got}, where the writer puts {put}")


class TestReadersRejectBadEntries:
    # Each case edits a valid body; the error must name the file.

    @pytest.mark.parametrize("lines, reason", [
        (COVARIANCE_ROWS[:3] + ["-1,-1,9.0,0"], order_reason(4, [-1.0, -1.0], [1, 1])),
        (COVARIANCE_ROWS[:3] + ["1,0.5,2.0,0.0"], order_reason(4, [1.0, 0.5], [1, 1])),
        (COVARIANCE_ROWS[:3] + ["7,1,2.0,0.0"], order_reason(4, [7.0, 1.0], [1, 1])),
        (COVARIANCE_ROWS + ["0,1,0.5,0.25"], "5 data rows are not a whole number of blocks of 2"),
        (COVARIANCE_ROWS[:2] + COVARIANCE_ROWS[3:], "3 data rows are not a whole number"),
        ([], "no data rows"),
        (COVARIANCE_ROWS[:3] + ["1,1,abc,0.0"], "abc"),
    ], ids=["negative", "fractional", "out-of-range", "duplicate", "missing",
            "empty", "non-numeric"])
    def test_covariance(self, tmp_path, lines, reason):
        path = write_body(tmp_path / "cov.csv", COVARIANCE_HEADER, lines)
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*" + reason):
            read_covariance_csv(path)

    @pytest.mark.parametrize("lines, reason", [
        (SHAPE_ROWS[:2] + ["-1,0.3"], order_reason(3, [-1.0], [2])),
        (SHAPE_ROWS[:2] + ["1.5,0.3"], order_reason(3, [1.5], [2])),
        (SHAPE_ROWS[:2] + ["3,0.3"], order_reason(3, [3.0], [2])),
        (SHAPE_ROWS[:2] + ["1,0.3"], order_reason(3, [1.0], [2])),
        ([], "no data rows"),
        (SHAPE_ROWS[:2] + ["2,0.3,7"], "columns"),
    ], ids=["negative", "fractional", "out-of-range", "duplicate", "empty",
            "extra-column"])
    def test_shape(self, tmp_path, lines, reason):
        path = write_body(tmp_path / "shape.csv", SHAPE_HEADER, lines)
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*" + reason):
            read_shape_csv(path)

    @pytest.mark.parametrize("lines, reason", [
        ([row.replace("90.0,", "-90.0,", 1) if row.startswith("90") else row
          for row in BEAMPATTERN_ROWS], "within"),
        ([row.replace("90.0,", "200.0,", 1) if row.startswith("90") else row
          for row in BEAMPATTERN_ROWS], "within"),
        (BEAMPATTERN_ROWS[:4] + ["90.0,0.0,5.0", "90.0,90.0,6.0"],
         order_reason(5, [90.0, 0.0], [90.0, 45.0])),
        (BEAMPATTERN_ROWS[:5], "5 data rows are not a whole number of blocks of 3"),
        ([], "no data rows"),
        (BEAMPATTERN_ROWS[:4] + ["91.0,45.0,5.0", "90.0,90.0,6.0"],
         order_reason(5, [91.0, 45.0], [90.0, 45.0])),
    ], ids=["negative", "out-of-range", "duplicate", "missing", "empty", "theta-in-block"])
    def test_beampattern(self, tmp_path, lines, reason):
        path = write_body(tmp_path / "bp.csv", BEAMPATTERN_HEADER, lines)
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*" + reason):
            read_beampattern_csv(path)

    @pytest.mark.parametrize("reader, header, lines, reason", [
        (read_covariance_csv, COVARIANCE_HEADER, COVARIANCE_ROWS[:3] + ["1,1,nan,0.0"],
         "row 4 has a nan re"),
        (read_shape_csv, SHAPE_HEADER, SHAPE_ROWS[:2] + ["2,nan"],
         "row 3 has a nan displacement_wavelengths"),
        (read_beampattern_csv, BEAMPATTERN_HEADER, BEAMPATTERN_ROWS[:5] + ["90.0,90.0,nan"],
         "row 6 has a nan power_dbm"),
        (read_covariance_csv, COVARIANCE_HEADER, COVARIANCE_ROWS[:3] + ["1,1,inf,0.0"],
         "row 4 has an infinite re"),
        (read_shape_csv, SHAPE_HEADER, SHAPE_ROWS[:2] + ["2,inf"],
         "row 3 has an infinite displacement_wavelengths"),
        (read_beampattern_csv, BEAMPATTERN_HEADER, BEAMPATTERN_ROWS[:5] + ["90.0,90.0,-inf"],
         "row 6 has an infinite power_dbm"),
    ], ids=["covariance", "shape", "beampattern", "covariance-inf", "shape-inf",
            "beampattern-inf"])
    def test_nan_entry(self, tmp_path, reader, header, lines, reason):
        path = write_body(tmp_path / "f.csv", header, lines)
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*" + reason):
            reader(path)

    def test_infinite_covariance_factor(self, tmp_path):
        path = write_body(tmp_path / "cov.csv", COVARIANCE_HEADER,
                          COVARIANCE_ROWS[:3] + ["1,1,2.0,-inf"])
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*infinite"):
            read_covariance_csv(path)

    def test_valid_bodies_load(self, tmp_path):
        # bodies in the writers' row order load; the same rows reversed are refused
        r = read_covariance_csv(write_body(tmp_path / "c.csv", COVARIANCE_HEADER,
                                           COVARIANCE_ROWS))
        np.testing.assert_array_equal(r, [[1.0, 0.5 + 0.25j], [0.5 - 0.25j, 2.0]])
        d = read_shape_csv(write_body(tmp_path / "s.csv", SHAPE_HEADER, SHAPE_ROWS))
        np.testing.assert_array_equal(d, [0.1, -0.2, 0.3])
        grid = read_beampattern_csv(write_body(tmp_path / "b.csv", BEAMPATTERN_HEADER,
                                               BEAMPATTERN_ROWS))
        np.testing.assert_array_equal(grid.power_dbm, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        for reader, header, rows, reason in [
            (read_covariance_csv, COVARIANCE_HEADER, COVARIANCE_ROWS,
             order_reason(1, [1.0, 1.0], [0, 0])),
            (read_shape_csv, SHAPE_HEADER, SHAPE_ROWS, order_reason(1, [2.0], [0])),
            (read_beampattern_csv, BEAMPATTERN_HEADER, BEAMPATTERN_ROWS, "strictly increasing"),
        ]:
            path = write_body(tmp_path / "reversed.csv", header, rows[::-1])
            with pytest.raises(ValueError, match=re.escape(str(path)) + ".*" + reason):
                reader(path)
