"""Result records and flat-file persistence for experiment outputs.

Records serialize to JSON; matrices and grids go to CSV with fixed headers so
downstream plotting never guesses column meanings. Floats are written with
Python's shortest round-trip representation, which makes re-parsed values
bit-equal to what was computed. The files are what ``csv.writer`` writes:
comma-separated, CRLF line ends, no quoting of numbers.

``covariance.csv`` holds a factor G of the covariance, R = G G^H, with one
column per eigenpair of R above rounding, not R's N^2 entries: a rank-1
optimum is N rows. The writer takes a dense R and factors it with
:func:`morphbeam.covariance.covariance_factor`; the reader returns G. The
header differs from the ``row,col,re,im`` of artifact version 3, so an old
file of R's entries is rejected instead of being read as G.

The readers check the header, parse the body with ``np.loadtxt`` and raise
ValueError naming the file for an empty body, a NaN or infinite entry, a
negative, fractional or out-of-range index, a duplicate entry, or entries
that do not cover the matrix, vector or grid exactly once.
"""

from __future__ import annotations

import csv
import hashlib
import json
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .beampattern import BeampatternGrid
from .covariance import covariance_factor

ARTIFACT_VERSION = 4

# fields excluded from the canonical form compared across reruns
_VOLATILE_FIELDS = ("wall_time_seconds",)

COVARIANCE_HEADER = ["element", "column", "re", "im"]
SHAPE_HEADER = ["element", "displacement_wavelengths"]
BEAMPATTERN_HEADER = ["theta_deg", "phi_deg", "power_dbm"]
SWEEP_POWER_HEADER = ["p_t_dbm", "scheme", "cumulated_mw", "cumulated_dbm"]
SWEEP_RANGE_HEADER = ["d_max_wavelengths", "n_x", "n_z", "cumulated_mw"]
COMPARE_HEADER = ["scheme", "cumulated_mw", "cumulated_dbm", "min_target_dbm"]


@dataclass
class ResultRecord:
    """One optimization outcome, sufficient to reproduce and compare runs."""

    config_digest: str
    scheme: str
    seed: int
    objective_mw: float
    objective_dbm: float
    per_target_dbm: list[float]
    min_target_dbm: float
    outer_iterations: int
    sdp_all_converged: bool             # every SDP of the result reached its gap tolerance
    max_sdp_gap: float                  # largest certified relative gap among those SDPs
    ascent_stops: dict[str, int]        # shape ascents of the result by stop status
    termination_reason: str = ""
    wall_time_seconds: float = 0.0
    artifact_version: int = ARTIFACT_VERSION

    def to_dict(self) -> dict:
        "Every field in declaration order, with ``artifact_version`` first."
        d = asdict(self)
        return {"artifact_version": d.pop("artifact_version"), **d}

    @classmethod
    def from_dict(cls, d: dict) -> "ResultRecord":
        d = dict(d)
        version = d.pop("artifact_version")
        if version != ARTIFACT_VERSION:
            raise ValueError(f"unsupported artifact version {version}")
        return cls(artifact_version=version, **d)

    def canonical_json(self) -> str:
        "Serialized form with volatile (timing) fields removed."
        d = self.to_dict()
        for key in _VOLATILE_FIELDS:
            d.pop(key, None)
        return json.dumps(d, sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "ResultRecord":
        return cls.from_dict(json.loads(Path(path).read_text()))


def _write_csv(path: str | Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_body(path: str | Path, expected_header: list[str]) -> np.ndarray:
    "Check the header, then parse every body row as floats, one row per line."
    with open(path, newline="") as fh:
        header = next(csv.reader([fh.readline()]), None)
        if header != expected_header:
            raise ValueError(f"{path}: expected header {expected_header}, got {header}")
        try:
            with warnings.catch_warnings():
                # an empty body is reported below, with the path
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                body = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if body.shape[0] == 0:
        raise ValueError(f"{path}: no data rows")
    if body.shape[1] != len(expected_header):
        raise ValueError(f"{path}: expected {len(expected_header)} columns, "
                         f"got {body.shape[1]}")
    bad = ~np.isfinite(body)
    if np.any(bad):                 # NaN compares false against every later check, and no
                                    # entry of an artifact is infinite
        row, col = np.argwhere(bad)[0]
        kind = "a nan" if np.isnan(body[row, col]) else "an infinite"
        raise ValueError(f"{path}: data row {row + 1} has {kind} {expected_header[col]}")
    return body


def _index_column(path, values: np.ndarray, name: str, limit: int) -> np.ndarray:
    "Integer indices from a float column; each must lie in [0, limit)."
    bad = ~((values >= 0) & (values < limit) & (values == np.floor(values)))
    if np.any(bad):
        raise ValueError(f"{path}: {name} index {float(values[np.argmax(bad)])!r} is not an "
                         f"integer in [0, {limit})")
    return values.astype(np.intp)


def _check_cover(path, flat: np.ndarray, size: int, label) -> None:
    """Each of ``size`` entries is named by exactly one row.

    ``flat`` holds entry numbers in [0, size); ``label`` turns one into the
    index shown in the error.
    """
    if size > flat.size:            # first, so bincount never counts more than the rows
        raise ValueError(f"{path}: {flat.size} rows cannot cover all {size} entries")
    counts = np.bincount(flat, minlength=size)
    if np.any(counts > 1):
        raise ValueError(f"{path}: duplicate entry {label(np.argmax(counts > 1))}")


def write_covariance_csv(path: str | Path, r: np.ndarray) -> None:
    "R's factor G (:func:`covariance_factor`) as (element, column, re, im) tuples, row-major."
    g = covariance_factor(r).g
    with open(path, "w", newline="") as fh:
        fh.write(",".join(COVARIANCE_HEADER) + "\r\n")
        for i, row in enumerate(g):
            fh.writelines(f"{i},{j},{x!r},{y!r}\r\n"
                          for j, (x, y) in enumerate(zip(row.real.tolist(), row.imag.tolist())))


def read_covariance_csv(path: str | Path) -> np.ndarray:
    "The N x k factor G of ``covariance.csv``, R = G G^H."
    body = _read_body(path, COVARIANCE_HEADER)
    rows = _index_column(path, body[:, 0], "element", body.shape[0])
    cols = _index_column(path, body[:, 1], "column", body.shape[0])
    n, m = int(rows.max()) + 1, int(cols.max()) + 1
    flat = rows * m + cols
    _check_cover(path, flat, n * m, lambda f: divmod(int(f), m))
    g = np.empty(n * m, dtype=complex)
    g.real[flat] = body[:, 2]       # real and imaginary parts set apart keep -0.0
    g.imag[flat] = body[:, 3]
    return g.reshape(n, m)


def write_shape_csv(path: str | Path, displacements: np.ndarray) -> None:
    rows = ((i, float(v)) for i, v in enumerate(np.asarray(displacements, dtype=float)))
    _write_csv(path, SHAPE_HEADER, rows)


def read_shape_csv(path: str | Path) -> np.ndarray:
    body = _read_body(path, SHAPE_HEADER)
    idx = _index_column(path, body[:, 0], "element", body.shape[0])
    _check_cover(path, idx, body.shape[0], int)
    out = np.empty(body.shape[0])
    out[idx] = body[:, 1]
    return out


def write_beampattern_csv(path: str | Path, grid: BeampatternGrid) -> None:
    "Grid rows ordered theta-major: all phi values for theta[0], then theta[1], ..."
    theta_deg = [repr(v) for v in np.rad2deg(grid.theta_axis).tolist()]
    phi_deg = [repr(v) for v in np.rad2deg(grid.phi_axis).tolist()]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(BEAMPATTERN_HEADER) + "\r\n")
        for t, row in zip(theta_deg, grid.power_dbm.tolist()):
            fh.writelines(f"{t},{p},{v!r}\r\n" for p, v in zip(phi_deg, row))


def read_beampattern_csv(path: str | Path) -> BeampatternGrid:
    body = _read_body(path, BEAMPATTERN_HEADER)
    thetas, ti = np.unique(body[:, 0], return_inverse=True)
    phis, pj = np.unique(body[:, 1], return_inverse=True)
    n_p = phis.size
    flat = ti * n_p + pj
    _check_cover(path, flat, thetas.size * n_p,
                 lambda f: (float(thetas[f // n_p]), float(phis[f % n_p])))
    power = np.empty(thetas.size * n_p)
    power[flat] = body[:, 2]
    try:
        return BeampatternGrid(theta_axis=np.deg2rad(thetas), phi_axis=np.deg2rad(phis),
                               power_dbm=power.reshape(thetas.size, n_p))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_sweep_power_csv(path: str | Path, rows) -> None:
    "Rows of (p_t_dbm, scheme, cumulated_mw, cumulated_dbm)."
    _write_csv(path, SWEEP_POWER_HEADER, rows)


def write_sweep_range_csv(path: str | Path, rows) -> None:
    "Rows of (d_max_wavelengths, n_x, n_z, cumulated_mw)."
    _write_csv(path, SWEEP_RANGE_HEADER, rows)


def write_compare_csv(path: str | Path, rows) -> None:
    "Rows of (scheme, cumulated_mw, cumulated_dbm, min_target_dbm)."
    _write_csv(path, COMPARE_HEADER, rows)
