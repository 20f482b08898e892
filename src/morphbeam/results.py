"""Result records and flat-file persistence for experiment outputs.

Records serialize to JSON; matrices and grids go to CSV with fixed headers so
downstream plotting never guesses column meanings. :func:`_write_csv` writes
every CSV, comma-separated with CRLF line ends; floats take Python's shortest
round-trip form, so re-parsed values are bit-equal to what was computed.

``covariance.csv`` holds a factor G of the covariance, R = G G^H, with one
column per eigenpair of R above rounding, not R's N^2 entries: a rank-1
optimum is N rows. The writer takes a covariance's ``eigenfactor()`` (or
:func:`morphbeam.covariance.covariance_factor` of a dense R); the reader
returns G. The header differs from the ``row,col,re,im`` of artifact
version 3, so an old file of R's entries is rejected instead of read as G.

A reader takes exactly the rows its writer writes, in the writer's order:
``covariance.csv`` element-major with k columns per element, ``shape.csv``
in element order, ``beampattern.csv`` theta-major, each theta with the first
theta's phi values; k and the phi count come from the first block. Its
ValueError names the file and the first row that differs from the writer's.
An empty body, a NaN or infinite entry, or a partial block is refused too.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .beampattern import BeampatternGrid
from .covariance import CovarianceMatrix, covariance_factor

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


def _write_csv(path: str | Path, header: list[str], lines) -> None:
    "The header line, then ``lines``, each already ending in CRLF."
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(lines)


def _read_body(path: str | Path, expected_header: list[str]) -> np.ndarray:
    "Check the header, then parse every body row as floats, one row per line."
    with open(path, newline="") as fh:
        header = fh.readline().rstrip("\r\n").split(",")
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


def _blocks(path, body: np.ndarray, header: list[str]) -> tuple[int, int]:
    "(blocks, rows per block); the first block is the rows sharing the first row's key."
    # row 0 never differs from itself, so argmax is 0 only when no row does
    size = int(np.argmax(body[:, 0] != body[0, 0])) or body.shape[0]
    if body.shape[0] % size:
        raise ValueError(f"{path}: {body.shape[0]} data rows are not a whole number of "
                         f"blocks of {size}, the rows of the first {header[0]}")
    return body.shape[0] // size, size


def _check_keys(path, body: np.ndarray, header: list[str], want: np.ndarray) -> None:
    "ValueError naming the first data row whose leading key columns are not ``want``'s row."
    m = want.shape[1]
    bad = np.flatnonzero(np.any(body[:, :m] != want, axis=1))
    if bad.size:
        row = bad[0]
        raise ValueError(f"{path}: data row {row + 1} holds {header[:m]} = "
                         f"{body[row, :m].tolist()}, where the writer puts {want[row].tolist()}")


def write_covariance_csv(path: str | Path, cov: CovarianceMatrix | np.ndarray) -> None:
    "G (``eigenfactor()``, or :func:`covariance_factor` of a dense R) as (element, column, re, im)."
    g = cov.eigenfactor() if isinstance(cov, CovarianceMatrix) else covariance_factor(cov)
    _write_csv(path, COVARIANCE_HEADER, (
        f"{i},{j},{x!r},{y!r}\r\n" for i, row in enumerate(g)
        for j, (x, y) in enumerate(zip(row.real.tolist(), row.imag.tolist()))))


def read_covariance_csv(path: str | Path) -> np.ndarray:
    "The N x k factor G of ``covariance.csv``, R = G G^H."
    body = _read_body(path, COVARIANCE_HEADER)
    n, k = _blocks(path, body, COVARIANCE_HEADER)
    _check_keys(path, body, COVARIANCE_HEADER, np.column_stack(np.divmod(np.arange(n * k), k)))
    # each (re, im) pair read as one complex keeps every bit, -0.0 included
    return np.ascontiguousarray(body[:, 2:]).view(complex).reshape(n, k)


def write_shape_csv(path: str | Path, displacements: np.ndarray) -> None:
    values = np.asarray(displacements, dtype=float)
    _write_csv(path, SHAPE_HEADER, (f"{i},{float(v)!r}\r\n" for i, v in enumerate(values)))


def read_shape_csv(path: str | Path) -> np.ndarray:
    body = _read_body(path, SHAPE_HEADER)
    _check_keys(path, body, SHAPE_HEADER, np.arange(body.shape[0])[:, None])
    return body[:, 1].copy()


def write_beampattern_csv(path: str | Path, grid: BeampatternGrid) -> None:
    "Grid rows ordered theta-major: all phi values for theta[0], then theta[1], ..."
    theta_deg = [repr(v) for v in np.rad2deg(grid.theta_axis).tolist()]
    phi_deg = [repr(v) for v in np.rad2deg(grid.phi_axis).tolist()]
    _write_csv(path, BEAMPATTERN_HEADER, (
        f"{t},{p},{v!r}\r\n" for t, row in zip(theta_deg, grid.power_dbm.tolist())
        for p, v in zip(phi_deg, row)))


def read_beampattern_csv(path: str | Path) -> BeampatternGrid:
    "The grid of ``beampattern.csv``; phi_axis is the first theta's block."
    body = _read_body(path, BEAMPATTERN_HEADER)
    n_t, n_p = _blocks(path, body, BEAMPATTERN_HEADER)
    thetas, phis = body[::n_p, 0], body[:n_p, 1]
    _check_keys(path, body, BEAMPATTERN_HEADER,
                np.column_stack([np.repeat(thetas, n_p), np.tile(phis, n_t)]))
    try:
        return BeampatternGrid(theta_axis=np.deg2rad(thetas), phi_axis=np.deg2rad(phis),
                               power_dbm=body[:, 2].reshape(n_t, n_p).copy())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_sweep_power_csv(path: str | Path, rows) -> None:
    "Rows of (p_t_dbm, scheme, cumulated_mw, cumulated_dbm)."
    _write_csv(path, SWEEP_POWER_HEADER, (",".join(map(str, row)) + "\r\n" for row in rows))


def write_sweep_range_csv(path: str | Path, rows) -> None:
    "Rows of (d_max_wavelengths, n_x, n_z, cumulated_mw)."
    _write_csv(path, SWEEP_RANGE_HEADER, (",".join(map(str, row)) + "\r\n" for row in rows))


def write_compare_csv(path: str | Path, rows) -> None:
    "Rows of (scheme, cumulated_mw, cumulated_dbm, min_target_dbm)."
    _write_csv(path, COMPARE_HEADER, (",".join(map(str, row)) + "\r\n" for row in rows))
