"""Result records and flat-file persistence for experiment outputs.

Records serialize to JSON; matrices and grids go to CSV with fixed headers so
downstream plotting never guesses column meanings. Floats are written with
Python's shortest round-trip representation, which makes re-parsed values
bit-equal to what was computed.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .beampattern import BeampatternGrid

ARTIFACT_VERSION = 2

# fields excluded from the canonical form compared across reruns
_VOLATILE_FIELDS = ("wall_time_seconds",)

COVARIANCE_HEADER = ["row", "col", "re", "im"]
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
    termination_reason: str = ""
    wall_time_seconds: float = 0.0
    artifact_version: int = ARTIFACT_VERSION

    def to_dict(self) -> dict:
        return {
            "artifact_version": self.artifact_version,
            "config_digest": self.config_digest,
            "scheme": self.scheme,
            "seed": self.seed,
            "objective_mw": self.objective_mw,
            "objective_dbm": self.objective_dbm,
            "per_target_dbm": list(self.per_target_dbm),
            "min_target_dbm": self.min_target_dbm,
            "outer_iterations": self.outer_iterations,
            "sdp_all_converged": self.sdp_all_converged,
            "max_sdp_gap": self.max_sdp_gap,
            "termination_reason": self.termination_reason,
            "wall_time_seconds": self.wall_time_seconds,
        }

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


def _read_csv(path: str | Path, expected_header: list[str]) -> list[list[str]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != expected_header:
            raise ValueError(f"{path}: expected header {expected_header}, got {header}")
        return [row for row in reader]


def write_covariance_csv(path: str | Path, r: np.ndarray) -> None:
    "Complex matrix as (row, col, re, im) tuples, row-major."
    r = np.asarray(r)
    n, m = r.shape
    rows = ((i, j, float(r[i, j].real), float(r[i, j].imag))
            for i in range(n) for j in range(m))
    _write_csv(path, COVARIANCE_HEADER, rows)


def read_covariance_csv(path: str | Path) -> np.ndarray:
    rows = _read_csv(path, COVARIANCE_HEADER)
    if not rows:
        raise ValueError(f"{path}: empty covariance file")
    n = max(int(row[0]) for row in rows) + 1
    m = max(int(row[1]) for row in rows) + 1
    r = np.zeros((n, m), dtype=complex)
    for i, j, re, im in rows:
        r[int(i), int(j)] = complex(float(re), float(im))
    return r


def write_shape_csv(path: str | Path, displacements: np.ndarray) -> None:
    rows = ((i, float(v)) for i, v in enumerate(np.asarray(displacements, dtype=float)))
    _write_csv(path, SHAPE_HEADER, rows)


def read_shape_csv(path: str | Path) -> np.ndarray:
    rows = _read_csv(path, SHAPE_HEADER)
    out = np.zeros(len(rows))
    for idx, value in rows:
        out[int(idx)] = float(value)
    return out


def write_beampattern_csv(path: str | Path, grid: BeampatternGrid) -> None:
    "Grid rows ordered theta-major: all phi values for theta[0], then theta[1], ..."
    theta_deg = np.rad2deg(grid.theta_axis)
    phi_deg = np.rad2deg(grid.phi_axis)
    rows = ((float(theta_deg[i]), float(phi_deg[j]), float(grid.power_dbm[i, j]))
            for i in range(theta_deg.size) for j in range(phi_deg.size))
    _write_csv(path, BEAMPATTERN_HEADER, rows)


def read_beampattern_csv(path: str | Path) -> BeampatternGrid:
    rows = _read_csv(path, BEAMPATTERN_HEADER)
    thetas = sorted({float(r[0]) for r in rows})
    phis = sorted({float(r[1]) for r in rows})
    power = np.full((len(thetas), len(phis)), np.nan)
    t_index = {v: i for i, v in enumerate(thetas)}
    p_index = {v: j for j, v in enumerate(phis)}
    for t, p, value in rows:
        power[t_index[float(t)], p_index[float(p)]] = float(value)
    return BeampatternGrid(theta_axis=np.deg2rad(thetas),
                           phi_axis=np.deg2rad(phis), power_dbm=power)


def write_sweep_power_csv(path: str | Path, rows) -> None:
    "Rows of (p_t_dbm, scheme, cumulated_mw, cumulated_dbm)."
    _write_csv(path, SWEEP_POWER_HEADER, rows)


def write_sweep_range_csv(path: str | Path, rows) -> None:
    "Rows of (d_max_wavelengths, n_x, n_z, cumulated_mw)."
    _write_csv(path, SWEEP_RANGE_HEADER, rows)


def write_compare_csv(path: str | Path, rows) -> None:
    "Rows of (scheme, cumulated_mw, cumulated_dbm, min_target_dbm)."
    _write_csv(path, COMPARE_HEADER, rows)
