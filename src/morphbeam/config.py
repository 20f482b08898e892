"""Experiment configuration: strict JSON parsing and domain-object builders.

Keys carry their units (``p_t_dbm``, ``theta_deg``, ``d_max_wavelengths``) so
files are self-describing; values convert to internal units (mW, radians,
wavelengths) only when the domain objects are built. Unknown keys anywhere in
the document are rejected, which catches typos before they silently change an
experiment.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .array_model import ArrayGeometry, SurfaceShape, TargetSet
from .bcd import BcdConfig, Scheme
from .units import dbm_to_mw


class ConfigError(ValueError):
    """Invalid or malformed experiment configuration."""


_REQUIRED = object()


def _take(block: dict, context: str, key: str, kind, default=_REQUIRED):
    if key in block:
        value = block.pop(key)
    elif default is not _REQUIRED:
        return default
    else:
        raise ConfigError(f"{context}: missing required key '{key}'")
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        # json.loads accepts NaN, Infinity and integers beyond the float
        # range, and every comparison with NaN is false, so a later range
        # check would let NaN through
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(f"{context}: key '{key}' must be finite, got {value}")
        return value
    if kind is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if kind is str and isinstance(value, str):
        return value
    if kind is list and isinstance(value, list):
        return value
    if kind is dict and isinstance(value, dict):
        return value
    raise ConfigError(f"{context}: key '{key}' must be {kind.__name__}, "
                      f"got {type(value).__name__}")


def _reject_unknown(block: dict, context: str) -> None:
    if block:
        raise ConfigError(f"{context}: unknown keys {sorted(block)}")


# field annotations are strings under ``from __future__ import annotations``
_KINDS = {"int": int, "float": float, "str": str, "list": list}


def _parse_block(cls, block: dict, context: str):
    """Build dataclass ``cls`` from one JSON object.

    Keys are the field names; an absent key takes the field's own default
    (or is an error when the field has none), and unknown keys are rejected.
    """
    block = dict(block)
    kwargs = {}
    for f in fields(cls):
        required = f.default is MISSING and f.default_factory is MISSING
        if required or f.name in block:
            kwargs[f.name] = _take(block, context, f.name, _KINDS[f.type])
    _reject_unknown(block, context)
    return cls(**kwargs)


@dataclass
class GeometryConfig:
    n_x: int
    n_z: int
    dx_wavelengths: float
    dz_wavelengths: float
    d_max_wavelengths: float


@dataclass
class TargetConfig:
    theta_deg: float
    phi_deg: float


@dataclass
class AlgorithmConfig:
    """Flat JSON form of ``BcdConfig``, whose defaults it reuses."""

    scheme: str = Scheme.FIM_MIMO.value
    max_outer_iters: int = BcdConfig.max_outer_iters
    rel_increase_threshold_db: float = BcdConfig.rel_increase_threshold_db
    n_starts: int = BcdConfig.n_starts
    ascent_max_iters: int = BcdConfig.ascent_max_iters
    init_displacements: list = field(default_factory=list)

    @classmethod
    def from_dict(cls, d: dict) -> "AlgorithmConfig":
        out = _parse_block(cls, d, "algorithm")
        try:
            Scheme(out.scheme)
        except ValueError:
            raise ConfigError(f"algorithm: unknown scheme '{out.scheme}'") from None
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   for v in out.init_displacements):
            raise ConfigError("algorithm: init_displacements must be numbers")
        return out


@dataclass
class OutputConfig:
    dir: str = "out"
    grid_points: int = 181

    @classmethod
    def from_dict(cls, d: dict) -> "OutputConfig":
        out = _parse_block(cls, d, "output")
        if out.grid_points < 2:
            raise ConfigError(f"output: grid_points must be >= 2, got {out.grid_points}")
        return out


@dataclass
class ExperimentConfig:
    geometry: GeometryConfig
    targets: list[TargetConfig]
    p_t_dbm: float
    algorithm: AlgorithmConfig
    output: OutputConfig
    seed: int = 0

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"config root must be an object, got {type(d).__name__}")
        d = dict(d)
        geometry = _parse_block(GeometryConfig, _take(d, "config", "geometry", dict),
                                "geometry")
        raw_targets = _take(d, "config", "targets", list)
        if not raw_targets:
            raise ConfigError("targets: at least one target is required")
        targets = [_parse_block(TargetConfig, t, f"targets[{i}]") if isinstance(t, dict)
                   else _bad_target(i, t)
                   for i, t in enumerate(raw_targets)]
        power = _take(d, "config", "power", dict)
        power = dict(power)
        p_t_dbm = _take(power, "power", "p_t_dbm", float)
        _reject_unknown(power, "power")
        algorithm = AlgorithmConfig.from_dict(_take(d, "config", "algorithm", dict, {}))
        output = OutputConfig.from_dict(_take(d, "config", "output", dict, {}))
        seed = _take(d, "config", "seed", int, cls.seed)
        _reject_unknown(d, "config")
        cfg = cls(geometry=geometry, targets=targets, p_t_dbm=p_t_dbm,
                  algorithm=algorithm, output=output, seed=seed)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        "Cross-field checks beyond per-block parsing; raises ConfigError."
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if not 0.0 < dbm_to_mw(self.p_t_dbm) < math.inf:
            raise ConfigError(f"power: p_t_dbm {self.p_t_dbm} is not a finite, positive "
                              f"power in mW")
        try:
            geom = self.build_geometry()
            self.build_targets()
            self.build_bcd()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        self.check_starts_fit(geom)

    def check_starts_fit(self, geom: ArrayGeometry) -> None:
        "Raise ConfigError unless every start of ``build_starts`` lies in ``geom``'s box."
        for shape, _ in self.build_starts():
            try:
                shape.validate(geom)
            except ValueError as exc:
                raise ConfigError(
                    f"algorithm: init_displacements do not fit a {geom.n_x}x{geom.n_z} "
                    f"array with d_max {geom.d_max:g}: {exc}") from exc

    def to_dict(self) -> dict:
        "The JSON form: every dataclass field, with ``p_t_dbm`` under ``power``."
        d = asdict(self)
        d["power"] = {"p_t_dbm": d.pop("p_t_dbm")}
        return d

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        "Hex digest identifying the configuration content."
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    # builders -----------------------------------------------------------

    def build_geometry(self) -> ArrayGeometry:
        g = self.geometry
        return ArrayGeometry(
            n_x=g.n_x, n_z=g.n_z,
            dx=g.dx_wavelengths, dz=g.dz_wavelengths,
            d_max=g.d_max_wavelengths,
        )

    def build_targets(self) -> TargetSet:
        thetas = [t.theta_deg for t in self.targets]
        phis = [t.phi_deg for t in self.targets]
        return TargetSet.from_degrees(np.asarray(thetas), np.asarray(phis))

    def build_bcd(self) -> BcdConfig:
        a = self.algorithm
        return BcdConfig(
            max_outer_iters=a.max_outer_iters,
            rel_increase_threshold_db=a.rel_increase_threshold_db,
            ascent_max_iters=a.ascent_max_iters,
            n_starts=a.n_starts,
            rng_seed=self.seed,
        )

    def build_starts(self) -> tuple:
        "The ``provided_starts`` pairs: the init shape without a covariance, if one is set."
        init = self.algorithm.init_displacements
        return ((SurfaceShape(np.asarray(init, dtype=float)), None),) if init else ()

    @property
    def scheme(self) -> Scheme:
        return Scheme(self.algorithm.scheme)


def _bad_target(index: int, value) -> TargetConfig:
    raise ConfigError(f"targets[{index}] must be an object, got {type(value).__name__}")


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a JSON config file.

    Raises ``ConfigError`` for a file that is not UTF-8 text, malformed JSON
    or schema/semantic violations; ``OSError`` propagates for unreadable paths.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    return ExperimentConfig.from_dict(raw)
