"""Experiment runners behind the CLI subcommands.

Each runner takes a parsed :class:`ExperimentConfig`, executes the requested
pipeline, and persists records/CSV artifacts into an output directory. All
randomness flows from the config seed and every solve runs serially, so in a
fixed numeric environment (the same numpy/BLAS build and the same BLAS thread
count) rerunning a config reproduces every output byte except wall-clock
timings.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import time
from pathlib import Path

import numpy as np

from .array_model import ArrayGeometry, SurfaceShape
from .bcd import BenchmarkResult, Scheme, solve_benchmark
from .beampattern import evaluate_beampattern, target_powers
from .config import ConfigError, ExperimentConfig
from .covariance import CovarianceMatrix
from .results import (
    ResultRecord,
    read_covariance_csv,
    read_shape_csv,
    write_beampattern_csv,
    write_compare_csv,
    write_covariance_csv,
    write_shape_csv,
    write_sweep_power_csv,
    write_sweep_range_csv,
)
from .shape_opt import STATUS_GRADIENT_TOL, STATUS_MAX_ITERS, STATUS_STEP_FLOOR
from .units import dbm_to_mw, mw_to_dbm

logger = logging.getLogger(__name__)


class SolverFailure(RuntimeError):
    """Numerical failure inside an optimization pipeline."""


class MissingInputError(FileNotFoundError):
    """A command needs artifacts a previous command did not produce."""


def _solve(cfg: ExperimentConfig, scheme: Scheme, geom: ArrayGeometry,
           provided_starts: tuple | None = None) -> BenchmarkResult:
    """Solve ``scheme`` on ``geom`` with the config's targets, power and BCD settings.

    ``provided_starts`` defaults to the config's init start, which only a
    morphing scheme takes: a rigid one has the flat surface alone.
    """
    if provided_starts is None:
        provided_starts = () if scheme.rigid else cfg.build_starts()
    try:
        return solve_benchmark(scheme, geom, cfg.build_targets(), dbm_to_mw(cfg.p_t_dbm),
                               cfg.build_bcd(), provided_starts=provided_starts)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"linear algebra failure in scheme {scheme.value}: {exc}") from exc


def _solve_and_write(cfg: ExperimentConfig, scheme: Scheme, out: Path,
                     suffix: str) -> ResultRecord:
    """Solve ``scheme`` on the configured instance and write its artifacts.

    Writes ``record<suffix>.json``, ``covariance<suffix>.csv`` and
    ``shape<suffix>.csv`` into ``out`` and returns the record.
    """
    geom = cfg.build_geometry()
    targets = cfg.build_targets()
    tic = time.perf_counter()
    res = _solve(cfg, scheme, geom)
    wall = time.perf_counter() - tic
    per_dbm, _, min_dbm = target_powers(res.cov, geom, targets, res.shape)
    stops = dict.fromkeys((STATUS_GRADIENT_TOL, STATUS_STEP_FLOOR, STATUS_MAX_ITERS), 0)
    for r in res.trace.records:
        stops[r.ascent_status] += 1
    record = ResultRecord(
        config_digest=cfg.digest(),
        scheme=scheme.value,
        seed=cfg.seed,
        objective_mw=res.objective_mw,
        objective_dbm=mw_to_dbm(res.objective_mw),
        per_target_dbm=[float(v) for v in per_dbm],
        min_target_dbm=min_dbm,
        outer_iterations=res.trace.n_outer,
        sdp_all_converged=all(r.sdp_converged for r in res.trace.records),
        max_sdp_gap=max(r.sdp_gap for r in res.trace.records),
        ascent_stops=stops,
        termination_reason=res.trace.termination_reason.value,
        wall_time_seconds=wall,
    )
    record.save(out / f"record{suffix}.json")
    write_covariance_csv(out / f"covariance{suffix}.csv", res.cov)
    write_shape_csv(out / f"shape{suffix}.csv", res.shape.displacements)
    return record


def _check_threads(threads: int) -> None:
    # Runs are serial; the keyword stays because perfbench/workloads.py passes 1.
    if threads != 1:
        raise ValueError(f"runs are serial; threads must be 1, got {threads}")


def run_optimize(cfg: ExperimentConfig, out_dir: str | Path,
                 threads: int = 1) -> ResultRecord:
    """Run the configured scheme and persist record + covariance + shape.

    A rigid scheme with ``init_displacements`` set raises ConfigError before
    the output directory is made: it has no room for the init shape.
    """
    _check_threads(threads)
    if cfg.scheme.rigid and cfg.algorithm.init_displacements:
        raise ConfigError(f"algorithm: scheme {cfg.scheme.value} is rigid and takes "
                          f"no init_displacements")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    record = _solve_and_write(cfg, cfg.scheme, out, "")
    logger.info("optimize %s: %.6g mW (%.3f dBm) in %d outer iterations",
                record.scheme, record.objective_mw, record.objective_dbm,
                record.outer_iterations)
    return record


def run_beampattern(cfg: ExperimentConfig, out_dir: str | Path,
                    threads: int = 1) -> Path:
    """Evaluate the grid for a previously optimized covariance and shape.

    The grid is swept on the factor G that ``covariance.csv`` stores
    (R = G G^H), so no N x N matrix is read, formed or factored. Before any
    grid work, an artifact that cannot be parsed (including a non-finite
    entry, or a ``covariance.csv`` of artifact version 3, which held R's
    entries) raises OSError, and one that does not fit the config (a size
    mismatch, a covariance whose diagonal is not the config's P_t / N, or a
    displacement outside d_max) raises ConfigError; both messages name the
    file.
    """
    _check_threads(threads)
    out = Path(out_dir)
    cov_path = out / "covariance.csv"
    shape_path = out / "shape.csv"
    for path in (cov_path, shape_path):
        if not path.exists():
            raise MissingInputError(
                f"{path} not found; run the optimize command into this directory first")
    try:
        g = read_covariance_csv(cov_path)
        shape = SurfaceShape(read_shape_csv(shape_path))
    except ValueError as exc:
        raise OSError(f"unreadable artifact {exc}") from exc
    geom = cfg.build_geometry()
    n = geom.n_elements
    for path, got in ((cov_path, g.shape[0]), (shape_path, shape.displacements.size)):
        if got != n:
            raise ConfigError(f"{path} has {got} elements, but the config's geometry "
                              f"has {n}")
    cov = CovarianceMatrix(g, power_budget=dbm_to_mw(cfg.p_t_dbm))
    for path, check in ((cov_path, cov.validate), (shape_path, lambda: shape.validate(geom))):
        try:
            check()
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    axis = np.linspace(0.0, np.pi, cfg.output.grid_points)
    grid = evaluate_beampattern(cov, geom, shape, axis, axis.copy())
    dest = out / "beampattern.csv"
    write_beampattern_csv(dest, grid)
    return dest


def run_sweep_power(cfg: ExperimentConfig, out_dir: str | Path,
                    p_t_dbm_list) -> list[tuple]:
    """Cumulated power of all four schemes across transmit power levels.

    Each scheme is optimized once at the configured reference power; other
    levels follow by scaling the covariance, exact because the feasible set
    and the objective are both linear in the power budget, so the optimal
    shape does not depend on P_t (at P_t 2^k the desk solve keeps its shape
    bit for bit: ``test_desk_solve_scales_with_the_budget`` in
    ``tests/test_shape_opt.py``). An empty level list or a level that is not
    a finite, positive power in mW (NaN, 4000 dBm) raises ConfigError first.
    """
    levels = sorted(float(p) for p in p_t_dbm_list)
    if not levels:
        raise ConfigError("sweep-power needs at least one p_t level")
    if not all(0.0 < dbm_to_mw(p) < math.inf for p in levels):
        raise ConfigError(f"p_t levels must be finite powers, positive in mW, got {levels}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    p_ref = dbm_to_mw(cfg.p_t_dbm)
    geom = cfg.build_geometry()
    ref = {scheme: _solve(cfg, scheme, geom) for scheme in Scheme}

    rows = []
    for p_dbm in levels:
        scale = dbm_to_mw(p_dbm) / p_ref
        for scheme in Scheme:
            cum = ref[scheme].objective_mw * scale
            rows.append((p_dbm, scheme.value, cum, mw_to_dbm(cum)))
    write_sweep_power_csv(out / "sweep_power.csv", rows)
    return rows


def run_sweep_range(cfg: ExperimentConfig, out_dir: str | Path,
                    d_max_list, sizes=None) -> list[tuple]:
    """Morphing-range sweep with warm starts, optionally over array sizes.

    Ranges are processed in increasing order; each optimum (shape and
    covariance) seeds the next range's starts, so the reported power is
    nondecreasing in d_max by construction. The configured init shape, if
    any, is an extra start on each size's first (smallest) range. A
    ConfigError is raised before the output directory is made unless the
    ranges are nonempty, finite and nonnegative, the sizes are nonempty and
    each a valid array, and the init shape fits every size on its first range.
    The morphing MIMO scheme is used regardless of the configured scheme
    since the sweep is about the shape degrees of freedom.
    """
    ranges = sorted(float(d) for d in d_max_list)
    if not ranges:
        raise ConfigError("sweep-range needs at least one d_max value")
    if not all(math.isfinite(d) and d >= 0.0 for d in ranges):
        raise ConfigError(f"d_max values must be finite and nonnegative, got {ranges}")
    base_geom = cfg.build_geometry()
    if sizes is None:
        sizes = [(base_geom.n_x, base_geom.n_z)]
    if not sizes:
        raise ConfigError("sweep-range needs at least one array size")
    for n_x, n_z in sizes:
        try:
            geom = dataclasses.replace(base_geom, n_x=n_x, n_z=n_z, d_max=ranges[0])
        except ValueError as exc:
            raise ConfigError(f"sweep-range size {n_x}x{n_z}: {exc}") from exc
        cfg.check_starts_fit(geom)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    for n_x, n_z in sizes:
        starts = cfg.build_starts()
        for d in ranges:
            geom = dataclasses.replace(base_geom, n_x=n_x, n_z=n_z, d_max=d)
            res = _solve(cfg, Scheme.FIM_MIMO, geom, starts)
            rows.append((d, n_x, n_z, res.objective_mw))
            starts = ((res.shape, res.cov),)
    write_sweep_range_csv(out / "sweep_range.csv", rows)
    return rows


def run_compare(cfg: ExperimentConfig, out_dir: str | Path) -> list[ResultRecord]:
    """All four schemes on the configured instance, with per-scheme artifacts."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = [_solve_and_write(cfg, scheme, out, f"-{scheme.value}") for scheme in Scheme]
    write_compare_csv(out / "summary.csv",
                      [(r.scheme, r.objective_mw, r.objective_dbm, r.min_target_dbm)
                       for r in records])
    return records
