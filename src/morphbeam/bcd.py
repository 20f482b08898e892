"""Block coordinate descent joining the covariance and shape blocks.

One outer iteration solves the per-antenna SDP at the current surface shape,
then runs projected Newton ascent on the shape with the covariance fixed.
Both blocks are individually nondecreasing in cumulated power, so the outer
objective sequence is monotone; iteration stops once the fractional increase
drops below threshold. Several starts (the rigid zero shape is always one of
them) run one after another and the best is kept, ties going to the lowest
start index. A rigid benchmark scheme runs the same loop on the flat surface
(``d_max = 0``) for one outer iteration: its morphing twin's first outer
iteration from the zero start. Every scheme holds one covariance (a
phased-array scheme holds w w^H of its constant-modulus weights), and each
covariance step keeps it only while it is strictly better than the fresh
candidate. Each start builds the targets' flat-surface steering factor
(:func:`morphbeam.shape_opt.planar_steering`) once; every outer iteration's
A and every shape ascent reuse it.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .array_model import (
    ArrayGeometry,
    ResponseMatrix,
    SurfaceShape,
    TargetSet,
)
# bound here only so perfbench/tracing.py WRAP_POINTS can wrap it
from .array_model import response_matrix  # noqa: F401
from .covariance import (
    CovarianceMatrix,
    SolveReport,
    _check_power_budget,
    randomize_rank1,
    solve_per_antenna_sdp,
)
from .objective import cumulated_power
from .shape_opt import MAX_ITERS, ascend_shape, planar_steering, shaped_steering

logger = logging.getLogger(__name__)

# SeedSequence branch tags keeping the start-shape draws and the rank-1
# randomization streams statistically independent of each other.
_SEED_TAG_START = 1
_SEED_TAG_RAND = 2

# Fractional increases at or below this are treated as no progress at all.
_STATIONARY_REL = 1e-12


class TerminationReason(str, Enum):
    THRESHOLD = "threshold"
    MAX_ITERS = "max_iters"
    STATIONARY = "stationary"


class InitScheme(str, Enum):
    """Label of how a start shape was made, written to ``OptimizationTrace.init_label``."""

    ZERO = "zero"
    UNIFORM_BOX = "uniform-box"
    PROVIDED = "provided"


class Scheme(str, Enum):
    """Benchmark transmission schemes.

    ``RAA_*`` hold the surface rigid: each is its ``FIM_*`` twin with a
    morphing range of zero. ``*_MIMO`` transmit with the full-rank SDP
    covariance; ``*_PA`` restrict to phased-array (rank-1, constant-modulus)
    weights via randomization.
    """

    RAA_PA = "raa-pa"
    FIM_PA = "fim-pa"
    RAA_MIMO = "raa-mimo"
    FIM_MIMO = "fim-mimo"

    @property
    def rigid(self) -> bool:
        return self in (Scheme.RAA_PA, Scheme.RAA_MIMO)

    @property
    def phased_array(self) -> bool:
        return self in (Scheme.RAA_PA, Scheme.FIM_PA)


@dataclass
class BcdConfig:
    """Outer-loop settings.

    ``rel_increase_threshold_db`` is the dB form of the stopping rule: the
    loop ends once (P_new - P_old)/P_old < 10**(threshold_db/10), i.e.
    -30 dB means a fractional increase below 1e-3. ``ascent_max_iters``
    caps the accepted steps of each shape ascent. ``n_starts`` counts the
    always-present zero start plus ``n_starts - 1`` uniform-box draws; a
    rigid geometry (``d_max = 0``) runs the zero start alone.
    """

    max_outer_iters: int = 50
    rel_increase_threshold_db: float = -30.0
    ascent_max_iters: int = MAX_ITERS
    n_starts: int = 4
    rng_seed: int = 0

    def __post_init__(self):
        if self.max_outer_iters < 1:
            raise ValueError(f"max_outer_iters must be >= 1, got {self.max_outer_iters}")
        if not np.isfinite(self.rel_increase_threshold_db):    # NaN would never stop the loop
            raise ValueError(f"rel_increase_threshold_db must be finite, "
                             f"got {self.rel_increase_threshold_db}")
        if self.ascent_max_iters < 1:
            raise ValueError(f"ascent_max_iters must be >= 1, got {self.ascent_max_iters}")
        if self.n_starts < 1:
            raise ValueError(f"n_starts must be >= 1, got {self.n_starts}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be nonnegative, got {self.rng_seed}")

    @property
    def rel_increase_threshold(self) -> float:
        return 10.0 ** (self.rel_increase_threshold_db / 10.0)


@dataclass
class OuterRecord:
    """Bookkeeping for one outer iteration."""

    index: int
    objective_mw: float
    sdp_objective_mw: float
    sdp_iterations: int
    sdp_converged: bool
    sdp_gap: float
    ascent_iterations: int
    ascent_status: str
    ascent_evals: int
    ascent_gradients: int
    elapsed_seconds: float
    rank1_objective_mw: float | None = None


@dataclass
class OptimizationTrace:
    """Per-outer records of the winning run plus how it stopped."""

    records: list[OuterRecord]
    termination_reason: TerminationReason
    start_index: int = 0
    init_label: str = InitScheme.ZERO.value

    @property
    def n_outer(self) -> int:
        return len(self.records)

    @property
    def objectives(self) -> np.ndarray:
        return np.asarray([r.objective_mw for r in self.records])


@dataclass
class BenchmarkResult:
    """Outcome of one benchmark scheme on one instance.

    ``objective_mw`` is the cumulated power of ``cov`` at ``shape`` after
    the last shape ascent. A ``*_PA`` scheme's ``cov`` is w w^H, held by its
    factor w, for the best rank-1 randomized weights, and ``weights`` reads
    w off it (None for MIMO); ``trace`` holds the outer iterations of the
    kept start, one for a rigid scheme.
    """

    scheme: Scheme
    objective_mw: float
    cov: CovarianceMatrix
    shape: SurfaceShape
    trace: OptimizationTrace

    @property
    def weights(self) -> np.ndarray | None:
        return self.cov.g[:, 0] if self.scheme.phased_array else None


def _covariance_step(
    rm: ResponseMatrix,
    p_t: float,
    phased_array: bool,
    draw_key: tuple[int, int, int],
    held: CovarianceMatrix | None,
) -> tuple[CovarianceMatrix, SolveReport, float, float | None]:
    """The covariance block at response ``rm``, given the ``held`` covariance.

    Solves the per-antenna SDP; for MIMO its solution is the fresh candidate.
    For PA it seeds the randomization drawn from the stream keyed by
    ``draw_key`` = (seed, start, outer), and the candidate is w w^H (factor
    w) of the best weights. The candidate replaces ``held`` unless the held
    one is strictly better on ``rm``; both are scored by
    :func:`cumulated_power`.

    Returns (covariance, SDP report, SDP objective, rank-1 value); the
    rank-1 value is None for MIMO.
    """
    cov, rep = solve_per_antenna_sdp(rm.a, p_t)
    sdp_obj = value = cumulated_power(cov, rm)
    rank1_val = None
    if phased_array:
        seed, start_index, outer = draw_key
        seq = np.random.SeedSequence([seed, _SEED_TAG_RAND, start_index, outer])
        w = randomize_rank1(cov, rm.a, rng_seed=seq)[0]
        cov = CovarianceMatrix(w[:, None], power_budget=p_t)
        value = rank1_val = cumulated_power(cov, rm)
    if held is not None and cumulated_power(held, rm) > value:
        cov = held
    return cov, rep, sdp_obj, rank1_val


def _run_single_start(
    geom: ArrayGeometry,
    targets: TargetSet,
    p_t: float,
    cfg: BcdConfig,
    scheme: Scheme,
    start_shape: SurfaceShape,
    start_index: int,
    init_label: str,
    incumbent: CovarianceMatrix | None = None,
) -> BenchmarkResult:
    """One BCD run of ``scheme`` from one starting shape.

    ``incumbent`` is an optional covariance known feasible for this power
    budget (MIMO only); it is held while it is strictly better than each
    fresh SDP solve, which makes warm starts dominate their seed value
    exactly instead of up to solver tolerance.

    For a PA scheme the covariance step is relaxation plus randomization, and
    the shape ascent sees the rank-1 covariance of the best constant-modulus
    weights so far, so the objective stays monotone within the run.
    """
    shape = start_shape.copy()
    shape.validate(geom)
    planar = planar_steering(geom, targets)
    cov = incumbent
    prev_obj = None
    records: list[OuterRecord] = []
    reason = TerminationReason.MAX_ITERS

    for outer in range(1, cfg.max_outer_iters + 1):
        tic = time.perf_counter()
        rm = ResponseMatrix(shaped_steering(planar, shape.displacements))
        cov, rep, sdp_obj, rank1_val = _covariance_step(
            rm, p_t, scheme.phased_array, (cfg.rng_seed, start_index, outer), cov)

        shape, ascent_trace = ascend_shape(cov, geom, targets, shape,
                                           cfg.ascent_max_iters, planar)
        obj = float(ascent_trace.objectives[-1])

        records.append(OuterRecord(
            index=outer,
            objective_mw=obj,
            sdp_objective_mw=sdp_obj,
            sdp_iterations=rep.iterations,
            sdp_converged=rep.converged,
            sdp_gap=rep.relative_gap,
            ascent_iterations=ascent_trace.n_iters,
            ascent_status=ascent_trace.status,
            ascent_evals=ascent_trace.n_evals,
            ascent_gradients=ascent_trace.n_gradients,
            elapsed_seconds=time.perf_counter() - tic,
            rank1_objective_mw=rank1_val,
        ))

        if prev_obj is not None:
            rel = (obj - prev_obj) / prev_obj
            if rel <= _STATIONARY_REL:
                reason = TerminationReason.STATIONARY
                break
            if rel < cfg.rel_increase_threshold:
                reason = TerminationReason.THRESHOLD
                break
        prev_obj = obj

    trace = OptimizationTrace(records=records, termination_reason=reason,
                              start_index=start_index, init_label=init_label)
    return BenchmarkResult(scheme=scheme, objective_mw=records[-1].objective_mw,
                           cov=cov, shape=shape, trace=trace)


def _build_starts(
    geom: ArrayGeometry,
    cfg: BcdConfig,
    provided: tuple = (),
) -> list[tuple[SurfaceShape, str, CovarianceMatrix | None]]:
    """Starting shapes: the zero start, ``n_starts - 1`` uniform draws, then ``provided``.

    ``provided`` holds ``(SurfaceShape, CovarianceMatrix | None)`` pairs; a
    covariance seeds a MIMO run with an incumbent so the warm start cannot
    lose to its seed.
    """
    starts: list[tuple[SurfaceShape, str, CovarianceMatrix | None]] = [
        (SurfaceShape.zero(geom), InitScheme.ZERO.value, None)
    ]
    if geom.d_max > 0.0:
        for i in range(1, cfg.n_starts):
            rng = np.random.default_rng(
                np.random.SeedSequence([cfg.rng_seed, _SEED_TAG_START, i]))
            starts.append((SurfaceShape.uniform_random(geom, rng),
                           InitScheme.UNIFORM_BOX.value, None))
    starts.extend((shape, InitScheme.PROVIDED.value, cov) for shape, cov in provided)
    return starts


def solve_benchmark(
    scheme: Scheme | str,
    geom: ArrayGeometry,
    targets: TargetSet,
    p_t: float,
    cfg: BcdConfig | None = None,
    provided_starts: tuple = (),
) -> BenchmarkResult:
    """Run one of the four benchmark schemes on an instance.

    Every scheme runs the outer loop from every start in index order and
    keeps the best, ties going to the lowest start index; the PA variants
    replace each covariance step with relaxation plus randomization, so the
    shape adapts to the phased-array beam rather than to the relaxed
    covariance. A rigid scheme runs on ``geom`` with ``d_max = 0`` and stops
    after one outer iteration: the SDP and, for PA, the randomization drawn
    from the zero start's first-iteration stream, then an ascent that stops
    at once since every element is pinned. That is the first outer iteration
    of its morphing twin's zero start, and a held covariance is only ever
    replaced by one at least as good, so a morphing scheme never falls below
    its rigid one. ``provided_starts`` holds extra ``(SurfaceShape,
    CovarianceMatrix | None)`` starts; a rigid scheme refuses (ValueError)
    any shape off the flat surface. A PA scheme holds only w w^H of
    constant-modulus weights, so it raises ValueError for a provided
    covariance instead of ignoring it. Every SDP runs to the solver's
    default gap tolerance and every randomization draws its default sample
    count.
    """
    scheme = Scheme(scheme)
    if cfg is None:
        cfg = BcdConfig()
    _check_power_budget(p_t)
    if scheme.phased_array and any(cov is not None for _, cov in provided_starts):
        raise ValueError(f"{scheme.value} cannot start from a provided covariance: "
                         f"it holds only w w^H of phased-array weights")
    if scheme.rigid:
        geom = replace(geom, d_max=0.0)
        cfg = replace(cfg, max_outer_iters=1)

    starts = _build_starts(geom, cfg, provided_starts)
    best = None
    for idx, (shape0, label, incumbent) in enumerate(starts):
        cand = _run_single_start(geom, targets, p_t, cfg, scheme, shape0, idx,
                                 label, incumbent=incumbent)
        if best is None or cand.objective_mw > best.objective_mw:
            best = cand
    logger.info("bcd finished: %d starts, best objective %.6g mW from start %d",
                len(starts), best.objective_mw, best.trace.start_index)
    return best
