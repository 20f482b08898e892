"""Block coordinate descent joining the covariance and shape blocks.

One outer iteration solves the per-antenna SDP at the current surface shape,
then runs projected gradient ascent on the shape with the covariance fixed.
Both blocks are individually nondecreasing in cumulated power, so the outer
objective sequence is monotone; iteration stops once the fractional increase
drops below threshold. Several starts (the rigid zero shape is always one of
them) run one after another and the best is kept, ties going to the lowest
start index.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .array_model import ArrayGeometry, SurfaceShape, TargetSet, response_matrix
from .covariance import (
    CovarianceMatrix,
    SolveReport,
    randomize_rank1,
    solve_per_antenna_sdp,
)
from .objective import cumulated_power
from .shape_opt import AscentConfig, ascend_shape

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

    ``RAA_*`` keep the surface rigid (zero shape); ``FIM_*`` morph it.
    ``*_MIMO`` transmit with the full-rank SDP covariance; ``*_PA`` restrict
    to phased-array (rank-1, constant-modulus) weights via randomization.
    """

    RAA_PA = "raa-pa"
    FIM_PA = "fim-pa"
    RAA_MIMO = "raa-mimo"
    FIM_MIMO = "fim-mimo"


@dataclass
class BcdConfig:
    """Outer-loop settings.

    ``rel_increase_threshold_db`` is the dB form of the stopping rule: the
    loop ends once (P_new - P_old)/P_old < 10**(threshold_db/10), i.e.
    -30 dB means a fractional increase below 1e-3. ``n_starts`` counts the
    always-present zero start plus ``n_starts - 1`` uniform-box draws; a
    rigid geometry (``d_max = 0``) runs the zero start alone.
    """

    max_outer_iters: int = 50
    rel_increase_threshold_db: float = -30.0
    ascent: AscentConfig = field(default_factory=AscentConfig)
    n_starts: int = 4
    rng_seed: int = 0

    def __post_init__(self):
        if self.max_outer_iters < 1:
            raise ValueError(f"max_outer_iters must be >= 1, got {self.max_outer_iters}")
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
class _RunOutcome:
    cov: CovarianceMatrix
    shape: SurfaceShape
    trace: OptimizationTrace
    objective_mw: float
    weights: np.ndarray | None = None


@dataclass
class BenchmarkResult:
    """Outcome of one benchmark scheme on one instance.

    ``objective_mw`` is the reported cumulated power: the MIMO value for
    ``*_MIMO`` schemes, the best rank-1 randomized value for ``*_PA``.
    ``weights`` is set only for PA schemes; ``trace`` only when the scheme
    ran the full outer loop; ``sdp_report`` only for the rigid schemes where
    a single solve produced the result.
    """

    scheme: Scheme
    objective_mw: float
    cov: CovarianceMatrix
    shape: SurfaceShape
    weights: np.ndarray | None = None
    trace: OptimizationTrace | None = None
    sdp_report: SolveReport | None = None


def _run_single_start(
    geom: ArrayGeometry,
    targets: TargetSet,
    p_t: float,
    cfg: BcdConfig,
    start_shape: SurfaceShape,
    start_index: int,
    init_label: str,
    incumbent: CovarianceMatrix | None = None,
    phased_array: bool = False,
) -> _RunOutcome:
    """One BCD run from one starting shape.

    ``incumbent`` is an optional covariance known feasible for this power
    budget; it is kept whenever a fresh SDP solve fails to beat it, which
    makes warm starts dominate their seed value exactly instead of up to
    solver tolerance.

    With ``phased_array`` the covariance block becomes relaxation plus
    randomization: the SDP solution only seeds the Gaussian sampling and the
    shape ascent sees the rank-1 covariance of the best constant-modulus
    weights so far. The weight draws are keyed by (seed, start, outer), and a
    fresh draw replaces the held weights only when it wins on the current
    response matrix, so the objective stays monotone within the run.
    """
    shape = start_shape.copy()
    shape.validate(geom)
    cov = incumbent
    weights = None
    prev_obj = None
    records: list[OuterRecord] = []
    reason = TerminationReason.MAX_ITERS

    for outer in range(1, cfg.max_outer_iters + 1):
        tic = time.perf_counter()
        rm = response_matrix(geom, targets, shape)
        cov_sdp, rep = solve_per_antenna_sdp(rm.b, p_t)
        sdp_obj = cumulated_power(cov_sdp, rm)
        rank1_val = None

        if phased_array:
            seq = np.random.SeedSequence(
                [cfg.rng_seed, _SEED_TAG_RAND, start_index, outer])
            w_new, rank1_val = randomize_rank1(cov_sdp, rm.b, p_t, rng_seed=seq)
            if weights is not None:
                held = float(np.real(weights.conj() @ rm.b @ weights))
                if held >= rank1_val:
                    w_new = weights
            weights = w_new
            cov = CovarianceMatrix(r=np.outer(weights, weights.conj()),
                                   power_budget=p_t,
                                   constraint_kind=cov_sdp.constraint_kind)
        else:
            if cov is not None and cumulated_power(cov, rm) > sdp_obj:
                pass                        # fresh solve lost; keep incumbent
            else:
                cov = cov_sdp

        shape, ascent_trace = ascend_shape(cov, geom, targets, shape, cfg.ascent)
        obj = float(ascent_trace.objectives[-1])

        records.append(OuterRecord(
            index=outer,
            objective_mw=obj,
            sdp_objective_mw=sdp_obj,
            sdp_iterations=rep.iterations,
            sdp_converged=rep.converged,
            sdp_gap=float(rep.residuals.get("relative_gap", np.nan)),
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
    return _RunOutcome(cov=cov, shape=shape, trace=trace,
                       objective_mw=records[-1].objective_mw,
                       weights=weights)


def _build_starts(
    geom: ArrayGeometry,
    cfg: BcdConfig,
    provided: tuple = (),
) -> list[tuple[SurfaceShape, str, CovarianceMatrix | None]]:
    """Starting shapes: the zero start, ``n_starts - 1`` uniform draws, then ``provided``.

    ``provided`` entries may be ``SurfaceShape`` or ``(SurfaceShape,
    CovarianceMatrix)`` pairs; pairs seed the run with an incumbent
    covariance so the warm start cannot lose to its seed.
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
    for entry in provided:
        if isinstance(entry, SurfaceShape):
            starts.append((entry, InitScheme.PROVIDED.value, None))
        else:
            shape, cov = entry
            starts.append((shape, InitScheme.PROVIDED.value, cov))
    return starts


def _best_of_starts(
    geom: ArrayGeometry,
    targets: TargetSet,
    p_t: float,
    cfg: BcdConfig,
    provided_starts: tuple,
    phased_array: bool = False,
) -> _RunOutcome:
    """Run every start in index order and keep the best.

    Only a strictly larger objective replaces the incumbent, so ties go to
    the lowest start index.
    """
    starts = _build_starts(geom, cfg, provided_starts)
    best = None
    for idx, (shape0, label, incumbent) in enumerate(starts):
        cand = _run_single_start(geom, targets, p_t, cfg, shape0, idx, label,
                                 incumbent=incumbent, phased_array=phased_array)
        if best is None or cand.objective_mw > best.objective_mw:
            best = cand
    logger.info("bcd finished: %d starts, best objective %.6g mW from start %d",
                len(starts), best.objective_mw, best.trace.start_index)
    return best


def bcd_optimize(
    geom: ArrayGeometry,
    targets: TargetSet,
    p_t: float,
    cfg: BcdConfig | None = None,
    provided_starts: tuple = (),
) -> tuple[CovarianceMatrix, SurfaceShape, OptimizationTrace]:
    """Joint covariance and shape optimization, best over multiple starts.

    Alternates the per-antenna SDP with projected gradient ascent until the
    fractional objective increase falls below the configured threshold or
    the outer cap is hit. The zero (rigid) start is always included, so the
    result never falls below the rigid SDP value. Starts run serially in
    index order and the best is kept, ties going to the lowest start index.
    """
    if p_t <= 0.0:
        raise ValueError(f"power budget must be positive, got {p_t}")
    if cfg is None:
        cfg = BcdConfig()
    best = _best_of_starts(geom, targets, p_t, cfg, provided_starts)
    return best.cov, best.shape, best.trace


def solve_benchmark(
    scheme: Scheme | str,
    geom: ArrayGeometry,
    targets: TargetSet,
    p_t: float,
    cfg: BcdConfig | None = None,
    provided_starts: tuple = (),
) -> BenchmarkResult:
    """Run one of the four benchmark schemes on an instance.

    Rigid schemes solve a single SDP at the zero shape; the PA variant then
    extracts constant-modulus weights by randomization. Morphing schemes run
    the full outer loop; the PA variant replaces each covariance step with
    relaxation plus randomization, so the shape adapts to the phased-array
    beam rather than to the relaxed covariance. The rank-1 sample streams
    are keyed by (seed, start, outer): the rigid PA draw equals the morphing
    PA draw at the zero start's first iteration, and within a run weights
    are only ever replaced by better ones, so the morphing PA value can
    never fall below the rigid one. Every SDP runs to the solver's default
    gap tolerance and every randomization draws its default sample count.
    """
    scheme = Scheme(scheme)
    if cfg is None:
        cfg = BcdConfig()
    if p_t <= 0.0:
        raise ValueError(f"power budget must be positive, got {p_t}")

    if scheme in (Scheme.RAA_MIMO, Scheme.RAA_PA):
        shape = SurfaceShape.zero(geom)
        rm = response_matrix(geom, targets, shape)
        cov, rep = solve_per_antenna_sdp(rm.b, p_t)
        if scheme is Scheme.RAA_MIMO:
            return BenchmarkResult(scheme=scheme, objective_mw=rep.objective,
                                   cov=cov, shape=shape, sdp_report=rep)
        seq = np.random.SeedSequence([cfg.rng_seed, _SEED_TAG_RAND, 0, 1])
        w, val = randomize_rank1(cov, rm.b, p_t, rng_seed=seq)
        rank1 = CovarianceMatrix(r=np.outer(w, w.conj()), power_budget=p_t,
                                 constraint_kind=cov.constraint_kind)
        return BenchmarkResult(scheme=scheme, objective_mw=val, cov=rank1,
                               shape=shape, weights=w, sdp_report=rep)

    if scheme is Scheme.FIM_MIMO:
        cov, shape, trace = bcd_optimize(geom, targets, p_t, cfg,
                                         provided_starts=provided_starts)
        return BenchmarkResult(scheme=scheme,
                               objective_mw=trace.records[-1].objective_mw,
                               cov=cov, shape=shape, trace=trace)

    # FIM_PA: each covariance step is relaxation + randomization and the
    # resulting rank-1 covariance drives the shape ascent.
    best = _best_of_starts(geom, targets, p_t, cfg, provided_starts,
                           phased_array=True)
    return BenchmarkResult(scheme=scheme, objective_mw=best.objective_mw,
                           cov=best.cov, shape=best.shape,
                           weights=best.weights, trace=best.trace)
