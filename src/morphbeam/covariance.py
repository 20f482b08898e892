"""Transmit-covariance subproblems: per-antenna SDP, total-power closed form,
rank-1 extraction, and spectrum analysis of the correlation matrix B.

The per-antenna problem

    max tr(R B)   s.t.  diag(R) = P_t / N * 1,  R >= 0

is solved by a log-barrier interior-point method on its dual

    min (P_t / N) 1^T y   s.t.  Diag(y) >= B,

using Newton steps on ``t * 1^T y - log det(Diag(y) - B)``. On the central
path the matrix ``R = S^{-1} / t`` (with S = Diag(y) - B) has exactly the
required diagonal, so the primal is recovered for free; off-path iterates
are repaired by a diagonal congruence that preserves positive
semidefiniteness. Every solve returns a certified dual upper bound: y is
kept strictly feasible throughout, so ``(P_t/N) 1^T y`` always dominates
the optimum by weak duality.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

logger = logging.getLogger(__name__)

DEFAULT_SDP_TOL = 1e-6
DEFAULT_ITER_CAP = 500


class ConstraintKind(str, Enum):
    PER_ANTENNA = "per-antenna"
    TOTAL_POWER = "total-power"


@dataclass
class CovarianceMatrix:
    """Hermitian PSD transmit covariance with its power-constraint metadata."""

    r: np.ndarray
    power_budget: float                 # P_t in mW
    constraint_kind: ConstraintKind

    @property
    def n_elements(self) -> int:
        return self.r.shape[0]

    def validate(self, rel_tol: float = 1e-8) -> None:
        "Raise ValueError if any covariance invariant is violated."
        r = self.r
        n = r.shape[0]
        if r.shape != (n, n):
            raise ValueError(f"covariance must be square, got {r.shape}")
        scale = max(float(np.max(np.abs(r))), 1e-300)
        herm_err = float(np.max(np.abs(r - r.conj().T)))
        if herm_err > 1e-10 * max(1.0, scale):
            raise ValueError(f"not Hermitian: max asymmetry {herm_err:g}")
        eigvals = np.linalg.eigvalsh(r)
        lam_max = max(float(eigvals[-1]), 1e-300)
        if float(eigvals[0]) < -1e-8 * lam_max:
            raise ValueError(f"not PSD: smallest eigenvalue {eigvals[0]:g}")
        if self.constraint_kind is ConstraintKind.PER_ANTENNA:
            target = self.power_budget / n
            err = float(np.max(np.abs(np.real(np.diag(r)) - target)))
            if err > rel_tol * target:
                raise ValueError(f"per-antenna diagonal off by {err:g} (target {target:g})")
        else:
            trace = float(np.real(np.trace(r)))
            if abs(trace - self.power_budget) > rel_tol * self.power_budget:
                raise ValueError(f"trace {trace:g} != power budget {self.power_budget:g}")


@dataclass
class SolveReport:
    """Outcome of one covariance solve."""

    objective: float                    # certified primal value, mW
    iterations: int                     # total Newton steps
    dual_bound: float | None = None     # valid upper bound, mW
    converged: bool = True
    residuals: dict = field(default_factory=dict)

    @property
    def relative_gap(self) -> float:
        if self.dual_bound is None:
            return float("nan")
        return (self.dual_bound - self.objective) / max(abs(self.dual_bound), 1e-300)


def _check_b(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    "Symmetrized B and its ascending eigenvalues; ValueError unless Hermitian PSD."
    b = np.asarray(b, dtype=complex)
    n = b.shape[0]
    if b.ndim != 2 or b.shape != (n, n):
        raise ValueError(f"B must be square, got {b.shape}")
    scale = max(float(np.max(np.abs(b))), 1e-300)
    herm_err = float(np.max(np.abs(b - b.conj().T)))
    if herm_err > 1e-10 * max(1.0, scale):
        raise ValueError(f"B is not Hermitian (max asymmetry {herm_err:g})")
    b = 0.5 * (b + b.conj().T)
    eigvals = np.linalg.eigvalsh(b)
    if float(eigvals[0]) < -1e-8 * max(float(eigvals[-1]), 1e-300):
        raise ValueError(f"B is not PSD (smallest eigenvalue {eigvals[0]:g})")
    return b, eigvals


def _is_pos_def(s: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(s)
        return True
    except np.linalg.LinAlgError:
        return False


def solve_per_antenna_sdp(
    b: np.ndarray,
    p_t: float,
    tol: float = DEFAULT_SDP_TOL,
    iter_cap: int = DEFAULT_ITER_CAP,
) -> tuple[CovarianceMatrix, SolveReport]:
    """Maximize tr(R B) under diag(R) = p_t/N and R >= 0.

    Returns a feasible covariance together with a report whose
    ``dual_bound`` certifies the relative optimality gap. A failure to
    reach ``tol`` within ``iter_cap`` Newton steps is reported via
    ``converged=False``, never silently.
    """
    if p_t <= 0.0:
        raise ValueError(f"power budget must be positive, got {p_t}")
    if tol <= 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    b, eig_b = _check_b(b)
    n = b.shape[0]
    rho = p_t / n

    # Work on the normalized problem: diag(R) = 1, lambda_max(B) = 1.
    b_scale = max(float(eig_b[-1]), 1e-300)
    bn = b / b_scale

    y = np.full(n, 2.0)                 # Diag(y) - bn >= I: strictly feasible
    t = 1.0
    mu = 10.0
    newton_total = 0
    best: tuple[float, np.ndarray, float, float] | None = None  # (gap, R, primal, dual)

    # Loose centering suffices: the certificate below measures the true gap
    # from a feasible primal/dual pair, so imperfect centering only costs an
    # extra barrier stage, never correctness.
    eps_center = 1e-5

    while True:
        while newton_total < iter_cap:
            s = np.diag(y).astype(complex) - bn
            s_inv = np.linalg.inv(s)
            s_inv = 0.5 * (s_inv + s_inv.conj().T)
            grad = t - np.real(np.diag(s_inv))
            hess = np.abs(s_inv) ** 2
            try:
                dy = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                dy = np.linalg.solve(hess + 1e-12 * np.eye(n), -grad)
            decrement2 = float(-grad @ dy)
            if decrement2 / 2.0 <= eps_center:
                break                      # centered enough for this t
            newton_total += 1
            # Backtrack into the PD cone with sufficient decrease.
            phi0 = t * float(np.sum(y)) - _logdet_hermitian(s)
            slope = float(grad @ dy)
            step = 1.0
            while step > 1e-14:
                y_try = y + step * dy
                s_try = np.diag(y_try).astype(complex) - bn
                if _is_pos_def(s_try):
                    phi_try = t * float(np.sum(y_try)) - _logdet_hermitian(s_try)
                    if phi_try <= phi0 + 0.25 * step * slope:
                        break
                step *= 0.5
            else:
                break                      # stuck at numerical limits
            y = y + step * dy

        # Primal recovery and true gap measurement.
        s = np.diag(y).astype(complex) - bn
        s_inv = np.linalg.inv(s)
        s_inv = 0.5 * (s_inv + s_inv.conj().T)
        r_hat = s_inv / t
        d = 1.0 / np.sqrt(np.real(np.diag(r_hat)))
        r_feas = r_hat * np.outer(d, d)             # diag exactly 1, still PSD
        primal = float(np.real(np.sum(r_feas * bn.T)))
        # Rank-1 polish: a rank-1 optimum must have a constant-modulus
        # eigenvector (the diagonal constraint pins every |u_n|), so the
        # phase readout of the principal eigenvector is always feasible
        # and lands on the exact optimum whenever that optimum is rank-1.
        u = np.linalg.eigh(r_feas)[1][:, -1]
        w = np.exp(1j * np.angle(u))
        rank1 = float(np.real(w.conj() @ bn @ w))
        if rank1 > primal:
            primal = rank1
            r_feas = np.outer(w, w.conj())
        # Shifting y down by lambda_min(S) keeps Diag(y) - bn PSD and
        # tightens the bound.
        lam_min_s = float(np.linalg.eigvalsh(s)[0])
        shift = max(lam_min_s - 1e-12 * max(float(np.max(y)), 1.0), 0.0)
        dual = float(np.sum(y)) - n * shift
        gap = (dual - primal) / max(abs(dual), 1e-300)
        if best is None or gap < best[0]:
            best = (gap, r_feas, primal, dual)

        if gap <= tol:
            converged = True
            break
        if newton_total >= iter_cap:
            converged = False
            logger.warning(
                "per-antenna SDP hit the %d-iteration cap with relative gap %.3g",
                iter_cap, best[0],
            )
            break
        t *= mu

    gap, r_feas, primal, dual = best
    r = rho * r_feas
    cov = CovarianceMatrix(r=r, power_budget=p_t, constraint_kind=ConstraintKind.PER_ANTENNA)
    report = SolveReport(
        objective=rho * b_scale * primal,
        iterations=newton_total,
        dual_bound=rho * b_scale * dual,
        converged=converged,
        residuals={
            "relative_gap": gap,
            "max_diag_error": float(np.max(np.abs(np.real(np.diag(r)) - rho))),
        },
    )
    return cov, report


def _logdet_hermitian(s: np.ndarray) -> float:
    chol = np.linalg.cholesky(s)
    return 2.0 * float(np.sum(np.log(np.real(np.diag(chol)))))


def closed_form_total_power(b: np.ndarray, p_t: float) -> tuple[CovarianceMatrix, float]:
    """Optimal covariance under the total-power constraint tr(R) = p_t.

    The optimum is the rank-1 matrix ``p_t u u^H`` built from the principal
    eigenvector of B, with value ``p_t * lambda_max(B)``.
    """
    if p_t <= 0.0:
        raise ValueError(f"power budget must be positive, got {p_t}")
    b, _ = _check_b(b)
    eigvals, eigvecs = np.linalg.eigh(b)
    u = eigvecs[:, -1]
    r = p_t * np.outer(u, u.conj())
    cov = CovarianceMatrix(r=r, power_budget=p_t, constraint_kind=ConstraintKind.TOTAL_POWER)
    return cov, p_t * float(eigvals[-1])


def randomize_rank1(
    r: CovarianceMatrix,
    b: np.ndarray,
    p_t: float,
    n_samples: int = 1000,
    rng_seed=0,
) -> tuple[np.ndarray, float]:
    """Extract per-antenna-feasible phased-array weights from an SDP solution.

    Draws ``n_samples`` complex Gaussian vectors with covariance ``r.r``,
    maps each to constant-modulus weights ``sqrt(p_t/N) exp(j arg(.))``, and
    returns the weights maximizing ``w^H B w`` plus that value. Samples are
    drawn sequentially from one seeded stream, so the best value over a
    prefix of the stream is nondecreasing in ``n_samples``.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    b, _ = _check_b(b)
    n = b.shape[0]
    if float(np.real(np.trace(r.r))) <= 1e-300:
        raise ValueError("degenerate covariance: trace is numerically zero")
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)

    eigvals, eigvecs = np.linalg.eigh(r.r)
    root = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
    noise = rng.standard_normal((n, n_samples)) + 1j * rng.standard_normal((n, n_samples))
    xi = root @ (noise / np.sqrt(2.0))
    w_all = np.sqrt(p_t / n) * np.exp(1j * np.angle(xi))
    values = np.real(np.sum(w_all.conj() * (b @ w_all), axis=0))
    best = int(np.argmax(values))
    return w_all[:, best].copy(), float(values[best])


def rank_profile(b: np.ndarray, expected_trace: float | None = None) -> tuple[np.ndarray, float]:
    """Descending eigenvalues of B and the trace-identity residual.

    ``expected_trace`` defaults to tr(B); pass ``K * N`` to check the
    correlation-matrix identity sum(lambda) = K * N.
    """
    b, eig_b = _check_b(b)
    eigvals = eig_b[::-1]
    total = float(np.sum(eigvals))
    if expected_trace is None:
        expected_trace = float(np.real(np.trace(b)))
    return np.clip(eigvals, 0.0, None), abs(total - expected_trace)
