"""Transmit-covariance subproblems: per-antenna SDP, rank-1 extraction, and
spectrum analysis of the correlation matrix B.

The per-antenna problem

    max tr(R B)   s.t.  diag(R) = P_t / N * 1,  R >= 0

is solved by a log-barrier interior-point method on its dual

    min (P_t / N) 1^T y   s.t.  Diag(y) >= B,

using Newton steps on ``t * 1^T y - log det(Diag(y) - B)``. The steps run
on an N x r factor F of B: one eigendecomposition of B gives
B = F F^H + E, where F keeps the eigenpairs above a relative floor (r = K
for K targets, r = N when K >= N) and E holds the rest. With D = Diag(y)
and S = D - F F^H:

- ``log det S = sum(log y) + log det(I - F^H D^-1 F)``, so an r x r
  Cholesky decides feasibility and gives the barrier value;
- ``S^-1 = D^-1 + W W^H`` with W of size N x r (Woodbury), which gives the
  gradient ``t - diag(S^-1)``;
- the barrier Hessian ``|S^-1|^2`` (elementwise) is ``Diag(h) + Z Z^T``
  with Z of size N x r^2, and the Newton system is solved by Woodbury on
  that structure.

No N x N matrix is factorized. On the central path ``R = S^-1 / t`` has
exactly the required diagonal, so the primal is recovered for free;
off-path iterates are repaired by a diagonal congruence that preserves
positive semidefiniteness. The rank-1 polish needs the principal
eigenvector of that R, and the dual bound is tightened by lambda_min(S);
both are diagonal-minus-rank-r eigenproblems, solved through their r x r
secular equations.

Every solve returns a certified dual upper bound for the B it was given.
The primal and rank-1 values are measured against B itself, y stays
strictly feasible for F F^H, and the lambda_min shift is reduced by
lambda_max(E), so ``(P_t/N) 1^T y`` still dominates the optimum by weak
duality.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

logger = logging.getLogger(__name__)

DEFAULT_SDP_TOL = 1e-6
DEFAULT_ITER_CAP = 500

# Eigenvalues of B at or below this fraction of lambda_max(B) are left out of
# the factor F that the SDP works on; the dual bound pays for them.
_RANK_FLOOR = 1e-10


class ConstraintKind(str, Enum):
    PER_ANTENNA = "per-antenna"


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
        target = self.power_budget / n
        err = float(np.max(np.abs(np.real(np.diag(r)) - target)))
        if err > rel_tol * target:
            raise ValueError(f"per-antenna diagonal off by {err:g} (target {target:g})")


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


def _check_b(b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetrized B with its ascending eigenvalues and their eigenvectors.

    Raises ValueError unless B is Hermitian positive semidefinite.
    """
    b = np.asarray(b, dtype=complex)
    n = b.shape[0]
    if b.ndim != 2 or b.shape != (n, n):
        raise ValueError(f"B must be square, got {b.shape}")
    scale = max(float(np.max(np.abs(b))), 1e-300)
    herm_err = float(np.max(np.abs(b - b.conj().T)))
    if herm_err > 1e-10 * max(1.0, scale):
        raise ValueError(f"B is not Hermitian (max asymmetry {herm_err:g})")
    b = 0.5 * (b + b.conj().T)
    eigvals, eigvecs = np.linalg.eigh(b)
    if float(eigvals[0]) < -1e-8 * max(float(eigvals[-1]), 1e-300):
        raise ValueError(f"B is not PSD (smallest eigenvalue {eigvals[0]:g})")
    return b, eigvals, eigvecs


def _schur_cholesky(y: np.ndarray, f: np.ndarray) -> np.ndarray | None:
    """Cholesky factor of I - F^H Diag(y)^{-1} F, or None unless Diag(y) - F F^H > 0.

    Diag(y) - F F^H is positive definite exactly when y > 0 and this r x r
    Schur complement is.
    """
    if float(np.min(y)) <= 0.0:
        return None
    g = f / np.sqrt(y)[:, None]
    try:
        return np.linalg.cholesky(np.eye(f.shape[1]) - g.conj().T @ g)
    except np.linalg.LinAlgError:
        return None


def _logdet(y: np.ndarray, chol: np.ndarray) -> float:
    "log det(Diag(y) - F F^H) from the Schur-complement Cholesky factor."
    return float(np.sum(np.log(y))) + 2.0 * float(np.sum(np.log(np.real(np.diag(chol)))))


def _inverse_factor(y: np.ndarray, f: np.ndarray, chol: np.ndarray) -> np.ndarray:
    "W (N x r) with (Diag(y) - F F^H)^{-1} = Diag(1/y) + W W^H, by Woodbury."
    return np.linalg.solve(chol, (f / y[:, None]).conj().T).conj().T


def _newton_step(y: np.ndarray, w: np.ndarray, q: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve H dy = -grad for the barrier Hessian H = |S^{-1}|^2 (elementwise).

    With S^{-1} = Diag(1/y) + W W^H and q the squared row norms of W,
    H = Diag((1/y + 2 q) / y) + Z Z^T, where row n of Z holds |W_na|^2 and
    the real and imaginary parts of sqrt(2) W_na conj(W_nb) for a < b, so
    Z has r^2 columns. Woodbury runs through a thin SVD of the scaled Z.
    """
    a, c = np.triu_indices(w.shape[1], 1)
    cross = np.sqrt(2.0) * w[:, a] * w[:, c].conj()
    z = np.concatenate([np.abs(w) ** 2, cross.real, cross.imag], axis=1)
    root_h = np.sqrt((1.0 / y + 2.0 * q) / y)
    u, sv, _ = np.linalg.svd(z / root_h[:, None], full_matrices=False)
    g = -grad / root_h
    sv2 = sv ** 2
    return (g - u @ ((u.T @ g) * (sv2 / (1.0 + sv2)))) / root_h


def _min_eigpair(g: np.ndarray, h: np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue and an eigenvector of Diag(g) - h h^H > 0, h of size N x r.

    The eigenvalue lam is the root in (0, min g] of 1 / kappa(lam) = 1, where
    kappa(lam) is the largest eigenvalue of the r x r matrix
    K(lam) = h^H Diag(1/(g - lam)) h. That reciprocal is concave, decreasing
    and linear near each pole, so Newton's method on it, kept inside a
    bisection bracket, converges fast; the eigenvector is
    Diag(1/(g - lam)) h c for the top eigenvector c of K(lam).
    """
    lo, hi = 0.0, float(np.min(g))
    tol = 1e-15 * hi
    lam = 0.0
    for _ in range(200):
        inv = 1.0 / (g - lam)
        hs = h * np.sqrt(inv)[:, None]
        kappas, vecs = np.linalg.eigh(hs.conj().T @ hs)
        kappa = float(kappas[-1])
        vec = inv * (h @ vecs[:, -1])
        if kappa < 1.0:
            lo = lam
        else:
            hi = lam
        lam_next = lam + kappa * (1.0 - kappa) / max(float(np.sum(np.abs(vec) ** 2)), 1e-300)
        if not lo < lam_next < hi:
            lam_next = 0.5 * (lo + hi)
        done = abs(lam_next - lam) <= tol
        lam = lam_next
        if done:
            break
    return lam, vec


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
    b, eig_b, vec_b = _check_b(b)
    n = b.shape[0]
    rho = p_t / n

    # Work on the normalized problem: diag(R) = 1, lambda_max(B) = 1.
    b_scale = max(float(eig_b[-1]), 1e-300)
    bn = b / b_scale
    # bn = F F^H + E: F keeps the eigenpairs above the floor (the largest
    # always), and lambda_max(E) = dropped.
    keep = eig_b > _RANK_FLOOR * b_scale
    keep[-1] = True
    f = vec_b[:, keep] * np.sqrt(np.maximum(eig_b[keep], 0.0) / b_scale)
    dropped = float(np.max(eig_b[~keep], initial=0.0)) / b_scale

    y = np.full(n, 2.0)                 # Diag(y) - F F^H >= I: strictly feasible
    chol = _schur_cholesky(y, f)
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
            w = _inverse_factor(y, f, chol)
            q = np.sum(np.abs(w) ** 2, axis=1)
            grad = t - 1.0 / y - q
            dy = _newton_step(y, w, q, grad)
            decrement2 = float(-grad @ dy)
            if decrement2 / 2.0 <= eps_center:
                break                      # centered enough for this t
            newton_total += 1
            # Backtrack into the PD cone with sufficient decrease.
            phi0 = t * float(np.sum(y)) - _logdet(y, chol)
            slope = float(grad @ dy)
            step = 1.0
            while step > 1e-14:
                y_try = y + step * dy
                chol_try = _schur_cholesky(y_try, f)
                if chol_try is not None:
                    phi_try = t * float(np.sum(y_try)) - _logdet(y_try, chol_try)
                    if phi_try <= phi0 + 0.25 * step * slope:
                        break
                step *= 0.5
            else:
                break                      # stuck at numerical limits
            y, chol = y_try, chol_try

        # Primal recovery and true gap measurement: the diagonal congruence
        # R = Diag(c) S^{-1} Diag(c), c = diag(S^{-1})^{-1/2}, of the
        # central-path primal S^{-1} / t has diag exactly 1 and stays PSD.
        w = _inverse_factor(y, f, chol)
        c = 1.0 / np.sqrt(1.0 / y + np.sum(np.abs(w) ** 2, axis=1))
        v = w * c[:, None]
        r_feas = v @ v.conj().T + np.diag(c ** 2 / y)
        r_feas = 0.5 * (r_feas + r_feas.conj().T)
        primal = float(np.real(np.sum(r_feas * bn.T)))
        # Rank-1 polish: a rank-1 optimum must have a constant-modulus
        # eigenvector (the diagonal constraint pins every |u_n|), so the
        # phase readout of the principal eigenvector is always feasible
        # and lands on the exact optimum whenever that optimum is rank-1.
        # R^{-1} = Diag(y / c^2) - (F/c)(F/c)^H, so that eigenvector is the
        # smallest one of a diagonal-minus-rank-r matrix.
        phases = np.exp(1j * np.angle(_min_eigpair(y / c ** 2, f / c[:, None])[1]))
        rank1 = float(np.real(phases.conj() @ bn @ phases))
        if rank1 > primal:
            primal = rank1
            r_feas = np.outer(phases, phases.conj())
        # Shifting y down by lambda_min(Diag(y) - bn) keeps it PSD and
        # tightens the bound; that eigenvalue is at least
        # lambda_min(Diag(y) - F F^H) - dropped.
        lam_min_s = _min_eigpair(y, f)[0]
        shift = max(lam_min_s - 1e-12 * max(float(np.max(y)), 1.0), 0.0) - dropped
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
    prefix of the stream is nondecreasing in ``n_samples``, up to last-bit
    rounding of the batched matrix products.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    b, _, _ = _check_b(b)
    n = b.shape[0]
    if float(np.real(np.trace(r.r))) <= 1e-300:
        raise ValueError("degenerate covariance: trace is numerically zero")
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)

    eigvals, eigvecs = np.linalg.eigh(r.r)
    root = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
    # Sample-major draws: sample s takes stream entries [2 N s, 2 N (s + 1)),
    # so a smaller n_samples sees a prefix of the same samples.
    noise = rng.standard_normal((n_samples, 2, n))
    xi = root @ ((noise[:, 0] + 1j * noise[:, 1]).T / np.sqrt(2.0))
    w_all = np.sqrt(p_t / n) * np.exp(1j * np.angle(xi))
    values = np.real(np.sum(w_all.conj() * (b @ w_all), axis=0))
    best = int(np.argmax(values))
    return w_all[:, best].copy(), float(values[best])


def rank_profile(b: np.ndarray, expected_trace: float | None = None) -> tuple[np.ndarray, float]:
    """Descending eigenvalues of B and the trace-identity residual.

    ``expected_trace`` defaults to tr(B); pass ``K * N`` to check the
    correlation-matrix identity sum(lambda) = K * N.
    """
    b, eig_b, _ = _check_b(b)
    eigvals = eig_b[::-1]
    total = float(np.sum(eigvals))
    if expected_trace is None:
        expected_trace = float(np.real(np.trace(b)))
    return np.clip(eigvals, 0.0, None), abs(total - expected_trace)
