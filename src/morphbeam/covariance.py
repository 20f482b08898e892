"""Transmit-covariance subproblems: per-antenna SDP and rank-1 extraction.

Both take the targets' steering matrix A (N x K); the correlation matrix
B = A A^H they depend on has rank at most K and is never formed. The
per-antenna problem

    max tr(R B)   s.t.  diag(R) = P_t / N * 1,  R >= 0

is solved first by a certified rank-1 fast path and otherwise by a
log-barrier interior-point method on its dual

    min (P_t / N) 1^T y   s.t.  Diag(y) >= B,

using Newton steps on ``t * 1^T y - log det(Diag(y) - B)``. The steps run
on an N x r factor F of B: the thin SVD A = U Sigma V^H gives B = F F^H + E,
where F = U Sigma keeps the singular values whose square is above a
relative floor (r = K for K targets, r = N when K >= N) and E holds the
rest. With D = Diag(y) and S = D - F F^H:

- ``log det S = sum(log y) + log det(I - F^H D^-1 F)``, so an r x r
  Cholesky decides feasibility and gives the barrier value;
- ``S^-1 = D^-1 + W W^H`` with W of size N x r (Woodbury), which gives the
  gradient ``t - diag(S^-1)``;
- the barrier Hessian ``|S^-1|^2`` (elementwise) is ``Diag(h) + Z Z^T``
  with Z of size N x r^2, and the Newton system is solved on its smaller
  side: by Woodbury on that structure when r^2 < N, otherwise as the
  N x N Hessian itself.

While r^2 < N no N x N matrix is factorized. On the central path
``R = S^-1 / t`` has exactly the required diagonal, so the primal is
recovered for free; off-path iterates are repaired by a diagonal
congruence that preserves positive semidefiniteness. Each barrier stage
measures the repaired primal on its N x r factor, and only the best
stage's R is formed.

The fast path runs the generalized power method w <- exp(j arg(B w)) on
the unit-modulus vectors from the phases of B's principal eigenvector,
for at most ``_POWER_CAP`` steps. For any unit-modulus w, y_n =
Re(conj(w_n) (B w)_n) sums to w^H B w and w^H (Diag(y) - B) w = 0, so
lambda_min(Diag(y) - B) <= 0 and y - lambda_min 1 is dual feasible. When
w w^H is the optimum that eigenvalue is 0 and the bound is tight. The
fast path returns w w^H only when this certificate closes the gap to
``DEFAULT_SDP_TOL``; otherwise the interior point runs exactly as it would
without the fast path.

Every dual bound, the fast path's and each barrier stage's, shifts its y
by lambda_min(Diag(y) - F F^H), a diagonal-minus-rank-r eigenvalue found
through its r x r secular equation. The eigenvalue is at most 0 on the
fast path and positive at a barrier iterate, so one bracket, starting at
min y - ||F||_F^2, serves both. The primal values are measured against A
itself (tr(R B) is the sum of the column quadratic forms a_k^H R a_k),
and the shift is reduced by lambda_max(E), so ``(P_t/N) 1^T y`` still
dominates the optimum for B = A A^H by weak duality.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .objective import _check_covariance, _check_psd, column_powers

logger = logging.getLogger(__name__)

DEFAULT_SDP_TOL = 1e-6
DEFAULT_ITER_CAP = 500

# Largest relative deviation of a diagonal entry from P_t / N that
# ``CovarianceMatrix.validate`` accepts.
_DIAG_REL_TOL = 1e-8

# Squared singular values of A (eigenvalues of B) at or below this fraction
# of the largest are left out of the factor F that the SDP works on; the dual
# bound pays for them.
_RANK_FLOOR = 1e-10

# The rank-1 fast path's power iteration stops once its value rises by at
# most this fraction, or after this many steps.
_POWER_RISE_REL = 1e-14
_POWER_CAP = 300


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

    def validate(self) -> None:
        "Raise ValueError if any covariance invariant is violated."
        n = self.n_elements
        r = _check_covariance(self.r, n)
        _check_psd(np.linalg.eigvalsh(r))
        target = self.power_budget / n
        err = float(np.max(np.abs(np.real(np.diag(r)) - target)))
        if err > _DIAG_REL_TOL * target:
            raise ValueError(f"per-antenna diagonal off by {err:g} (target {target:g})")


@dataclass
class SolveReport:
    """Outcome of one covariance solve."""

    objective: float                    # certified primal value, mW
    iterations: int                     # Newton steps of the interior point
    dual_bound: float                   # valid upper bound, mW
    relative_gap: float                 # (dual_bound - objective) / dual_bound
    converged: bool = True
    power_steps: int = 0                # steps of the rank-1 fast path


def _check_power_budget(p_t: float) -> None:
    "ValueError unless the power budget P_t (mW) is finite and positive; NaN fails too."
    if not 0.0 < p_t < np.inf:
        raise ValueError(f"power budget must be finite and positive, got {p_t}")


def _check_a(a) -> np.ndarray:
    "A as a complex array; ValueError unless it is a finite, nonzero N x K matrix."
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or 0 in a.shape:
        raise ValueError(f"A must be a nonempty N x K matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("A has non-finite entries")
    if not np.any(a):
        raise ValueError("A is all zero")
    return a


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


@lru_cache(maxsize=None)
def _pairs(r: int) -> tuple[np.ndarray, np.ndarray]:
    "Column index pairs a < b of an r-column factor (np.triu_indices, built once per r)."
    return np.triu_indices(r, 1)


def _newton_step(y: np.ndarray, w: np.ndarray, q: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve H dy = -grad for the barrier Hessian H = |S^{-1}|^2 (elementwise).

    With S^{-1} = Diag(1/y) + W W^H and q the squared row norms of W,
    H = Diag((1/y + 2 q) / y) + Z Z^T, where row n of Z holds |W_na|^2 and
    the real and imaginary parts of sqrt(2) W_na conj(W_nb) for a < b, so
    Z has r^2 columns. The system is solved on its smaller side: for
    r^2 < N by Woodbury through a thin SVD of the scaled Z (O(N r^4)),
    otherwise by forming the N x N Hessian and solving it directly (O(N^3)).
    """
    n, r = w.shape
    if r * r >= n:
        s_inv = w @ w.conj().T
        s_inv[np.diag_indices(n)] += 1.0 / y
        return np.linalg.solve(np.abs(s_inv) ** 2, -grad)
    a, c = _pairs(r)
    cross = np.sqrt(2.0) * w[:, a] * w[:, c].conj()
    z = np.concatenate([np.abs(w) ** 2, cross.real, cross.imag], axis=1)
    root_h = np.sqrt((1.0 / y + 2.0 * q) / y)
    u, sv, _ = np.linalg.svd(z / root_h[:, None], full_matrices=False)
    g = -grad / root_h
    sv2 = sv ** 2
    return (g - u @ ((u.T @ g) * (sv2 / (1.0 + sv2)))) / root_h


def _min_eigpair(g: np.ndarray, h: np.ndarray, lo: float) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue and an eigenvector of Diag(g) - h h^H, h of size N x r.

    ``lo`` is a lower bound on that eigenvalue, which may have either sign.
    The eigenvalue lam is the root in (lo, min g] of 1 / kappa(lam) = 1,
    where kappa(lam) is the largest eigenvalue of the r x r matrix
    K(lam) = h^H Diag(1/(g - lam)) h. That reciprocal is
    concave, decreasing and linear near each pole, so Newton's method on it,
    kept inside a bisection bracket, converges fast; the eigenvector is
    Diag(1/(g - lam)) h c for the top eigenvector c of K(lam). A zero
    Newton step (kappa == 1 exactly, or a step below the spacing of lam)
    ends the solve at lam; bisecting there would throw the root away.
    """
    hi = float(np.min(g))
    tol = 1e-15 * (hi - lo)
    lam = lo
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
        if lam_next != lam and not lo < lam_next < hi:
            lam_next = 0.5 * (lo + hi)
        done = abs(lam_next - lam) <= tol
        lam = lam_next
        if done:
            break
    return lam, vec


def _dual_bound(y: np.ndarray, f: np.ndarray, dropped: float) -> float:
    """Dual bound on the normalized problem (diag(R) = 1, B = an an^H) from any y.

    y - lambda_min(Diag(y) - B) 1 is dual feasible, and that eigenvalue is
    at least lambda_min(Diag(y) - F F^H) - dropped, which in turn is at
    least min y - ||F||_F^2, the secular solve's lower bracket. The 1e-12
    relative margin covers the solve's rounding.
    """
    lam = _min_eigpair(y, f, float(np.min(y)) - float(np.sum(np.abs(f) ** 2)))[0]
    return float(np.sum(y)) - y.size * (lam - 1e-12 * max(float(np.max(y)), 1.0) - dropped)


def _certified_rank1(
    an: np.ndarray,
    f: np.ndarray,
    dropped: float,
) -> tuple[np.ndarray | None, int, float, float, float]:
    """Rank-1 fast path on the normalized problem (diag(R) = 1, B = an an^H).

    Runs the generalized power method w <- exp(j arg(B w)) from the phases
    of B's principal eigenvector, then certifies w w^H with the dual point
    y_n = Re(conj(w_n) (B w)_n), whose sum is w^H B w. Since
    w^H (Diag(y) - B) w = 0, lambda_min(Diag(y) - B) <= 0, so
    ``_dual_bound`` raises the sum of y by the least amount that makes it
    feasible.

    Returns (w, power steps, w^H B w, dual bound, gap); w is None when the
    gap is above ``DEFAULT_SDP_TOL``, or when y is not positive (there is
    then no certificate, and the bound and gap are inf).
    """
    w = np.exp(1j * np.angle(f[:, 0]))
    a_w = an.conj().T @ w               # w^H B w = ||A^H w||^2
    value = float(np.real(column_powers(a_w, a_w)))
    steps = 0
    while steps < _POWER_CAP:
        steps += 1
        w = np.exp(1j * np.angle(an @ a_w))
        a_w = an.conj().T @ w
        prev, value = value, float(np.real(column_powers(a_w, a_w)))
        if value - prev <= _POWER_RISE_REL * value:
            break
    y = np.real(w.conj() * (an @ a_w))
    if float(np.min(y)) <= 0.0:
        return None, steps, value, np.inf, np.inf
    dual = _dual_bound(y, f, dropped)
    gap = (dual - value) / max(abs(dual), 1e-300)
    return (w if gap <= DEFAULT_SDP_TOL else None), steps, value, dual, gap


def solve_per_antenna_sdp(
    a: np.ndarray,
    p_t: float,
    iter_cap: int = DEFAULT_ITER_CAP,
) -> tuple[CovarianceMatrix, SolveReport]:
    """Maximize tr(R B), B = A A^H, under diag(R) = p_t/N and R >= 0.

    ``a`` is the N x K steering matrix of the targets. Returns a feasible
    covariance together with a report whose ``dual_bound`` certifies the
    relative optimality gap. The certified rank-1 fast path runs first and
    ``iter_cap`` bounds only the interior point's Newton steps; a failure to
    reach ``DEFAULT_SDP_TOL`` within them is reported via
    ``converged=False``, never silently.
    """
    _check_power_budget(p_t)
    a = _check_a(a)
    n = a.shape[0]
    rho = p_t / n

    # Work on the normalized problem: diag(R) = 1, lambda_max(B) = 1.
    u, sv, _ = np.linalg.svd(a, full_matrices=False)
    b_scale = float(sv[0]) ** 2
    an = a / sv[0]
    # an an^H = F F^H + E: F keeps the singular pairs whose relative square
    # is above the floor (the largest always), and lambda_max(E) = dropped.
    eig_rel = (sv / sv[0]) ** 2
    keep = eig_rel > _RANK_FLOOR
    keep[0] = True
    f = u[:, keep] * (sv[keep] / sv[0])
    dropped = float(np.max(eig_rel[~keep], initial=0.0))

    phases, power_steps, primal, dual, gap = _certified_rank1(an, f, dropped)
    if phases is not None:
        r_feas = np.outer(phases, phases.conj())
        newton_total, converged = 0, True
    else:
        r_feas, primal, dual, gap, newton_total, converged = _interior_point(
            an, f, dropped, iter_cap)
    cov = CovarianceMatrix(r=rho * r_feas, power_budget=p_t,
                           constraint_kind=ConstraintKind.PER_ANTENNA)
    report = SolveReport(
        objective=rho * b_scale * primal,
        iterations=newton_total,
        dual_bound=rho * b_scale * dual,
        relative_gap=gap,
        converged=converged,
        power_steps=power_steps,
    )
    return cov, report


def _interior_point(
    an: np.ndarray,
    f: np.ndarray,
    dropped: float,
    iter_cap: int,
) -> tuple[np.ndarray, float, float, float, int, bool]:
    """Barrier method on the normalized problem (diag(R) = 1, B = an an^H).

    Returns (R, primal, dual, gap, Newton steps, converged) for the barrier
    stage with the smallest certified gap.
    """
    n = an.shape[0]
    y = np.full(n, 2.0)                 # Diag(y) - F F^H >= I: strictly feasible
    chol = _schur_cholesky(y, f)
    t = 1.0
    mu = 10.0
    newton_total = 0
    an_rows = np.sum(np.abs(an) ** 2, axis=1)
    best: tuple | None = None           # (gap, v, d, dual)

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
        # With S^{-1} = Diag(1/y) + W W^H that is R = V V^H + Diag(d) for
        # V = Diag(c) W and d = c^2 / y, so tr(R B) = ||V^H an||_F^2 +
        # sum_n d_n ||an_n||^2 needs no N x N matrix.
        w = _inverse_factor(y, f, chol)
        c = 1.0 / np.sqrt(1.0 / y + np.sum(np.abs(w) ** 2, axis=1))
        v = w * c[:, None]
        d = c ** 2 / y
        primal = float(np.sum(np.abs(v.conj().T @ an) ** 2)) + float(d @ an_rows)
        dual = _dual_bound(y, f, dropped)
        gap = (dual - primal) / max(abs(dual), 1e-300)
        if best is None or gap < best[0]:
            best = (gap, v, d, dual)

        if gap <= DEFAULT_SDP_TOL:
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

    _, v, d, dual = best
    r_feas = v @ v.conj().T + np.diag(d)
    r_feas = 0.5 * (r_feas + r_feas.conj().T)
    # report the value of the matrix returned, measured on R itself
    primal = float(np.real(np.sum(column_powers(an, r_feas @ an))))
    gap = (dual - primal) / max(abs(dual), 1e-300)
    return r_feas, primal, dual, gap, newton_total, converged


def randomize_rank1(
    r: CovarianceMatrix,
    a: np.ndarray,
    p_t: float,
    n_samples: int = 1000,
    rng_seed=0,
) -> tuple[np.ndarray, float]:
    """Extract per-antenna-feasible phased-array weights from an SDP solution.

    Draws ``n_samples`` complex Gaussian vectors with covariance ``r.r``,
    maps each to constant-modulus weights ``sqrt(p_t/N) exp(j arg(.))``, and
    returns the weights maximizing ``w^H B w = ||A^H w||^2`` for the N x K
    steering matrix ``a``, plus that value. Samples are drawn sequentially
    from one seeded stream, so the best value over a prefix of the stream
    is nondecreasing in ``n_samples``, up to last-bit rounding of the
    batched matrix products.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    _check_power_budget(p_t)
    a = _check_a(a)
    n = a.shape[0]
    if r.r.shape != (n, n):
        raise ValueError(f"covariance is {r.r.shape}, A has {n} rows")
    if float(np.real(np.trace(r.r))) <= 1e-300:
        raise ValueError("degenerate covariance: trace is numerically zero")
    rng = np.random.default_rng(rng_seed)

    eigvals, eigvecs = np.linalg.eigh(r.r)
    root = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
    # Sample-major draws: sample s takes stream entries [2 N s, 2 N (s + 1)),
    # so a smaller n_samples sees a prefix of the same samples.
    noise = rng.standard_normal((n_samples, 2, n))
    xi = root @ ((noise[:, 0] + 1j * noise[:, 1]).T / np.sqrt(2.0))
    w_all = np.sqrt(p_t / n) * np.exp(1j * np.angle(xi))
    a_w = a.conj().T @ w_all
    values = np.real(column_powers(a_w, a_w))
    best = int(np.argmax(values))
    return w_all[:, best].copy(), float(values[best])
