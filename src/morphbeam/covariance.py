"""Transmit-covariance subproblems: per-antenna SDP and rank-1 extraction.

Both take the targets' steering matrix A (N x K); the correlation matrix
B = A A^H they depend on has rank at most K and is never formed. The
per-antenna problem max tr(R B) s.t. diag(R) = P_t/N, R >= 0 is solved in
normalized form (diag(R) = 1, lambda_max(B) = 1), certified through its
dual min (P_t/N) 1^T y s.t. Diag(y) >= B. The thin SVD of A gives
B = F F^H exactly, with the N x r factor F over every singular pair of A
(r = min(N, K)); a rank-deficient F is taken as it is.

- **Power method.** For V with unit rows, V V^H is feasible, and
  V <- rownorm(B V) never lowers tr(V^H B V): the Burer-Monteiro
  factorization, every row updated at once as in the mixing method (Wang,
  Chang and Kolter, arXiv:1706.00476). The rank-1 stage w <- exp(j arg(B w))
  starts from the phases of B's principal eigenvector. If it cannot
  certify a unique optimum, a block stage goes on with r columns from
  rownorm([w, F[:, 1:]]): every optimum has rank at most rank(B) <= r.
  Its step Phi(X) = F^H rownorm(F X) acts on X = F^H V (r x r) with
  Anderson (type II) extrapolation from the last _AA_MEMORY differences
  (Walker and Ni, SIAM J. Numer. Anal. 49, 2011), kept only when its
  value is at least the plain step's; otherwise the plain step is taken
  and the history restarts, so the value never falls.
- **Certificate.** y_n = Re(v_n^H (B V)_n) sums to tr(V^H B V), and
  tr(V^H (Diag(y) - B) V) = 0. By the Schur complement Diag(y) >= F F^H
  exactly when lam = lambda_max(F^H Diag(1/y) F) <= 1, so y' = lam y is
  dual feasible, and tight (lam = 1) when V V^H is optimal: one r x r
  eigendecomposition per certificate.
- **Optimal face.** Every optimum lies in the null space U of the certified
  slack Diag(y') - F F^H, spanned by Diag(1/y) F c for the eigenvectors c
  of that same r x r matrix whose eigenvalues are lam to within _FACE_TOL.
  A one-column U certified by the rank-1 stage makes its iterate the
  unique optimum. After the block stage the face
  {U Q U^H : Q >= 0, diag(U Q U^H) = 1} may hold many optima, and the one
  the power method reaches depends on its start; the solve returns the
  face's analytic centre (max log det Q), which does not, and which is the
  limit of the central path of an interior-point method (Halicka, de Klerk
  and Roos, SIAM J. Optim. 12, 2002). On one column it is exp(j arg u).

:class:`CovarianceMatrix` is the one covariance type: it holds R by its
N x k factor G, R = G G^H (a solve's sqrt(P_t/N) V, k <= K), so powers,
gradients and grids work on G^H a. :func:`covariance_factor` is the one
check-and-factor of a dense R.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum

import numpy as np

logger = logging.getLogger(__name__)

DEFAULT_SDP_TOL = 1e-6
# Cap on the power steps of one solve, both stages together. The desk
# fim-mimo runs (d_max 0.25, 0.5 and 1) take at most 368 steps, desk fim-pa
# at d_max 0.25 399, the test panel 234, 600 random A (N <= 40, K <= 6)
# 466 and 32 x 32 fim-mimo with the desk targets 407.
DEFAULT_ITER_CAP = 10000

# Largest relative deviation of a diagonal entry from P_t / N that
# ``CovarianceMatrix.validate`` accepts.
_DIAG_REL_TOL = 1e-8

# The rank-1 stage stops once its value rises by at most this fraction.
_POWER_RISE_REL = 1e-14

# The block stage certifies its iterate every _CHECK_STEPS steps and stops
# once the gap is at most _FACE_GAP, which puts the face read off the slack,
# and so R, within about 4 _FACE_GAP of the exact one.
_CHECK_STEPS = 32
_FACE_GAP = 1e-10

# The block stage's Anderson extrapolation fits the last _AA_MEMORY
# differences of its history; 4 to 10 take within 2% of 5's desk steps, 3 5% more.
_AA_MEMORY = 5

# Eigenvalues mu of F^H Diag(1/y) F at or above (1 - _FACE_TOL) lam, lam the
# largest, mark the optimal face (1 - mu / lam is the slack's eigenvalue
# relative to y' = lam y). 1 - mu / lam is at most 3.5e-10 on it and at
# least 1.5e-2 off it on the 121 desk solves, 1.4e-10 and 8e-5 on the test
# panel. Panel input 21 stopped by a 100-step cap (gap 3.3e-7) reads 3.6e-7
# and 1.7e-4, so the face's centre is kept only if it certifies.
_FACE_TOL = 1e-6

# Singular values of the face's constraint map at or below this fraction of
# the largest are taken as zero. Measured on the desk and the test panel,
# they are below 1e-15 or above 0.27.
_MAP_RANK_REL = 1e-5

# The centre's damped Newton iteration stops once the squared Newton
# decrement is at most _CENTRE_DECREMENT, or after _CENTRE_STEPS steps; it
# takes at most 19 on the desk, the test panel and desk fim-pa at d_max 0.25.
_CENTRE_DECREMENT = 1e-20
_CENTRE_STEPS = 50

# A PA draw turns each column of R's eigenfactor so that its first entry
# whose modulus is within this fraction of the column's largest is real.
# At the desk zero shape the top moduli of the three columns tie within
# 1.3e-15, 2.3e-15 and 0, so the plain argmax would follow the rounding.
_PEAK_TIE_REL = 1e-9


class ConstraintKind(str, Enum):
    PER_ANTENNA = "per-antenna"


def _check_power_budget(p_t: float) -> None:
    "ValueError unless the power budget P_t (mW) is finite and positive; NaN fails too."
    if not 0.0 < p_t < np.inf:
        raise ValueError(f"power budget must be finite and positive, got {p_t}")


def _above_rounding(lam: np.ndarray, u: np.ndarray) -> np.ndarray:
    "U_k sqrt(lam_k) for the ascending eigenpairs with lam > N eps max|lam|; ValueError if none."
    above = lam > u.shape[0] * np.finfo(float).eps * np.max(np.abs(lam))
    if not np.any(above):
        raise ValueError("covariance is zero")
    return u[:, above] * np.sqrt(lam[above])


def column_powers(a: np.ndarray, ra: np.ndarray) -> np.ndarray:
    """Quadratic forms a_k^H R a_k of the columns of A, complex, from A and R @ A.

    Here and in the solver, ndarray reductions run ``np.sum``'s (``np.min``'s,
    ``np.max``'s) ``add.reduce`` bit for bit, without its Python wrapper.
    """
    return (a.conj() * ra).sum(axis=0)


def factor_power(gha: np.ndarray) -> float:
    "sum_k ||G^H a_k||^2 from G^H A, G a matrix or a vector; every power of a factor uses it."
    return float(column_powers(gha, gha).sum().real)


def covariance_factor(r) -> np.ndarray:
    """The factor G = U_k sqrt(lam_k) of a dense R, R = G G^H, columns ascending.

    ValueError unless R is a finite, Hermitian, nonzero N x N matrix whose
    smallest eigenvalue is >= -1e-8 of its largest. Its Hermitian part is
    factored once by ``eigh`` (which alone would read one triangle); the
    eigenpairs with lam <= N eps max|lam| are left out, at most N^2 eps
    max|lam| in any a^H R a with unit-modulus a, its rounding error.
    """
    r = np.asarray(r, dtype=complex)
    if r.ndim != 2 or r.shape[0] != r.shape[1] or r.size == 0:
        raise ValueError(f"covariance is {r.shape}, expected a nonempty square matrix")
    if not np.all(np.isfinite(r)):
        raise ValueError("covariance has non-finite entries")
    herm_err = float(np.max(np.abs(r - r.conj().T)))
    if herm_err > 1e-10 * max(1.0, float(np.max(np.abs(r)))):
        raise ValueError(f"covariance is not Hermitian (max asymmetry {herm_err:g})")
    lam, u = np.linalg.eigh(0.5 * (r + r.conj().T))
    if float(lam[0]) < -1e-8 * max(float(lam[-1]), 1e-300):
        raise ValueError(f"not PSD: smallest eigenvalue {lam[0]:g}")
    return _above_rounding(lam, u)


class CovarianceMatrix:
    """The transmit covariance R = G G^H, held by its N x k factor G, and its budget P_t (mW).

    ``CovarianceMatrix(g, power_budget=p_t)`` keeps G; ``r=R`` in place of
    G keeps :func:`covariance_factor` of a dense R, so a bad R is refused
    here, not at first use. G must be a nonempty matrix with finite entries
    (ValueError); G G^H is Hermitian PSD by construction and is not tested
    again. ``r`` forms the N x N product on request, for tests and small N.
    """

    def __init__(self, g=None, *, power_budget: float, r=None,
                 constraint_kind: ConstraintKind = ConstraintKind.PER_ANTENNA):
        if (g is None) == (r is None):
            raise TypeError("give the factor g or the dense r, not both or neither")
        g = np.asarray(covariance_factor(r) if g is None else g, dtype=complex)
        if g.ndim != 2 or 0 in g.shape:
            raise ValueError(f"covariance factor must be a nonempty N x k matrix, "
                             f"got shape {g.shape}")
        if not np.all(np.isfinite(g)):
            raise ValueError("covariance factor has non-finite entries")
        self.g = g
        self.power_budget = power_budget
        self.constraint_kind = constraint_kind

    @property
    def n_elements(self) -> int:
        return self.g.shape[0]

    @property
    def r(self) -> np.ndarray:
        return self.g @ self.g.conj().T

    def validate(self) -> None:
        "ValueError unless P_t is finite and positive and diag(R) = ||g_n||^2 is P_t / N."
        _check_power_budget(self.power_budget)
        target = self.power_budget / self.n_elements
        err = float(np.max(np.abs(np.sum(self.g.real ** 2 + self.g.imag ** 2, axis=1) - target)))
        if err > _DIAG_REL_TOL * target:
            raise ValueError(f"per-antenna diagonal off by {err:g} (target {target:g})")

    def eigenfactor(self) -> np.ndarray:
        """:func:`covariance_factor` of R, from one thin SVD G = U S W^H, O(N k^2).

        R = U S^2 U^H, so the same columns are kept, in the same order, with
        no N x N matrix; a G of several columns and rank 1 gives k = 1.
        """
        u, s, _ = np.linalg.svd(self.g, full_matrices=False)
        return _above_rounding(s[::-1] ** 2, u[:, ::-1])


def _factor(cov: CovarianceMatrix, n: int) -> np.ndarray:
    "G of ``cov``; TypeError unless it is a CovarianceMatrix, ValueError unless G has n rows."
    if not isinstance(cov, CovarianceMatrix):
        raise TypeError(f"expected a CovarianceMatrix, got {type(cov).__name__}")
    if cov.n_elements != n:
        raise ValueError(f"covariance factor has {cov.n_elements} rows, expected {n}")
    return cov.g


@dataclass
class SolveReport:
    """Outcome of one covariance solve."""

    objective: float                    # certified primal value, mW
    iterations: int                     # power steps (accepted iterates), both stages
    dual_bound: float                   # valid upper bound, mW
    relative_gap: float                 # (dual_bound - objective) / dual_bound
    converged: bool = True


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


def _rownorm(x: np.ndarray) -> np.ndarray:
    """Rows of x scaled to unit norm, a zero row to e_1; a vector (p = 1) to exp(j arg x).

    The row norm is the formula ``np.linalg.norm(x, axis=1)`` evaluates and
    the argument the one ``np.angle`` does, so both are numpy's bit for bit.
    """
    if x.ndim == 1:
        return np.exp(1j * np.arctan2(x.imag, x.real))
    norm = np.sqrt(np.add.reduce((x.conj() * x).real, axis=1, keepdims=True))
    if (norm > 0.0).all():
        return x / norm
    x = x / np.where(norm > 0.0, norm, 1.0)
    x[norm[:, 0] == 0.0, 0] = 1.0
    return x


def _power_method(an: np.ndarray, w: np.ndarray, cap: int) -> tuple[np.ndarray, int]:
    """The rank-1 stage w <- exp(j arg(B w)), B = an an^H, for at most ``cap`` steps.

    Stops once w^H B w rises by at most ``_POWER_RISE_REL`` of itself.
    Returns (w, steps).
    """
    anh = an.conj().T
    a_w = anh @ w
    value = factor_power(a_w)
    steps = 0
    while steps < cap:
        steps += 1
        w = _rownorm(an @ a_w)
        a_w = anh @ w
        prev, value = value, factor_power(a_w)
        if value - prev <= _POWER_RISE_REL * value:
            break
    return w, steps


def _anderson_step(f: np.ndarray, x: np.ndarray, history: list) -> tuple[np.ndarray, np.ndarray]:
    """One safeguarded Anderson step of Phi(X) = F^H rownorm(F X) from X = F^H V; (X', V').

    ``history`` holds the last _AA_MEMORY + 1 pairs (X, Phi(X) - X). The
    point X_a = Phi(X) - (dX + dG) gamma, gamma the least-squares fit of the
    residual by the differences dG, gives the step when ||Phi(X_a)||^2, the
    value of rownorm(F X_a), is at least the plain step's ||Phi(X)||^2;
    otherwise the step is the plain one and the history restarts.
    """
    fh = f.conj().T
    v = _rownorm(f @ x)
    p = fh @ v
    residual = p - x
    history.append((x, residual))
    del history[:-_AA_MEMORY - 1]
    if len(history) > 1:
        h = np.array(history)
        dx, dg = (h[1:] - h[:-1]).reshape(len(h) - 1, 2, -1).transpose(1, 2, 0)
        gamma = np.linalg.lstsq(dg, residual.ravel(), rcond=None)[0]
        v_a = _rownorm(f @ (p - ((dx + dg) @ gamma).reshape(x.shape)))
        q = fh @ v_a
        if np.vdot(q, q).real >= np.vdot(p, p).real:
            return q, v_a
        history.clear()
    return p, v


def _certify(an, v, f) -> tuple[float, np.ndarray, float, float, np.ndarray]:
    """tr(V^H B V), the dual point y' of the iterate V (or w), its bound 1^T y', the gap, the face.

    The value and y read B through ``an``, the rest through its factor F.
    y' = lam y for lam = lambda_max(F^H Diag(1/y) F). The face is spanned
    by x = Diag(1/y) F c for the eigenvectors c with eigenvalues
    mu >= (1 - _FACE_TOL) lam: (Diag(y') - F F^H) x = (1 - mu / lam) Diag(y') x.
    """
    a_v = an.conj().T @ v
    y = (v.conj() * (an @ a_v)).reshape(an.shape[0], -1).sum(axis=1).real
    value = factor_power(a_v)
    # Entries below eps max(max y, 1), y_n <= 0 among them (a zero row of A,
    # or any iterate), are raised to it, so every V gives a finite, valid,
    # if loose, bound.
    y = np.maximum(y, np.finfo(float).eps * max(float(y.max()), 1.0))
    g = f / y[:, None]
    mu, c = np.linalg.eigh(f.conj().T @ g)
    # The 1e-12 relative margin on lam covers the rounding of the r x r matrix and its eigh.
    y_dual = (float(mu[-1]) * (1.0 + 1e-12)) * y
    dual = float(y_dual.sum())
    gap = (dual - value) / max(abs(dual), 1e-300)
    return value, y_dual, dual, gap, g @ c[:, mu >= (1.0 - _FACE_TOL) * mu[-1]]


def _hermitian_basis(m: int) -> np.ndarray:
    "An orthonormal basis (Frobenius inner product) of the m x m Hermitian matrices, m^2 x m x m."
    e = np.eye(m)
    rows, cols = np.triu_indices(m, 1)
    pairs = e[rows, :, None] * e[cols, None, :]       # E_kl for k < l
    flip = pairs.transpose(0, 2, 1)
    return np.concatenate([e[:, :, None] * e[:, None, :], (pairs + flip) * np.sqrt(0.5),
                           (pairs - flip) * 1j * np.sqrt(0.5)])


def _face_centre(face: np.ndarray) -> np.ndarray | None:
    """V with unit rows and V V^H the analytic centre of the face spanned by ``face``, or None.

    U is an orthonormal basis of the columns of ``face`` (one QR). The
    centre maximizes log det Q over Hermitian Q with diag(U Q U^H) = 1.
    In the coordinates of an orthonormal basis E_i of the Hermitian m x m
    matrices that constraint is a real N x m^2 map M q = 1. Its dual
    minimizes 1^T mu - log det S over mu, with S = sum_i (M^T mu)_i E_i,
    and the centre is Q = S^{-1}. Newton's method runs on mu in M's range,
    mu = L c for the thin SVD M = L Sigma R^T, from c = L^T 1, where
    S = U^H U = I. Its damped step 1/(1 + decrement) keeps S positive
    definite (log det is self-concordant). The diagonal congruence that
    scales the rows of U chol(Q) to unit norm then makes diag(R) exact.
    None when Q is not numerically positive definite.
    """
    u = np.linalg.qr(face)[0]
    basis = _hermitian_basis(u.shape[1])
    amap = np.real(np.einsum("nk,ikl,nl->ni", u, basis, u.conj()))
    left, sv, right = np.linalg.svd(amap, full_matrices=False)
    ranked = sv > _MAP_RANK_REL * sv[0]
    b = np.sum(left[:, ranked], axis=0)         # L^T 1
    to_q = right[ranked].T * sv[ranked]         # c -> M^T L c
    c = b
    for _ in range(_CENTRE_STEPS):
        q_e = np.linalg.inv(np.tensordot(to_q @ c, basis, 1)) @ basis
        grad = b - to_q.T @ np.real(np.einsum("ikk->i", q_e))
        step = np.linalg.solve(to_q.T @ np.real(np.einsum("ikl,jlk->ij", q_e, q_e)) @ to_q, grad)
        decrement = float(grad @ step)
        c = c - step / (1.0 + np.sqrt(decrement))
        if decrement <= _CENTRE_DECREMENT:
            break
    try:
        return _rownorm(u @ np.linalg.cholesky(np.linalg.inv(np.tensordot(to_q @ c, basis, 1))))
    except np.linalg.LinAlgError:
        return None


def solve_per_antenna_sdp(a: np.ndarray, p_t: float) -> tuple[CovarianceMatrix, SolveReport]:
    """Maximize tr(R B), B = A A^H, under diag(R) = p_t/N and R >= 0.

    ``a`` is the N x K steering matrix of the targets. Returns a feasible
    covariance together with a report whose ``dual_bound`` certifies the
    relative optimality gap. ``DEFAULT_ITER_CAP``, read at each call, bounds
    the power steps of both stages; a failure to reach ``DEFAULT_SDP_TOL``
    within them is reported via ``converged=False``, never silently.
    """
    _check_power_budget(p_t)
    a = _check_a(a)
    n = a.shape[0]
    rho = p_t / n

    # Work on the normalized problem: diag(R) = 1, lambda_max(B) = 1.
    u, sv, _ = np.linalg.svd(a, full_matrices=False)
    b_scale = float(sv[0]) ** 2
    an = a / sv[0]
    # an an^H = F F^H, r = min(N, K). F is Fortran-ordered, which sets the
    # rounding of the BLAS products on it.
    f = np.asfortranarray(u) * (sv / sv[0])

    v, steps = _power_method(an, _rownorm(f[:, 0]), DEFAULT_ITER_CAP)
    primal, _, dual, gap, face = _certify(an, v, f)
    if gap > DEFAULT_SDP_TOL or face.shape[1] > 1:
        # Block stage, certified every _CHECK_STEPS steps until the slack is
        # exact enough to read the optimal face off it.
        v = _rownorm(np.column_stack([v, f[:, 1:]]))
        x, history = f.conj().T @ v, []
        while True:
            for _ in range(min(_CHECK_STEPS, DEFAULT_ITER_CAP - steps)):
                x, v = _anderson_step(f, x, history)
                steps += 1
            primal, _, dual, gap, face = _certify(an, v, f)
            if gap <= _FACE_GAP or steps >= DEFAULT_ITER_CAP:
                break
        centre = _face_centre(face) if gap <= DEFAULT_SDP_TOL else None
        if centre is not None:
            value = factor_power(an.conj().T @ centre)
            centre_gap = (dual - value) / max(abs(dual), 1e-300)
            if centre_gap <= DEFAULT_SDP_TOL:
                v, primal, gap = centre, value, centre_gap
    converged = gap <= DEFAULT_SDP_TOL
    if not converged:
        logger.warning("per-antenna SDP ended at relative gap %.3g after %d power steps "
                       "(iteration cap %d)", gap, steps, DEFAULT_ITER_CAP)
    cov = CovarianceMatrix(np.sqrt(rho) * v.reshape(n, -1), power_budget=p_t)
    report = SolveReport(
        objective=rho * b_scale * primal,
        iterations=steps,
        dual_bound=rho * b_scale * dual,
        relative_gap=gap,
        converged=converged,
    )
    return cov, report


def randomize_rank1(
    cov: CovarianceMatrix,
    a: np.ndarray,
    n_samples: int = 1000,
    rng_seed=0,
) -> tuple[np.ndarray, float]:
    """Extract per-antenna-feasible phased-array weights from an SDP solution.

    Draws ``n_samples`` complex Gaussian vectors G z, z ~ CN(0, I_k), with
    covariance R = G G^H, G from ``cov.eigenfactor()`` (ValueError for a zero
    R) with each column turned so that its peak entry is real and positive:
    the SVD fixes a column only up to a unit phase, and this way the draws
    depend on R, not on which phase LAPACK returned. The peak is the first
    entry whose modulus is within ``_PEAK_TIE_REL`` of the column's largest,
    so moduli that tie up to rounding pick the same entry every time. Maps
    each draw to constant-modulus weights ``sqrt(P_t/N) exp(j arg(.))`` for
    the budget P_t = ``cov.power_budget``, and returns the weights maximizing
    ``w^H B w = ||A^H w||^2`` for the N x K steering matrix ``a``, plus that
    value. Samples are drawn sequentially from one seeded stream, so the
    best value over a prefix of the stream is nondecreasing in
    ``n_samples``, up to last-bit rounding of the batched matrix products.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    a = _check_a(a)
    n = a.shape[0]
    _factor(cov, n)
    p_t = cov.power_budget
    _check_power_budget(p_t)
    g = cov.eigenfactor()
    k = g.shape[1]
    mod = np.abs(g)
    peak = g[(mod >= (1.0 - _PEAK_TIE_REL) * mod.max(axis=0)).argmax(axis=0), np.arange(k)]
    g = g * (peak.conj() / np.abs(peak))
    rng = np.random.default_rng(rng_seed)

    # Sample-major draws: sample s takes stream entries [2 k s, 2 k (s + 1)),
    # so a smaller n_samples sees a prefix of the same samples.
    noise = rng.standard_normal((n_samples, 2, k))
    xi = g @ ((noise[:, 0] + 1j * noise[:, 1]).T / np.sqrt(2.0))
    w_all = np.sqrt(p_t / n) * np.exp(1j * np.angle(xi))
    a_w = a.conj().T @ w_all
    values = np.real(column_powers(a_w, a_w))
    best = int(np.argmax(values))
    return w_all[:, best].copy(), float(values[best])
