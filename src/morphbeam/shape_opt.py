"""Projected Newton ascent over the surface displacement vector.

The transmit covariance is held fixed while the element displacements along
the boresight axis move inside the box [-d_max, d_max]. Each iteration pins
the elements that sit at +/-d_max with an outward gradient (their direction
is 0) and takes a Newton step on the others, the free set (two-metric
projected Newton: Bertsekas, SIAM J. Control Optim. 20(2), 1982). Only the
displacement phase of A depends on the shape, so the flat-surface factor of
:func:`planar_steering` is built once per BCD start (``bcd`` passes it in; a
direct call builds it once per ascent); each trial point costs one phase
product and one G^H A (R = G G^H, G of size N x k), and an accepted point
one more product G (G^H A) for its gradient and Hessian. The loop's norms
and clips skip numpy's Python wrappers but round as ``np.linalg.norm`` and
``np.clip`` do, bit for bit.

On the free set the negated Hessian is 8 pi^2 (Diag(d) - U U^T), U of size
N x 2kK (:func:`morphbeam.objective.power_curvature`). The step solves
8 pi^2 (Diag(d) + mu - U U^T) p = g on the free set by Woodbury:
Diag(d + mu)^-1 and one 2kK x 2kK Cholesky of I - U^T Diag(d + mu)^-1 U,
with no N x N matrix (:func:`newton_direction`). The shift mu is needed:
moving every element by the same t only rotates each target's phase, so
P(x + t 1) = P(x) and, with no element pinned, the Hessian is singular
along 1 (the desk zero start meets this at its first ascent). mu starts at
``SHIFT_REL * max|d| + max(0, -min d)``, positive whenever the gradient is
not zero (sum_n d_n = sum_k c_k^2 ||G^H a_k||^2), and is multiplied by 4
until the Cholesky succeeds, so far from a maximum the step turns toward
the gradient.

The line search follows the projection arc x(alpha) = clip(x + alpha p):
the first alpha is min(1, ``MAX_FIRST_MOVE`` / max|p|), and a trial point
is accepted when its power beats the current power by at least the Armijo
demand ``ARMIJO_C * g . (x(alpha) - x)``. alpha halves while that demand is
at least one ulp of the power (``math.ulp``), so every accepted step raises
the power by at least an ulp and no loop state can repeat. The loop stops
with ``gradient_tol`` when the free gradient is exactly zero (every element
pinned included), with ``step_floor`` when no alpha whose demand is at
least an ulp passes, and with ``max_iters`` at the cap.

Every threshold is a ratio or a move in wavelengths. Scaling G by 2^j (P_t
by 4^j) scales the power, the gradient, d and mu by exactly 4^j and U by
2^j, so the ascent takes the same steps in x, bit for bit, at every power
budget.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .array_model import ArrayGeometry, SurfaceShape, TargetSet, phasor, steering_matrix
from .covariance import CovarianceMatrix, _factor
from .objective import factor_power, power_curvature, power_gradient
# bound here only so perfbench/tracing.py WRAP_POINTS can wrap it
from .objective import shape_gradient  # noqa: F401

logger = logging.getLogger(__name__)

STATUS_GRADIENT_TOL = "gradient_tol"
STATUS_MAX_ITERS = "max_iters"
# No trial step whose Armijo demand is at least one ulp of the power passes
# the Armijo test: the line search can no longer raise the power.
STATUS_STEP_FLOOR = "step_floor"

# Armijo sufficient-increase fraction.
ARMIJO_C = 1e-4
# Backtracking multiplier applied to a rejected trial step.
SHRINK = 0.5
# Default cap on accepted steps per ascent; a guard that no desk ascent reaches.
MAX_ITERS = 1000
# No element moves more than this many wavelengths at a line search's first trial.
MAX_FIRST_MOVE = 0.1
# The Hessian shift mu starts at this fraction of max|d| (module docstring).
# 2^-20 to 2^-40 take the same desk steps; 2^-10 takes 2% more evaluations.
SHIFT_REL = 2.0 ** -20
# 8 pi^2, the factor of the negated Hessian 8 pi^2 (Diag(d) - U U^T).
_CURVATURE = 8.0 * math.pi ** 2


@dataclass
class AscentTrace:
    """Diagnostics from one ascent run.

    ``objectives[0]`` is the power at the starting shape and each accepted
    step appends one entry, so the array is strictly increasing with length
    ``n_iters + 1``. ``grad_norms`` holds the raw gradient norm at every
    iterate the loop visited, and ``step_sizes`` the accepted alpha of each
    step. ``projected_grad_norm`` is the norm of the free gradient (the
    gradient with the pinned elements' entries zeroed) at the final iterate.
    ``n_evals`` counts power evaluations, the start included;
    ``n_gradients`` counts gradients.
    """

    objectives: np.ndarray
    grad_norms: np.ndarray
    step_sizes: np.ndarray
    projected_grad_norm: float
    status: str
    n_iters: int
    n_evals: int
    n_gradients: int


def project_shape(displacements: np.ndarray, d_max: float) -> np.ndarray:
    """Clip displacements onto the box [-d_max, d_max], as ``np.clip`` does, -0.0 included."""
    if d_max < 0.0:
        raise ValueError(f"d_max must be nonnegative, got {d_max}")
    return np.asarray(displacements).clip(-d_max, d_max)


def _norm(g: np.ndarray) -> float:
    "||g|| for a real vector, as sqrt(g . g): the formula np.linalg.norm evaluates."
    return math.sqrt(g.dot(g))


def free_set(grad: np.ndarray, displacements: np.ndarray, d_max: float) -> np.ndarray:
    """Mask of the free elements: all but those at +/-d_max whose gradient points out.

    ``displacements`` lie in the box, so x sign(g) >= d_max (exact) holds just there.
    """
    return displacements * np.sign(grad) < d_max


def newton_direction(g: np.ndarray, d: np.ndarray, u: np.ndarray,
                     free: np.ndarray) -> tuple[np.ndarray, float]:
    """The projected Newton step p and its shift mu (module docstring).

    p is 0 off the ``free`` mask and solves 8 pi^2 (Diag(d) + mu - U U^T) p = g
    on it, by Woodbury. mu starts at ``SHIFT_REL * max|d| + max(0, -min d)``,
    max|d| over every element and min d over the free ones, and is
    multiplied by 4 until I - U^T Diag(d + mu)^-1 U has a Cholesky factor.
    Where d is 0 (it underflows with c_k^2), p is the free gradient / 8 pi^2. A
    pinned element's d is taken as +inf, so its rows of Diag(d + mu)^-1 U
    and of the step are 0 and the free set is solved alone.
    """
    d_free = np.where(free, d, np.inf)
    mu = SHIFT_REL * float(np.abs(d).max()) + max(0.0, -float(d_free.min()))
    if mu == 0.0:
        # d underflowed, as c_k^2 does within 1e-154 rad of a pole: step along g
        return g * free / _CURVATURE, mu
    eye = np.eye(u.shape[1])
    while True:
        e_inv = 1.0 / (d_free + mu)
        w = u * e_inv[:, None]
        s = eye - u.T @ w
        try:
            np.linalg.cholesky(s)
        except np.linalg.LinAlgError:
            mu *= 4.0
            continue
        return (e_inv * g + w @ np.linalg.solve(s, w.T @ g)) / _CURVATURE, mu


def planar_steering(geom: ArrayGeometry, targets: TargetSet) -> tuple[np.ndarray, np.ndarray]:
    """The flat-surface steering matrix A_0 of ``targets`` and c = sin(theta) sin(phi).

    :func:`shaped_steering` at x is ``steering_matrix`` at x bit for bit;
    c + 0.0 is the product ``steering_matrix`` reads.
    """
    c = np.sin(targets.thetas) * np.sin(targets.phis) + 0.0
    return steering_matrix(geom, targets.thetas, targets.phis, np.zeros(geom.n_elements)), c


def shaped_steering(planar: tuple[np.ndarray, np.ndarray], x: np.ndarray) -> np.ndarray:
    "A at displacements x from ``planar`` = (A_0, c) of :func:`planar_steering`."
    a0, c = planar
    return a0 * phasor(x[:, None] * c)


def ascend_shape(
    cov: CovarianceMatrix,
    geom: ArrayGeometry,
    targets: TargetSet,
    shape: SurfaceShape,
    max_iters: int = MAX_ITERS,
    planar: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[SurfaceShape, AscentTrace]:
    """Maximize cumulated power over the surface shape, covariance fixed.

    Runs projected Newton ascent from ``shape`` for at most ``max_iters``
    accepted steps, with an Armijo line search along the projection arc
    that halves alpha (by ``SHRINK``) from min(1, ``MAX_FIRST_MOVE`` /
    max|p|). The loop stops with status ``gradient_tol`` when the free
    gradient is zero, and with ``step_floor`` rather than raising when no
    trial step whose Armijo demand is at least one ulp of the power passes,
    since a boundary iterate can be legitimately stuck (module docstring).

    ``planar`` is :func:`planar_steering` of ``geom`` and ``targets``;
    without it the ascent builds its own.

    Returns the final shape and an :class:`AscentTrace`.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    factor = _factor(cov, geom.n_elements)
    factor_h = factor.conj().T
    if planar is None:
        planar = planar_steering(geom, targets)
    c = planar[1]
    d_max = geom.d_max

    def power(x):
        a = shaped_steering(planar, x)
        gha = factor_h @ a
        return factor_power(gha), a, gha

    x = project_shape(np.asarray(shape.displacements, dtype=float), d_max)
    p, a, gha = power(x)
    ra = factor @ gha
    g = power_gradient(a, ra, c)
    n_evals, n_gradients = 1, 1
    objectives = [p]
    grad_norms = []
    step_sizes = []
    status = STATUS_MAX_ITERS

    for _ in range(max_iters):
        grad_norms.append(_norm(g))
        free = free_set(g, x, d_max)
        if not (g * free).any():
            status = STATUS_GRADIENT_TOL
            break
        step, _ = newton_direction(g, *power_curvature(a, ra, factor, c), free)
        alpha = min(1.0, MAX_FIRST_MOVE / float(np.abs(step).max()))
        floor = math.ulp(p)
        while True:
            x_try = project_shape(x + alpha * step, d_max)
            demand = ARMIJO_C * g.dot(x_try - x)
            if demand < floor:
                break
            p_try, a_try, gha_try = power(x_try)
            n_evals += 1
            if p_try >= p + demand:
                break
            alpha *= SHRINK
        if demand < floor:
            status = STATUS_STEP_FLOOR
            break
        x, p, a, gha = x_try, p_try, a_try, gha_try
        ra = factor @ gha
        g = power_gradient(a, ra, c)
        n_gradients += 1
        objectives.append(p)
        step_sizes.append(alpha)
    else:
        # loop ran out; record the gradient at the final iterate too
        grad_norms.append(_norm(g))

    trace = AscentTrace(
        objectives=np.asarray(objectives),
        grad_norms=np.asarray(grad_norms),
        step_sizes=np.asarray(step_sizes),
        projected_grad_norm=_norm(g * free_set(g, x, d_max)),
        status=status,
        n_iters=len(step_sizes),
        n_evals=n_evals,
        n_gradients=n_gradients,
    )
    if status == STATUS_MAX_ITERS:
        logger.debug("ascent stopped at max_iters=%d with grad norm %.3g",
                     max_iters, grad_norms[-1])
    return SurfaceShape(x), trace
