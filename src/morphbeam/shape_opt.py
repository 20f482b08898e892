"""Projected gradient ascent over the surface displacement vector.

The transmit covariance is held fixed while the element displacements along
the boresight axis move inside the box [-d_max, d_max]. Each iteration takes
an Armijo-backtracked step along the analytic gradient of the cumulated
probing power, starting from twice the last accepted step, and projects back
onto the box. Only the displacement phase of A depends on the shape, so the
flat-surface factor of :func:`planar_steering` is built once per BCD start
(``bcd`` passes it in; a direct call builds it once per ascent); each trial
point costs one phase product and one G^H A (R = G G^H, G of size N x k),
and an accepted point one more product G (G^H A) for its gradient. The
loop's norms, maxima and clips skip numpy's Python wrappers but round as
``np.linalg.norm``, ``np.max`` and ``np.clip`` do, bit for bit.

The Armijo demand ARMIJO_C * step * ||g||^2 uses the raw gradient, which the
elements pinned at +/-d_max can dominate, while a short projected step gains
about step * ||g_boxed||^2 (g_boxed: g without the components that push
against an active box face). Once ||g_boxed||^2 <= ARMIJO_C * ||g||^2 no
short step can pass (g = 0 included), so the loop stops with
``gradient_tol`` instead of backtracking.

The line search backtracks only while the Armijo demand is at least one ulp
of the power (``math.ulp``, ``np.spacing`` of a nonnegative power), so every
accepted step raises the power by at least an ulp and no loop state can
repeat; when no step in that range passes, the loop stops with
``step_floor``. Every threshold is a ratio or a move in wavelengths, and the
first iteration's first trial step is ``MAX_FIRST_MOVE / max|g|``. Scaling G
by 2^j (P_t by 4^j) scales the power and the gradient by exactly 4^j, so the
ascent takes the same steps in x, bit for bit, at every power budget.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .array_model import ArrayGeometry, SurfaceShape, TargetSet, phasor, steering_matrix
from .covariance import CovarianceMatrix, _factor
from .objective import factor_power, power_gradient
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
# First trial step is capped so no element moves more than this many
# wavelengths at once; the first iteration starts at that cap.
MAX_FIRST_MOVE = 0.1
# Later line searches start from this multiple of the last accepted step.
STEP_GROWTH = 2.0


@dataclass
class AscentTrace:
    """Diagnostics from one ascent run.

    ``objectives[0]`` is the power at the starting shape and each accepted
    step appends one entry, so the array is strictly increasing with length
    ``n_iters + 1``. ``grad_norms`` holds the raw gradient norm at every
    iterate the loop visited. ``projected_grad_norm`` is the norm of the
    gradient with components pushing against an active box face zeroed out,
    measured at the final iterate. ``n_evals`` counts power evaluations,
    the start included; ``n_gradients`` counts gradients.
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


def _boxed_gradient_norm(grad: np.ndarray, displacements: np.ndarray,
                         d_max: float) -> float:
    "||g_boxed||: the components of ``grad`` that push against an active box face zeroed."
    pinned = (((displacements >= d_max) & (grad > 0.0))
              | ((displacements <= -d_max) & (grad < 0.0)))
    return _norm(np.where(pinned, 0.0, grad))


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

    Runs projected gradient ascent from ``shape`` for at most ``max_iters``
    accepted steps. A trial step is accepted when the power at the projected
    point beats the current power by at least ``ARMIJO_C * step * ||g||^2``;
    otherwise the step shrinks by ``SHRINK``. The first trial step is
    ``STEP_GROWTH`` times the last accepted step (unbounded at the first
    iteration), capped so no element moves more than ``MAX_FIRST_MOVE`` at
    once. The loop stops with status ``gradient_tol`` when ||g_boxed||^2 <=
    ``ARMIJO_C`` ||g||^2, and with ``step_floor`` rather than raising when no
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

    def power(x):
        a = shaped_steering(planar, x)
        gha = factor_h @ a
        return factor_power(gha), a, gha

    x = project_shape(np.asarray(shape.displacements, dtype=float), geom.d_max)
    p, a, gha = power(x)
    g = power_gradient(a, factor @ gha, c)
    n_evals, n_gradients = 1, 1
    objectives = [p]
    grad_norms = []
    step_sizes = []
    status = STATUS_MAX_ITERS
    trial = math.inf

    for _ in range(max_iters):
        gnorm = _norm(g)
        grad_norms.append(gnorm)
        boxed = _boxed_gradient_norm(g, x, geom.d_max)
        if boxed * boxed <= ARMIJO_C * gnorm * gnorm:
            # no short step can meet the Armijo demand; this includes g = 0
            # and the box-stationary iterate, where every coordinate is
            # pinned to a box face with an outward gradient (or has zero
            # gradient)
            status = STATUS_GRADIENT_TOL
            break

        step = min(trial, MAX_FIRST_MOVE / float(np.abs(g).max()))
        while (demand := ARMIJO_C * step * gnorm * gnorm) >= math.ulp(p):
            x_try = project_shape(x + step * g, geom.d_max)
            p_try, a, gha = power(x_try)
            n_evals += 1
            if p_try >= p + demand:
                break
            step *= SHRINK
        else:
            status = STATUS_STEP_FLOOR
            break
        x = x_try
        p = p_try
        g = power_gradient(a, factor @ gha, c)
        n_gradients += 1
        objectives.append(p)
        step_sizes.append(step)
        trial = STEP_GROWTH * step
    else:
        # loop ran out; record the gradient at the final iterate too
        grad_norms.append(_norm(g))

    trace = AscentTrace(
        objectives=np.asarray(objectives),
        grad_norms=np.asarray(grad_norms),
        step_sizes=np.asarray(step_sizes),
        projected_grad_norm=_boxed_gradient_norm(g, x, geom.d_max),
        status=status,
        n_iters=len(step_sizes),
        n_evals=n_evals,
        n_gradients=n_gradients,
    )
    if status == STATUS_MAX_ITERS:
        logger.debug("ascent stopped at max_iters=%d with grad norm %.3g",
                     max_iters, grad_norms[-1])
    return SurfaceShape(x), trace
