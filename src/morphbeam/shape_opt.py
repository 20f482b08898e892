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
against an active box face). Once ||g_boxed||^2 < ARMIJO_C * ||g||^2 no short
step can pass, so the loop stops with ``gradient_tol`` instead of
backtracking to the step floor.

Once ARMIJO_C * step * ||g||^2 is below half an ulp of the power, the Armijo
test passes a trial point whose power is bit-equal to the current one. The
loop then cycles: a step of 2s is rejected and the step s accepted, with the
same power and first trial step at the start of every iteration. Where s
leaves x bit-equal, the whole state (x, power, gradient, first trial step)
repeats; each iteration is a pure function of it, so stopping returns
exactly what running on to ``max_iters`` would. Where s moves x but its
first-order rise s * ||g_boxed||^2 is under one ulp of the power, x drifts
at equal power (a later step may gain an ulp or two) for up to hundreds of
steps before it settles. The loop stops at the first step of either kind
and keeps x.
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
# No trial step above STEP_FLOOR passes the Armijo test, or the accepted one
# leaves the power bit-equal, moves x by less than an ulp of the power's
# worth (or not at all) and the next iteration would start with the same
# step: either way the line search can no longer raise the power.
STATUS_STEP_FLOOR = "step_floor"

# Stop once the euclidean norm of the raw gradient drops to this value.
GRAD_TOL = 1e-6
# Armijo sufficient-increase fraction.
ARMIJO_C = 1e-4
# Backtracking multiplier applied to a rejected trial step.
SHRINK = 0.5
# First trial step of the first iteration, in wavelengths per unit gradient.
INITIAL_STEP = 1e-2
# Default cap on accepted steps per ascent; a guard that no desk ascent reaches.
MAX_ITERS = 1000
STEP_FLOOR = 1e-12
# First trial step is capped so no element moves more than this many
# wavelengths at once; keeps the line search sane when the gradient is huge.
MAX_FIRST_MOVE = 0.1
# Later line searches start from this multiple of the last accepted step.
STEP_GROWTH = 2.0


@dataclass
class AscentTrace:
    """Diagnostics from one ascent run.

    ``objectives[0]`` is the power at the starting shape and each accepted
    step appends one entry, so the array is nondecreasing with length
    ``n_iters + 1``. ``grad_norms`` holds the raw gradient norm at every
    iterate the loop visited. ``projected_grad_norm`` is the norm of the
    gradient with components pushing against an active box face zeroed out,
    measured at the final iterate. ``n_evals`` counts power evaluations,
    the start included; ``n_gradients`` counts gradients. ``status`` is
    ``step_floor`` also when the loop stops on an equal-power cycle; the
    step that closes it is counted in ``n_evals`` but not in ``n_iters`` or
    ``objectives``.
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
    ``INITIAL_STEP`` at the first iteration and ``STEP_GROWTH`` times the
    last accepted step afterwards, capped so no element moves more than
    ``MAX_FIRST_MOVE`` at once. The loop stops with status
    ``gradient_tol`` when ||g|| <= ``GRAD_TOL`` or ||g_boxed||^2 <
    ``ARMIJO_C`` ||g||^2 (module docstring). If the step collapses below the
    floor the loop stops with status ``step_floor`` rather than raising,
    since a boundary iterate can be legitimately stuck. It also stops with
    ``step_floor``, keeping x, when the accepted point's power is bit-equal
    to x's, the next first trial step, ``STEP_GROWTH * step``, equals this
    iteration's, and the point is x itself or step * ||g_boxed||^2 is under
    one ulp of the power (module docstring). When the point is x, the next
    iteration would repeat this one, so the shape, power and projected
    gradient returned are bit-equal to those of the loop run on to
    ``max_iters``.

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
    trial = INITIAL_STEP

    for _ in range(max_iters):
        gnorm = _norm(g)
        grad_norms.append(gnorm)
        if gnorm <= GRAD_TOL:
            status = STATUS_GRADIENT_TOL
            break
        boxed = _boxed_gradient_norm(g, x, geom.d_max)
        if boxed * boxed < ARMIJO_C * gnorm * gnorm:
            # no short step can meet the Armijo demand; this includes the
            # box-stationary iterate, where every coordinate is pinned to a
            # box face with an outward gradient (or has zero gradient)
            status = STATUS_GRADIENT_TOL
            break

        gmax = float(np.abs(g).max())
        step = min(trial, MAX_FIRST_MOVE / gmax)
        accepted = False
        while step > STEP_FLOOR:
            x_try = project_shape(x + step * g, geom.d_max)
            p_try, a, gha = power(x_try)
            n_evals += 1
            if p_try >= p + ARMIJO_C * step * gnorm * gnorm:
                accepted = True
                break
            step *= SHRINK
        if not accepted or (STEP_GROWTH * step == trial and p_try == p and (
                step * boxed * boxed < np.spacing(p) or np.array_equal(x_try, x))):
            # nothing passed, or the next iteration would start with this
            # one's power and trial step from an x that moved by rounding
            # (or not at all) and repeat it
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
