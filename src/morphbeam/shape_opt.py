"""Projected gradient ascent over the surface displacement vector.

The transmit covariance is held fixed while the element displacements along
the boresight axis move inside the box [-d_max, d_max]. Each iteration takes
an Armijo-backtracked step along the analytic gradient of the cumulated
probing power, starting from twice the last accepted step, and projects back
onto the box. Only the displacement phase of A depends on the shape, so the
planar factor is built once per ascent; each trial point costs one phase
product and one R A, which also gives the gradient once the point is accepted.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .array_model import TWO_PI, ArrayGeometry, SurfaceShape, TargetSet, steering_matrix
from .objective import _as_matrix, _check_covariance, column_powers, power_gradient
# bound here only so perfbench/tracing.py WRAP_POINTS can wrap it
from .objective import shape_gradient  # noqa: F401

logger = logging.getLogger(__name__)

STATUS_GRADIENT_TOL = "gradient_tol"
STATUS_MAX_ITERS = "max_iters"
STATUS_STEP_FLOOR = "step_floor"

STEP_FLOOR = 1e-12
# First trial step is capped so no element moves more than this many
# wavelengths at once; keeps the line search sane when the gradient is huge.
MAX_FIRST_MOVE = 0.1
# Later line searches start from this multiple of the last accepted step.
STEP_GROWTH = 2.0


@dataclass
class AscentConfig:
    """Settings for the displacement ascent loop.

    Parameters
    ----------
    grad_tol : float
        Terminate once the euclidean norm of the raw gradient drops below
        this value.
    max_iters : int
        Hard cap on accepted ascent steps.
    armijo_c : float
        Sufficient-increase fraction in (0, 1).
    shrink : float
        Backtracking multiplier in (0, 1).
    initial_step : float
        First trial step size of the first iteration only, in wavelengths
        per unit gradient; later iterations start from ``STEP_GROWTH``
        times the last accepted step.
    """

    grad_tol: float = 1e-6
    max_iters: int = 1000
    armijo_c: float = 1e-4
    shrink: float = 0.5
    initial_step: float = 1e-2

    def __post_init__(self):
        if self.grad_tol <= 0.0:
            raise ValueError(f"grad_tol must be positive, got {self.grad_tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not 0.0 < self.armijo_c < 1.0:
            raise ValueError(f"armijo_c must lie in (0, 1), got {self.armijo_c}")
        if not 0.0 < self.shrink < 1.0:
            raise ValueError(f"shrink must lie in (0, 1), got {self.shrink}")
        if self.initial_step <= 0.0:
            raise ValueError(f"initial_step must be positive, got {self.initial_step}")


@dataclass
class AscentTrace:
    """Diagnostics from one ascent run.

    ``objectives[0]`` is the power at the starting shape and each accepted
    step appends one entry, so the array is nondecreasing with length
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
    """Clip displacements onto the box [-d_max, d_max]."""
    if d_max < 0.0:
        raise ValueError(f"d_max must be nonnegative, got {d_max}")
    return np.clip(displacements, -d_max, d_max)


def _boxed_gradient_norm(grad: np.ndarray, displacements: np.ndarray,
                         d_max: float) -> float:
    g = grad.copy()
    g[(displacements >= d_max) & (g > 0.0)] = 0.0
    g[(displacements <= -d_max) & (g < 0.0)] = 0.0
    return float(np.linalg.norm(g))


def ascend_shape(
    r_x,
    geom: ArrayGeometry,
    targets: TargetSet,
    shape: SurfaceShape,
    config: AscentConfig | None = None,
) -> tuple[SurfaceShape, AscentTrace]:
    """Maximize cumulated power over the surface shape, covariance fixed.

    Runs projected gradient ascent from ``shape``. A trial step is accepted
    when the power at the projected point beats the current power by at least
    ``armijo_c * step * ||g||^2``; otherwise the step shrinks. The first
    trial step is ``initial_step`` at the first iteration and twice the last
    accepted step afterwards, capped so no element moves more than
    ``MAX_FIRST_MOVE`` at once. If the step collapses below the floor the
    loop stops with status ``step_floor`` rather than raising, since a
    boundary iterate can be legitimately stuck.

    Returns the final shape and an :class:`AscentTrace`.
    """
    if config is None:
        config = AscentConfig()
    r = _check_covariance(_as_matrix(r_x), geom.n_elements)
    # the flat-shape steering matrix times the displacement phase reproduces
    # steering_matrix at any shape bit for bit
    planar = steering_matrix(geom, targets.thetas, targets.phis, np.zeros(geom.n_elements))
    c = np.sin(targets.thetas) * np.sin(targets.phis)

    def power(x):
        a = planar * np.exp(-1j * TWO_PI * np.outer(x, c))
        ra = r @ a
        return float(np.sum(column_powers(a, ra)).real), a, ra

    x = project_shape(np.asarray(shape.displacements, dtype=float).copy(), geom.d_max)
    p, a, ra = power(x)
    g = power_gradient(a, ra, c)
    n_evals, n_gradients = 1, 1
    objectives = [p]
    grad_norms = []
    step_sizes = []
    status = STATUS_MAX_ITERS
    trial = config.initial_step

    for _ in range(config.max_iters):
        gnorm = float(np.linalg.norm(g))
        grad_norms.append(gnorm)
        if gnorm <= config.grad_tol:
            status = STATUS_GRADIENT_TOL
            break
        if _boxed_gradient_norm(g, x, geom.d_max) == 0.0:
            # every coordinate is pinned to a box face with an outward
            # gradient (or has zero gradient), so projection undoes any step
            # exactly; the iterate is box-stationary
            status = STATUS_GRADIENT_TOL
            break

        gmax = float(np.max(np.abs(g)))
        step = min(trial, MAX_FIRST_MOVE / gmax)
        accepted = False
        while step > STEP_FLOOR:
            x_try = project_shape(x + step * g, geom.d_max)
            p_try, a, ra = power(x_try)
            n_evals += 1
            if p_try >= p + config.armijo_c * step * gnorm * gnorm:
                accepted = True
                break
            step *= config.shrink
        if not accepted:
            status = STATUS_STEP_FLOOR
            break
        x = x_try
        p = p_try
        g = power_gradient(a, ra, c)
        n_gradients += 1
        objectives.append(p)
        step_sizes.append(step)
        trial = STEP_GROWTH * step
    else:
        # loop ran out; record the gradient at the final iterate too
        grad_norms.append(float(np.linalg.norm(g)))

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
                     config.max_iters, grad_norms[-1])
    return SurfaceShape(x), trace
