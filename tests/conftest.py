"""Shared fixtures and acceptance-criterion reporting.

The expensive benchmark runs (10x10 desk instance at several morphing
ranges) are session-scoped so the acceptance tests that examine different
aspects of the same run do not recompute it.
"""

import time

import numpy as np
import pytest

from morphbeam.array_model import ArrayGeometry, TargetSet, steering_matrix
from morphbeam.bcd import BcdConfig, Scheme, solve_benchmark
from morphbeam.units import wavelength_from_frequency

# desk-scale reference instance: 10x10 half-wavelength grid at 28 GHz,
# three targets, 10 dBm budget
DESK_FREQ_HZ = 28e9
DESK_THETAS_DEG = (30.0, 30.0, 135.0)
DESK_PHIS_DEG = (60.0, 120.0, 90.0)
DESK_P_T_MW = 10.0


def desk_geometry(d_max: float, n_x: int = 10, n_z: int = 10) -> ArrayGeometry:
    return ArrayGeometry(
        n_x=n_x, n_z=n_z, dx=0.5, dz=0.5,
        wavelength=wavelength_from_frequency(DESK_FREQ_HZ), d_max=d_max,
    )


def desk_targets() -> TargetSet:
    return TargetSet.from_degrees(np.asarray(DESK_THETAS_DEG),
                                  np.asarray(DESK_PHIS_DEG))


def finite_difference_gradient(r_x, geom, targets, shape, h=1e-6):
    """Central-difference gradient of the cumulated power; verification oracle.

    Independent of the package's gradient and of the shape ascent's
    evaluator: it rebuilds the steering matrix and the whole quadratic form
    at each probe. ``h`` is the probe step in wavelengths.
    """
    if h <= 0.0:
        raise ValueError(f"step must be positive, got {h}")
    r = getattr(r_x, "r", r_x)

    def power_at(d):
        a = steering_matrix(geom, targets.thetas, targets.phis, d)
        return float(np.sum(a.conj() * (r @ a)).real)

    base = shape.displacements
    grad = np.empty(base.size)
    for n in range(base.size):
        bumped = base.copy()
        bumped[n] = base[n] + h
        hi = power_at(bumped)
        bumped[n] = base[n] - h
        lo = power_at(bumped)
        grad[n] = (hi - lo) / (2.0 * h)
    return grad


@pytest.fixture(scope="session")
def rigid_results():
    "Rigid-surface benchmarks (single SDP each) on the desk instance."
    geom = desk_geometry(0.0)
    targets = desk_targets()
    cfg = BcdConfig(rng_seed=0, n_starts=4)
    return {
        scheme: solve_benchmark(scheme, geom, targets, DESK_P_T_MW, cfg)
        for scheme in (Scheme.RAA_MIMO, Scheme.RAA_PA)
    }


@pytest.fixture(scope="session")
def morph_mimo_results():
    "Morphing MIMO runs keyed by d_max, with wall times for the runtime gate."
    targets = desk_targets()
    out = {}
    for d in (0.25, 0.5, 1.0):
        cfg = BcdConfig(rng_seed=0, n_starts=4)
        tic = time.perf_counter()
        res = solve_benchmark(Scheme.FIM_MIMO, desk_geometry(d), targets,
                              DESK_P_T_MW, cfg)
        out[d] = (res, time.perf_counter() - tic)
    return out


@pytest.fixture(scope="session")
def morph_pa_results():
    "Morphing phased-array runs keyed by d_max."
    targets = desk_targets()
    out = {}
    for d in (0.5, 1.0):
        cfg = BcdConfig(rng_seed=0, n_starts=4)
        out[d] = solve_benchmark(Scheme.FIM_PA, desk_geometry(d), targets,
                                 DESK_P_T_MW, cfg)
    return out


@pytest.fixture(scope="session")
def warm_range_values(rigid_results, morph_mimo_results):
    """Warm-started morphing-range ladder 0 -> 0.5 -> 1.0 on the desk instance.

    The 0.5 rung reuses the cold run (its start set already contains the
    rigid zero start); the 1.0 rung is re-optimized with the 0.5 optimum as
    an extra provided start.
    """
    targets = desk_targets()
    values = {0.0: rigid_results[Scheme.RAA_MIMO].objective_mw}
    res_half = morph_mimo_results[0.5][0]
    values[0.5] = res_half.objective_mw
    cfg = BcdConfig(rng_seed=0, n_starts=4)
    res_full = solve_benchmark(Scheme.FIM_MIMO, desk_geometry(1.0), targets,
                               DESK_P_T_MW, cfg,
                               provided_starts=((res_half.shape, res_half.cov),))
    values[1.0] = res_full.objective_mw
    return values


# -- acceptance-criterion reporting ---------------------------------------

_CRITERIA_SEEN = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "criterion(num, title): tags a test as one numbered acceptance criterion",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    mark = item.get_closest_marker("criterion")
    if mark is None:
        return
    num, title = mark.args
    if report.when == "call":
        _CRITERIA_SEEN[num] = ("PASS" if report.passed else "FAIL", title)
    elif report.when == "setup" and not report.passed:
        _CRITERIA_SEEN[num] = ("SKIP" if report.skipped else "FAIL", title)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA_SEEN:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_CRITERIA_SEEN):
        status, title = _CRITERIA_SEEN[num]
        terminalreporter.write_line(f"criterion {num:2d} {status}  {title}")
