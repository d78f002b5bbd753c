"""Finite-difference reference solver: invariants, physics, convergence.

The runs here use deliberately coarse grids (fractions of a second each);
the acceptance suite exercises the default resolution.
"""

import dataclasses

import numpy as np
import pytest

from egstherm.analytic import fluid_temp_single, rock_temp
from egstherm.laplace import multi_fracture_forecast
from egstherm.oracle import (
    OracleGrid,
    convergence_study,
    fd_simulate,
    semi_infinite_grid,
    slab_grid,
)
from egstherm.scenario import fracture_velocity, thermal_diffusivity
from egstherm.units import SECONDS_PER_YEAR as YR

L = 999.744
PROBES = np.array([10.0, 30.0, 50.0]) * YR
SLAB_PROBES = np.array([10.0, 25.0, 50.0]) * YR

# Independent high-accuracy inversion of the slab transform, frozen.
SLAB_REFERENCE = np.array([299.90498, 289.58746, 206.14872])


@pytest.fixture(scope="module")
def semi_run(valles_single):
    grid = semi_infinite_grid(valles_single, nx=40, ny=80, n_steps=300)
    series, details = fd_simulate(
        valles_single, grid, PROBES, snapshot_times=[10.0 * YR], return_details=True
    )
    return grid, series, details


@pytest.fixture(scope="module")
def slab_run(valles):
    grid = slab_grid(valles, nx=40, ny=80, n_steps=400)
    series, details = fd_simulate(valles, grid, SLAB_PROBES, return_details=True)
    return grid, series, details


def test_grid_invariants():
    OracleGrid(y_max=10.0, dt=1.0)
    with pytest.raises(ValueError):
        OracleGrid(y_max=0.0, dt=1.0)
    with pytest.raises(ValueError):
        OracleGrid(y_max=10.0, dt=0.0)
    with pytest.raises(ValueError):
        OracleGrid(y_max=10.0, dt=1.0, nx=8)
    with pytest.raises(ValueError):
        OracleGrid(y_max=10.0, dt=1.0, ny=15)
    with pytest.raises(ValueError):
        OracleGrid(y_max=10.0, dt=1.0, nx=40.0)
    with pytest.raises(ValueError):
        OracleGrid(y_max=10.0, dt=1.0, bc_far="adiabatic")
    with pytest.raises(ValueError):
        OracleGrid(y_max=10.0, dt=1.0, ratio=1.0)
    with pytest.raises(ValueError):
        OracleGrid(y_max=10.0, dt=1.0, ratio=1.2)


def test_grid_nodes_are_stretched():
    grid = OracleGrid(y_max=10.0, dt=1.0, ny=16, ratio=1.05)
    y = grid.y_nodes()
    assert y.shape == (17,)
    assert y[0] == 0.0
    assert y[-1] == pytest.approx(10.0, rel=1e-12)
    steps = np.diff(y)
    assert np.all(steps > 0.0)
    # geometric: each cell wider than the last by the fixed ratio
    assert np.allclose(steps[1:] / steps[:-1], 1.05, rtol=1e-9)


def test_grid_factories(valles, valles_single):
    semi = semi_infinite_grid(valles_single, n_steps=300)
    # covers six diffusion lengths of the fifty-year horizon
    assert semi.y_max == pytest.approx(230.48489002167122, rel=1e-12)
    assert semi.bc_far == "dirichlet_T0"
    assert semi.dt == pytest.approx(valles_single.operating.horizon / 300, rel=1e-15)
    # a quarter of the horizon halves the diffusion length
    short = semi_infinite_grid(valles_single, ratio=1.05, horizon=12.5 * YR)
    assert short.y_max == pytest.approx(230.48489002167122 / 2.0, rel=1e-12)
    assert (short.ratio, short.dt) == (1.05, 12.5 * YR / 2000)
    assert semi_infinite_grid(valles_single, y_max=50.0).y_max == 50.0
    slab = slab_grid(valles)
    assert slab.y_max == 20.0  # half the 40 m spacing
    assert slab.bc_far == "neumann_zero"
    short_slab = slab_grid(valles, ratio=1.05, horizon=12.5 * YR)
    assert (short_slab.y_max, short_slab.ratio, short_slab.dt) == (20.0, 1.05, 12.5 * YR / 2000)
    with pytest.raises(ValueError):
        slab_grid(valles_single)  # no spacing to halve


def test_fd_rejects_bad_probes(valles_single):
    grid = semi_infinite_grid(valles_single, nx=16, ny=16, n_steps=100)
    with pytest.raises(ValueError):
        fd_simulate(valles_single, grid, [0.0])
    with pytest.raises(ValueError):
        fd_simulate(valles_single, grid, [-1.0])


def test_fd_refuses_oscillating_fluid_march(valles):
    # at nx = 50 both fluid march gains (1+q)/(1-q) are negative (-0.001 at
    # theta = 1, -0.17 at theta = 1/2): the outlet would oscillate along x
    coarse = slab_grid(valles, nx=50)
    with pytest.raises(ValueError) as err:
        fd_simulate(valles, coarse, [coarse.dt])
    assert "nx=50" in str(err.value) and "too coarse along x" in str(err.value)
    fine = slab_grid(valles, nx=100)
    series = fd_simulate(valles, fine, [10.0 * fine.dt])
    assert np.all(np.isfinite(series.outlet_temperatures))


def test_fd_rejects_invalid_scenario(valles_single):
    grid = semi_infinite_grid(valles_single, nx=16, ny=16, n_steps=100)
    bad = dataclasses.replace(
        valles_single,
        operating=dataclasses.replace(valles_single.operating, total_rate=0.0),
    )
    with pytest.raises(ValueError) as err:
        fd_simulate(bad, grid, [YR])
    assert "total_rate" in str(err.value)


def test_fd_matches_closed_form_on_coarse_grid(semi_run, valles_single):
    _, series, _ = semi_run
    assert series.model == "oracle"
    reference = fluid_temp_single(valles_single, L, PROBES)
    err = np.abs(np.asarray(series.outlet_temperatures) - reference)
    # 0.035 C measured at this resolution; budget leaves headroom only
    assert np.max(err) < 0.1


def test_fd_outlet_monotone_and_bounded(semi_run):
    _, series, _ = semi_run
    temps = np.asarray(series.outlet_temperatures)
    assert np.all(np.diff(temps) <= 1e-9)
    assert np.all(temps <= 300.0 + 1e-9)
    assert np.all(temps >= 65.0 - 1e-9)


def test_fd_snapshot_layout(semi_run):
    grid, _, details = semi_run
    assert details.n_steps == 300
    assert len(details.snapshots) == 1
    snap = details.snapshots[0]
    assert snap.time == pytest.approx(10.0 * YR, rel=1e-12)
    assert snap.x.shape == (grid.nx + 1,)
    assert snap.y.shape == (grid.ny + 1,)
    assert snap.temperatures.shape == (grid.ny + 1, grid.nx + 1)
    # max principle over the whole captured field
    assert snap.temperatures.min() >= 65.0 - 1e-9
    assert snap.temperatures.max() <= 300.0 + 1e-9
    # the fluid warms monotonically along the fracture
    assert np.all(np.diff(snap.temperatures[0, :]) >= -1e-12)


def test_fd_snapshot_matches_quadrature_rock_field(semi_run, valles_single):
    _, _, details = semi_run
    snap = details.snapshots[0]
    outlet_profile = snap.temperatures[:, -1]
    for y in (0.5, 2.0, 5.0, 10.0):
        fd = float(np.interp(y, snap.y, outlet_profile))
        exact = rock_temp(y, 10.0 * YR, valles_single, L)
        assert fd == pytest.approx(exact, abs=0.5)


def test_fd_semi_infinite_has_no_energy_ledger(semi_run):
    _, _, details = semi_run
    assert details.rock_heat_loss_J is None
    assert details.energy_imbalance is None
    assert details.fluid_enthalpy_J > 0.0


def test_fd_near_degenerate_span_is_stable(valles_single):
    tiny = dataclasses.replace(
        valles_single,
        fluid=dataclasses.replace(valles_single.fluid, injection_temperature=299.999),
    )
    grid = semi_infinite_grid(tiny, nx=16, ny=16, n_steps=100)
    series = fd_simulate(tiny, grid, np.array([10.0, 50.0]) * YR)
    temps = np.asarray(series.outlet_temperatures)
    assert np.all(temps >= 299.999 - 1e-9)
    assert np.all(temps <= 300.0 + 1e-9)


def test_fd_detects_contaminated_far_boundary(valles_single):
    # 5 m of rock cannot impersonate a half-space for ten years
    grid = OracleGrid(y_max=5.0, dt=50.0 * YR / 300.0, nx=16, ny=16)
    with pytest.raises(RuntimeError) as err:
        fd_simulate(valles_single, grid, [10.0 * YR])
    msg = str(err.value)
    assert "far boundary" in msg and "y_max" in msg


def test_fd_slab_matches_reference_inversion(slab_run):
    _, series, _ = slab_run
    err = np.abs(np.asarray(series.outlet_temperatures) - SLAB_REFERENCE)
    assert np.max(err) < 0.5


def test_fd_slab_vs_forecast_engine(slab_run, valles):
    # the engine carries its own inversion error near the knee; two
    # percent of span covers both methods comfortably
    _, series, _ = slab_run
    engine = multi_fracture_forecast(valles, SLAB_PROBES).outlet_temperatures
    gap = np.abs(np.asarray(series.outlet_temperatures) - np.asarray(engine))
    assert np.max(gap) < 0.02 * 235.0


def test_fd_slab_energy_balance(slab_run):
    _, _, details = slab_run
    assert details.rock_heat_loss_J is not None
    assert details.energy_imbalance < 1e-4
    assert details.max_sweeps == 1


def _direct_theta_scheme(sc, grid, n_steps):
    """The oracle's discrete scheme solved as one dense system per step.

    Unknowns are every node of every x-station, the face node doubling as
    the fluid. Rows: the inlet temperature, the trapezoid fluid march driven
    by the one-sided face gradient, the pinned far node (Dirichlet mode) and
    the theta-weighted 3-point conduction step everywhere else. Returns the
    outlet after each step and the final field, shape (ny + 1, nx + 1).
    """
    y = grid.y_nodes()
    ny, nx = grid.ny, grid.nx
    t_hot = sc.rock.initial_temperature
    a = thermal_diffusivity(sc.rock) * grid.dt
    fr = sc.fractures
    half_march = (
        fr.flow_length / nx / 2.0 * fr.faces * sc.rock.conductivity
        / (sc.fluid.density * sc.fluid.specific_heat * fracture_velocity(sc) * fr.aperture)
    )
    pinned = grid.bc_far == "dirichlet_T0"

    lap = np.zeros((ny + 1, ny + 1))
    for j in range(1, ny):
        hm, hp = y[j] - y[j - 1], y[j + 1] - y[j]
        lap[j, j - 1] = 2.0 / (hm * (hm + hp))
        lap[j, j + 1] = 2.0 / (hp * (hm + hp))
        lap[j, j] = -lap[j, j - 1] - lap[j, j + 1]
    if not pinned:  # mirror node across the midplane
        h = y[ny] - y[ny - 1]
        lap[ny, ny - 1] = 2.0 / h**2
        lap[ny, ny] = -2.0 / h**2
    h1, h2 = y[1] - y[0], y[2] - y[1]
    grad = np.array(
        [-(2 * h1 + h2) / (h1 * (h1 + h2)), (h1 + h2) / (h1 * h2), -h1 / (h2 * (h1 + h2))]
    )

    size = (nx + 1) * (ny + 1)
    faces = np.arange(nx + 1) * (ny + 1)

    def system(theta):
        blocks = np.kron(np.eye(nx + 1), lap)
        lhs = np.eye(size) - theta * a * blocks
        rhs = np.eye(size) + (1.0 - theta) * a * blocks
        lhs[faces] = 0.0
        rhs[faces] = 0.0
        lhs[faces, faces] = 1.0
        for face in faces[1:]:
            prev = face - (ny + 1)
            lhs[face, prev] = -1.0
            lhs[face, face : face + 3] -= half_march * grad
            lhs[face, prev : prev + 3] -= half_march * grad
        if pinned:
            lhs[faces + ny] = 0.0
            rhs[faces + ny] = 0.0
            lhs[faces + ny, faces + ny] = 1.0
        return lhs, rhs

    systems = {theta: system(theta) for theta in (1.0, 0.5)}
    field = np.full(size, t_hot)
    outlets = [t_hot]
    for step in range(1, n_steps + 1):
        lhs, rhs = systems[1.0 if step <= 2 else 0.5]
        b = rhs @ field
        b[0] = sc.fluid.injection_temperature
        if pinned:
            b[faces + ny] = t_hot
        field = np.linalg.solve(lhs, b)
        outlets.append(field[faces[-1]])
    return np.array(outlets), field.reshape(nx + 1, ny + 1).T


@pytest.mark.parametrize(
    "scenario,factory",
    [("valles_single", semi_infinite_grid), ("valles", slab_grid)],
    ids=["dirichlet_T0", "neumann_zero"],
)
def test_fd_matches_direct_theta_scheme(scenario, factory, request):
    sc = request.getfixturevalue(scenario)
    n_steps = 100
    grid = factory(sc, nx=16, ny=32, n_steps=n_steps)
    outlets, field = _direct_theta_scheme(sc, grid, n_steps)
    steps = np.array([1, 2, 3, 10, 37, 100])
    series, details = fd_simulate(
        sc, grid, steps * grid.dt, snapshot_times=[n_steps * grid.dt], return_details=True
    )
    assert np.max(np.abs(series.outlet_temperatures - outlets[steps])) < 1e-9
    assert np.max(np.abs(details.snapshots[0].temperatures - field)) < 1e-9
    assert details.max_sweeps == 1


def test_convergence_study_rejects_single_level(valles_single):
    base = semi_infinite_grid(valles_single, nx=16, ny=16, n_steps=100)
    with pytest.raises(ValueError):
        convergence_study(valles_single, base, levels=1)


def test_convergence_study_is_second_order(valles_single):
    base = dataclasses.replace(
        semi_infinite_grid(valles_single, nx=24, ny=48, n_steps=250), ratio=1.05
    )
    study = convergence_study(valles_single, base, levels=3)
    assert [f for f, _ in study.rows] == [1, 2, 4]
    errors = [e for _, e in study.rows]
    assert errors == pytest.approx([0.4646222511852329, 0.10922394246659906,
                                    0.027673136798597398], rel=1e-3)
    assert study.observed_order == pytest.approx(1.9807310469741931, abs=0.05)
    assert study.observed_order >= 1.5
