"""Finite-difference reference solver, pinned by what it computes.

- the written-out step ladder: a dense theta-scheme built here on it,
  matched step by step and field by field on small grids, and the steps a
  run takes to its latest time;
- agreement with the closed forms and the frozen slab inversion, on small
  and on default grids, and with itself at nx 200, 600 and 800;
- the refusals: bad grids, probes and scenarios, the step cap, a first cell
  the front never reaches, an oscillating fluid march, a y-grid the basis
  cannot resolve, a contaminated far boundary;
- two checks of the cached y-basis itself: it matches each grid's own
  decomposition, and it is read-only and bounded.
"""

import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, lu_factor, lu_solve

import egstherm.oracle
from egstherm.analytic import ForecastSeries, fluid_temp_single, rock_temp
from egstherm.laplace import multi_fracture_forecast
from egstherm.oracle import (
    _BLOCK,
    OracleGrid,
    _modes,
    convergence_study,
    fd_simulate,
    semi_infinite_grid,
    slab_grid,
)
from egstherm.scenario import (
    ScenarioError,
    collapse_to_single,
    fracture_velocity,
    thermal_diffusivity,
)
from egstherm.units import SECONDS_PER_YEAR as YR


L = 999.744
PROBES = np.array([10.0, 30.0, 50.0]) * YR
SLAB_PROBES = np.array([10.0, 25.0, 50.0]) * YR

# Independent high-accuracy inversion of the slab transform, frozen.
SLAB_REFERENCE = np.array([299.90498, 289.58746, 206.14872])

# the step ladder written out to its first step at the cap, in multiples of
# grid.dt: 64 steps of 1, 64 of 2, 64 of 4, then 8. The first two steps and
# the first step of each longer rung are backward Euler, the rest
# Crank-Nicolson.
MULTIPLES = np.array([1] * 64 + [2] * 64 + [4] * 64 + [8])
THETAS = np.array([1.0] * 2 + [0.5] * 62 + ([1.0] + [0.5] * 63) * 2 + [1.0])
ENDS = np.concatenate([[0], np.cumsum(MULTIPLES)])  # step end times over grid.dt


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
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match=rf"^y_max must be a finite number > 0, got {bad}$"):
            OracleGrid(y_max=bad, dt=1.0)
        with pytest.raises(ValueError, match=rf"^dt must be a finite number > 0, got {bad}$"):
            OracleGrid(y_max=10.0, dt=bad)


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
    assert (short.ratio, short.dt) == (1.05, 12.5 * YR / 2400)
    assert semi_infinite_grid(valles_single, y_max=50.0).y_max == 50.0
    slab = slab_grid(valles)
    assert slab.y_max == 20.0  # half the 40 m spacing
    assert slab.bc_far == "neumann_zero"
    short_slab = slab_grid(valles, ratio=1.05, horizon=12.5 * YR)
    assert (short_slab.y_max, short_slab.ratio, short_slab.dt) == (20.0, 1.05, 12.5 * YR / 2400)
    with pytest.raises(ValueError):
        slab_grid(valles_single)  # no spacing to halve
    for bad in (0, -5, 2.5):
        with pytest.raises(ValueError, match=r"^n_steps must be an integer >= 1, got"):
            semi_infinite_grid(valles_single, n_steps=bad)
        with pytest.raises(ValueError, match=r"^n_steps must be an integer >= 1, got"):
            slab_grid(valles, n_steps=bad)


@pytest.mark.parametrize("site", ["valles", "zeinali"])
def test_slab_grid_is_the_semi_infinite_grid_ended_at_the_midplane(site, request):
    sc = request.getfixturevalue(site)
    semi = semi_infinite_grid(sc, 40, 80, 400, 1.05, 12.5 * YR, y_max=sc.fractures.spacing / 2)
    assert slab_grid(sc, 40, 80, 400, 1.05, 12.5 * YR) == dataclasses.replace(
        semi, bc_far="neumann_zero"
    )


def test_fd_rejects_bad_probes(valles_single):
    grid = semi_infinite_grid(valles_single, nx=16, ny=16, n_steps=100)
    with pytest.raises(ValueError):
        fd_simulate(valles_single, grid, [0.0])
    with pytest.raises(ValueError):
        fd_simulate(valles_single, grid, [-1.0])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match=rf"^probe times must be finite, got {bad}$"):
            fd_simulate(valles_single, grid, [YR, bad])
        with pytest.raises(ValueError, match=rf"^snapshot times must be finite, got {bad}$"):
            fd_simulate(valles_single, grid, [YR], snapshot_times=[bad])


def test_fd_checks_its_times_before_any_step(valles_single, monkeypatch):
    # probe times obey the series' time rule and snapshot times must be 1-D,
    # both checked before the first step
    grid = semi_infinite_grid(valles_single, nx=16, ny=16, n_steps=100)
    monkeypatch.setattr("egstherm.oracle._march_scan", lambda *_: pytest.fail("stepped"))
    with pytest.raises(ValueError, match="^times must be strictly increasing$"):
        fd_simulate(valles_single, grid, [2.0 * YR, YR])
    with pytest.raises(ValueError, match="^times must be a one-dimensional sequence of seconds$"):
        fd_simulate(valles_single, grid, [[YR, 2.0 * YR]])
    for bad in (3e8, [[1e8, 2e8]]):
        with pytest.raises(ValueError, match=(
            "^snapshot times must be a one-dimensional sequence of seconds$"
        )):
            fd_simulate(valles_single, grid, [YR], snapshot_times=bad)


def _outlet_deviation_set_to(monkeypatch, deviation):
    """Make every fluid scan end with the outlet at T0 + deviation."""
    real = egstherm.oracle._march_scan

    def scan(*args):
        fluid = real(*args)

        def fixed(leads, start, out):
            fluid(leads, start, out)
            out[:, -1] = deviation

        return fixed

    monkeypatch.setattr("egstherm.oracle._march_scan", scan)


@pytest.mark.parametrize("deviation", [0.5e-9 * 235.0, -235.5, 2e-9 * 235.0, np.nan],
                         ids=["within-slack", "below-T_inj", "beyond-slack", "nan"])
def test_fd_outlet_band_is_the_series_band(valles_single, monkeypatch, deviation):
    # an outlet within ForecastSeries' slack of [T_inj, T0] is returned as
    # it is; one beyond it, or NaN, is refused by the oracle with its grid
    grid = semi_infinite_grid(valles_single, nx=16, ny=16, n_steps=100)
    _outlet_deviation_set_to(monkeypatch, deviation)
    probes = [10.0 * YR, 20.0 * YR]
    if deviation == 0.5e-9 * 235.0:
        series = fd_simulate(valles_single, grid, probes)
        assert np.all(series.outlet_temperatures == 300.0 + deviation)
        return
    with pytest.raises(ValueError, match=(
        r"^the oracle outlet at t=3\.1536e\+08 s is \S+ C, \S+ C outside \[T_inj, T0\] = "
        r"\[65, 300\] C: the scheme rings past them on the grid nx=16, ny=16, "
    )) as err:
        fd_simulate(valles_single, grid, probes)
    if deviation != deviation:
        assert " is nan C, nan C outside " in str(err.value)


def test_fd_refuses_more_steps_than_the_cap(valles_single):
    # refused before the step ladder is allocated: at 1e12 yr it would take
    # about a terabyte, at 1e300 yr NumPy could not size it at all
    grid = semi_infinite_grid(valles_single, nx=16, ny=16, n_steps=100)
    cap = "beyond the cap of 1000000; shorten the run or lengthen the first step"
    for years in (1e12, 1e300):
        latest = re.escape(f"the latest probe time, {years * YR:.6g} s, takes ")
        with pytest.raises(ValueError, match=rf"^{latest}.*{cap}"):
            fd_simulate(valles_single, grid, [YR, years * YR])
    with pytest.raises(ValueError, match=rf"^the latest snapshot time, .*{cap}"):
        fd_simulate(valles_single, grid, [YR], snapshot_times=[1e8 * YR])
    # a first step so short that the count itself overflows
    tiny = dataclasses.replace(grid, dt=5e-324)
    with pytest.raises(ValueError, match=rf" takes inf oracle steps .*{cap}"):
        fd_simulate(valles_single, tiny, [YR])


def test_fd_cap_counts_the_steps_the_run_takes(valles_single, monkeypatch):
    # a default-grid run over the horizon takes 436 steps: a cap of 436 lets
    # it run, and one of 435 refuses it with that count
    grid = semi_infinite_grid(valles_single)
    horizon = valles_single.operating.horizon
    monkeypatch.setattr("egstherm.oracle._MAX_STEPS", 436)
    _, details = fd_simulate(valles_single, grid, [horizon], return_details=True)
    assert details.n_steps == 436
    monkeypatch.setattr("egstherm.oracle._MAX_STEPS", 435)
    with pytest.raises(ValueError, match=" takes 436 oracle steps .* beyond the cap of 435; "):
        fd_simulate(valles_single, grid, [horizon])


def test_fd_refuses_a_first_cell_the_front_never_reaches(valles, valles_single, monkeypatch):
    # a first y-cell wider than 5 sqrt(alpha t) at the run's last step end:
    # the inlet's half-space would cool its node by less than erfc(2.5) of
    # the span, so the face gradient never sees the front. Refused before
    # the gradient stencil and the eigendecomposition see the grid
    grid = semi_infinite_grid(valles_single, nx=16, ny=16, n_steps=60)
    horizon = valles_single.operating.horizon
    reach = 5.0 * np.sqrt(thermal_diffusivity(valles_single.rock) * horizon)
    edge = reach / dataclasses.replace(grid, y_max=1.0).y_nodes()[1]  # y_max with y[1] = reach
    over = dataclasses.replace(grid, y_max=1.01 * edge)
    spaced = dataclasses.replace(valles, fractures=dataclasses.replace(valles.fractures,
                                                                       spacing=1e6))
    wide = [
        (valles_single, over),
        (valles_single, dataclasses.replace(grid, y_max=1e300)),
        (spaced, slab_grid(spaced, nx=16, ny=16, n_steps=60)),
    ]
    with monkeypatch.context() as patched:
        for name in ("_gradient_stencil", "_modes"):
            patched.setattr(f"egstherm.oracle.{name}", lambda *_, name=name: pytest.fail(name))
        for sc, wide_grid in wide:
            first = re.escape(f"the first rock cell, {wide_grid.y_nodes()[1]:.6g} m, is wider ")
            with pytest.raises(ValueError, match=rf"^{first}.* \({reach:.6g} m, 5 sqrt"):
                fd_simulate(sc, wide_grid, [horizon])
        # a run that asks only for a time before the first step's end, or
        # for nothing, takes that step, and its grid is checked there
        early = 5.0 * np.sqrt(thermal_diffusivity(valles_single.rock) * grid.dt)
        first = re.escape(f"the first rock cell, {over.y_nodes()[1]:.6g} m, is wider ")
        by = re.escape(f"by t={grid.dt:.6g} s ({early:.6g} m, 5 sqrt")
        for probes, snapshots in (([1e-20 * YR], ()), ([], ()), ([], [1e-20 * YR])):
            with pytest.raises(ValueError, match=rf"^{first}.*{by}"):
                fd_simulate(valles_single, over, probes, snapshot_times=snapshots)
    # just inside the rule the run goes ahead
    inside = dataclasses.replace(grid, y_max=0.99 * edge)
    assert np.all(np.isfinite(fd_simulate(valles_single, inside, [horizon]).outlet_temperatures))


def test_fd_probe_before_the_first_step_reads_t0(valles, valles_single):
    # a time short of the first step's end still takes that step: a probe
    # there is interpolated from T0 at t = 0 (exactly T0 at 1e-20 yr), and a
    # snapshot there is taken at the step's end, with or without a later probe
    t0 = valles_single.rock.initial_temperature
    runs = [
        (valles_single, semi_infinite_grid(valles_single, nx=16, ny=16, n_steps=60)),
        (valles, slab_grid(valles, nx=16, ny=16, n_steps=60)),
    ]
    for sc, grid in runs:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series, details = fd_simulate(
                sc, grid, [1e-20 * YR, 2e-20 * YR], snapshot_times=[1e-20 * YR],
                return_details=True,
            )
            plain = fd_simulate(sc, grid, [1e-20 * YR])
            alone = fd_simulate(sc, grid, [], snapshot_times=[1e-20 * YR])
            later = fd_simulate(sc, grid, [YR], snapshot_times=[1e-20 * YR])
        assert series.model == "oracle" and series.outlet_temperatures.tolist() == [t0, t0]
        assert plain.outlet_temperatures.tolist() == [t0]
        assert details.n_steps == 1
        assert alone[0].times.size == 0 and alone[1].n_steps == 1
        assert later[1].n_steps == 2
        for _, run_details in (alone, later, (series, details)):
            (snapshot,) = run_details.snapshots
            assert snapshot.time == grid.dt
            # a shorter run reproduces the first step of a longer one exactly
            assert np.array_equal(snapshot.temperatures, later[1].snapshots[0].temperatures)


def test_fd_refuses_oscillating_fluid_march(valles):
    # at nx = 50 both fluid march gains (1+q)/(1-q) are negative (-0.047 at
    # theta = 1, -0.22 at theta = 1/2): the outlet would oscillate along x
    coarse = slab_grid(valles, nx=50)
    with pytest.raises(ValueError) as err:
        fd_simulate(valles, coarse, [coarse.dt])
    assert "nx=50" in str(err.value) and "too coarse along x" in str(err.value)
    fine = slab_grid(valles, nx=100)
    series = fd_simulate(valles, fine, [10.0 * fine.dt])
    assert np.all(np.isfinite(series.outlet_temperatures))


def test_fd_refuses_a_y_grid_its_basis_cannot_resolve(valles, monkeypatch):
    # at the default ratio the y-basis refinement converges through ny 560;
    # at ny 580 (span 1.025^580 = 1.7e6) its third step is still about 1e-2
    # off, and the grid is refused by name before any step
    over = slab_grid(valles, ny=580)
    first = over.y_nodes()[1]
    with monkeypatch.context() as patched:
        patched.setattr("egstherm.oracle._march_scan", lambda *_: pytest.fail("stepped"))
        with pytest.raises(ValueError, match=re.escape(
            f"the y-grid of ny=580 cells at stretching ratio 1.025 spans ratio^ny = 1.66e+06 "
            f"from a first rock cell of {first:.3g} m: its eigenbasis still fails its own check "
            "after 3 refinement steps, so the grid is too strongly graded to solve; lower ny "
            "or the ratio")):
            fd_simulate(valles, over, [valles.operating.horizon])
    graded = slab_grid(valles, ny=500)
    assert np.all(np.isfinite(fd_simulate(valles, graded, [10.0 * graded.dt]).outlet_temperatures))


def test_fd_rejects_invalid_scenario(valles_single):
    grid = semi_infinite_grid(valles_single, nx=16, ny=16, n_steps=100)
    bad = dataclasses.replace(
        valles_single,
        operating=dataclasses.replace(valles_single.operating, total_rate=0.0),
    )
    with pytest.raises(ScenarioError) as err:
        fd_simulate(bad, grid, [YR])
    assert str(err.value) == "invalid scenario: operating.total_rate must be > 0, got 0.0"


def test_fd_matches_closed_form_on_coarse_grid(semi_run, valles_single):
    _, series, _ = semi_run
    assert series.model == "oracle"
    reference = fluid_temp_single(valles_single, L, PROBES)
    err = np.abs(np.asarray(series.outlet_temperatures) - reference)
    # 0.024 C measured at this resolution; budget leaves headroom only
    assert np.max(err) < 0.1


def test_fd_outlet_monotone_and_bounded(semi_run):
    _, series, _ = semi_run
    temps = np.asarray(series.outlet_temperatures)
    assert np.all(np.diff(temps) <= 1e-9)
    assert np.all(temps <= 300.0 + 1e-9)
    assert np.all(temps >= 65.0 - 1e-9)


def test_fd_snapshot_layout(semi_run):
    grid, _, details = semi_run
    # 300 dt: 64 steps of dt, 64 of 2 dt, then 27 of 4 dt
    assert details.n_steps == 155
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


def _block_end(step):
    """The step that ends the oracle block holding `step` (1-based) on the
    ladder: blocks end where theta or the step size changes, and after two
    damped or _BLOCK Crank-Nicolson steps of one run."""
    end = 0
    while end < step:
        start = end
        end += 2 if THETAS[start] == 1.0 else _BLOCK
        same = (THETAS[start:end] == THETAS[start]) & (MULTIPLES[start:end] == MULTIPLES[start])
        end = start + int(np.argmin(np.append(same, False)))
    return end


def _beside_y_max(sc, grid, n_steps):
    """The dense theta-scheme's largest deviation at the node beside y_max,
    after each of the first n_steps steps."""
    fields = _direct_theta_scheme(sc, grid, MULTIPLES[:n_steps] * grid.dt, THETAS)
    t_hot = sc.rock.initial_temperature
    return np.max(np.abs(fields[1:, grid.ny - 1] - t_hot), axis=1)


def test_fd_detects_contaminated_far_boundary(valles_single):
    # 5 m of rock cannot impersonate a half-space for ten years; the front
    # disturbs y_max at step 1 of the long step, at step 57, inside a block,
    # of the short one and at step 89, on the second rung, of the shortest.
    # The oracle reads the node beside y_max at each block's end and names
    # the end of the block that holds the first step past 0.1 C
    for dt in (50.0 * YR / 300.0, YR / 2000.0, YR / 4000.0):
        grid = OracleGrid(y_max=5.0, dt=dt, nx=16, ny=16)
        with pytest.raises(RuntimeError) as err:
            fd_simulate(valles_single, grid, [10.0 * YR])
        msg = str(err.value)
        assert "far boundary" in msg and "y_max" in msg
        beside = _beside_y_max(valles_single, grid, 100)
        first = int(np.argmax(beside > 0.1)) + 1
        assert first in (1, 57, 89)
        assert f" by t={ENDS[_block_end(first)] * grid.dt:.6g} s " in msg
        if dt == 50.0 * YR / 300.0:
            # the long first step rings: the node beside y_max is not
            # monotone (it dips 0.16 C on a 17 C deviation), so a check at
            # the end of the run alone could miss a crossing; each block
            # end is checked
            assert beside.max() > 17.0 and np.min(np.diff(beside)) < -0.15


# (first steps per horizon, steps, y_max in m refused, y_max accepted): pairs
# on either side of the 0.1 C limit; the run ends inside a damped block, on
# a block edge or inside a Crank-Nicolson block, on every rung
FAR_BOUNDARY_PAIRS = [
    (10, 2, 110, 130), (30, 2, 66, 75), (30, 34, 200, 230), (100, 64, 160, 180),
    (100, 150, 325, 360), (300, 64, 92, 104), (300, 150, 194, 215), (1000, 34, 37, 42),
    (1000, 193, 130, 145), (3000, 34, 22, 24),
]


@pytest.mark.parametrize(
    "per_horizon,n_steps,y_max,refused",
    [
        (per, n, y_max, refused)
        for per, n, *sides in FAR_BOUNDARY_PAIRS
        for y_max, refused in zip(sides, (True, False))
    ],
)
def test_fd_far_boundary_refusal_follows_the_direct_scheme(
    valles_single, per_horizon, n_steps, y_max, refused
):
    # refused exactly when the dense scheme's node beside y_max passes
    # 0.1 C at some step of the run, by the end of that step's block (or
    # the run's end, which cuts the last block short)
    grid = OracleGrid(
        y_max=float(y_max), dt=valles_single.operating.horizon / per_horizon, nx=16, ny=16
    )
    beside = _beside_y_max(valles_single, grid, n_steps)
    assert (beside.max() > 0.1) == refused
    assert not 0.09 < beside.max() < 0.11  # clear of the limit
    probe = [ENDS[n_steps] * grid.dt]
    if refused:
        first = int(np.argmax(beside > 0.1)) + 1
        end = min(_block_end(first), n_steps)
        with pytest.raises(RuntimeError, match=re.escape(f" by t={ENDS[end] * grid.dt:.6g} s ")):
            fd_simulate(valles_single, grid, probe)
    else:
        assert np.all(np.isfinite(fd_simulate(valles_single, grid, probe).outlet_temperatures))


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


@pytest.mark.parametrize("site", ["valles", "zeinali"])
def test_fd_default_semi_infinite_grid_error(site, request):
    # the default grid's largest error is the start-up transient near
    # horizon/100: 0.1070 C (valles_caldera) and 0.1027 C (zeinali) at
    # nx = 100, against 0.1071 and 0.1028 C at nx = 200, and 0.145 and
    # 0.139 C on the former 400 y-cells, ratio 1.02, first step horizon/2000
    sc = collapse_to_single(request.getfixturevalue(site), faces=1)
    horizon = sc.operating.horizon
    probes = np.geomspace(horizon / 100.0, horizon, 256)
    series = fd_simulate(sc, semi_infinite_grid(sc), probes)
    reference = fluid_temp_single(sc, sc.fractures.flow_length, probes)
    assert np.max(np.abs(series.outlet_temperatures - reference)) < 0.11


@pytest.mark.parametrize("faces", [1, 2], ids=["single", "gringarten_ref"])
@pytest.mark.parametrize("site", ["valles", "zeinali"])
def test_fd_default_semi_infinite_nx_holds_the_x_part(site, faces, request):
    # the default grid against itself at nx = 200, at the probes above:
    # 1.6e-4 and 1.5e-4 C one-faced (valles_caldera, zeinali), 2.0e-3 and
    # 7.6e-4 C two-faced, against totals of 0.05-0.11 C. nx = 600 and 800
    # take the fluid scan's doubling levels of offset 256 and 512, which
    # nx = 200 does not: 4.5e-5 to 6.3e-4 C from it
    sc = collapse_to_single(request.getfixturevalue(site), faces=faces)
    horizon = sc.operating.horizon
    probes = np.geomspace(horizon / 100.0, horizon, 256)
    grid = semi_infinite_grid(sc)

    def outlets(nx):
        return fd_simulate(sc, dataclasses.replace(grid, nx=nx), probes).outlet_temperatures

    fine = outlets(200)
    assert np.max(np.abs(outlets(grid.nx) - fine)) < 0.003
    for nx in (600, 800):
        assert np.max(np.abs(outlets(nx) - fine)) < 0.003, nx


def test_fd_default_slab_grid_error(valles):
    # 0.00097 C measured at these probes, at 25 yr (0.00086 C on the former
    # grid); the largest error at 48 log probes from horizon/100 fell from
    # 0.0017 to 0.00093 C
    series = fd_simulate(valles, slab_grid(valles), SLAB_PROBES)
    assert np.max(np.abs(series.outlet_temperatures - SLAB_REFERENCE)) < 0.002


def test_fd_default_runs_keep_one_block_alive(valles, valles_single):
    # traced peak of a run over the horizon, basis warm: 1.16 MiB (slab) and
    # 0.70 MiB (semi-infinite) with one (theta, step size) block alive at a
    # time and the fluid solved along x by a scan, 3.94 and 1.75 MiB when all
    # eight blocks were kept to the run's end. At nx = 800 the scan's run
    # peaks at 3.7 MiB, against 13.1 MiB when each block built the dense
    # (nx + 1)^2 march, which alone is 801^2 * 8 B = 5.1 MB
    for sc, grid, limit in ((valles, slab_grid(valles), 2.5),
                            (valles_single, semi_infinite_grid(valles_single), 1.25),
                            (valles_single, semi_infinite_grid(valles_single, nx=800), 6.0)):
        fd_simulate(sc, grid, [grid.dt])
        tracemalloc.start()
        try:
            fd_simulate(sc, grid, [sc.operating.horizon])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit * 2**20, (grid.bc_far, grid.nx, peak)


def test_fd_slab_energy_balance(slab_run):
    _, _, details = slab_run
    assert details.rock_heat_loss_J is not None
    assert details.energy_imbalance < 1e-4
    # one solve per step; perfbench's oracle worker reads the attribute
    assert details.max_sweeps == 1


def _direct_theta_scheme(sc, grid, dts, thetas):
    """The oracle's discrete scheme solved as one dense system per step.

    Unknowns are every node of every x-station, the face node doubling as
    the fluid. Rows: the inlet temperature, the trapezoid fluid march driven
    by the one-sided face gradient, the pinned far node (Dirichlet mode) and
    the theta-weighted 3-point conduction step everywhere else. Step k
    takes dts[k] with thetas[k]; the system of each (theta, length) is
    LU-factored once. Returns the field before the first step and after each step,
    shape (len(dts) + 1, ny + 1, nx + 1); the outlet is [:, 0, nx].
    """
    y = grid.y_nodes()
    ny, nx = grid.ny, grid.nx
    t_hot = sc.rock.initial_temperature
    alpha = thermal_diffusivity(sc.rock)
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

    def system(theta, dt):
        blocks = np.kron(np.eye(nx + 1), lap)
        lhs = np.eye(size) - theta * alpha * dt * blocks
        rhs = np.eye(size) + (1.0 - theta) * alpha * dt * blocks
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

    systems = {}
    fields = [np.full(size, t_hot)]
    for dt, theta in zip(dts, thetas):
        key = (theta, dt)
        if key not in systems:
            lhs, rhs = system(*key)
            systems[key] = lu_factor(lhs), rhs
        lu, rhs = systems[key]
        b = rhs @ fields[-1]
        b[0] = sc.fluid.injection_temperature
        if pinned:
            b[faces + ny] = t_hot
        fields.append(lu_solve(lu, b))
    return np.array(fields).reshape(len(dts) + 1, nx + 1, ny + 1).transpose(0, 2, 1)


# first steps per grid: the slab's fluid march at nx = 16 needs the long
# first step of 100 per horizon, and the half-space the short one of 512 so
# that the front stays clear of y_max up to step 193
MODES = pytest.mark.parametrize(
    "scenario,factory,per_horizon",
    [("valles_single", semi_infinite_grid, 512), ("valles", slab_grid, 100)],
    ids=["dirichlet_T0", "neumann_zero"],
)

# step counts on either side of the block edges (after steps 2, 2 + B, ...)
# and the rung edges (after steps 64, 128, 192), and snapshot steps inside
# blocks of every rung
EDGE_STEPS = (1, 2, 3, _BLOCK + 1, _BLOCK + 2, _BLOCK + 3, 64, 65, 66, 100, 128, 129, 192, 193)
INNER_SNAPSHOTS = (3, 37, 61, 65, 100, 129, 150, 193)


@MODES
def test_fd_matches_direct_theta_scheme(scenario, factory, per_horizon, request):
    sc = request.getfixturevalue(scenario)
    grid = factory(sc, nx=16, ny=32, n_steps=per_horizon)
    fields = _direct_theta_scheme(sc, grid, MULTIPLES * grid.dt, THETAS)
    for n_steps in EDGE_STEPS:
        steps = np.arange(1, n_steps + 1)
        snaps = [s for s in INNER_SNAPSHOTS if s < n_steps] + [n_steps]
        series, details = fd_simulate(
            sc, grid, ENDS[steps] * grid.dt, snapshot_times=ENDS[snaps] * grid.dt,
            return_details=True,
        )
        assert details.n_steps == n_steps
        assert np.max(np.abs(series.outlet_temperatures - fields[steps, 0, -1])) < 1e-9
        assert [snap.time for snap in details.snapshots] == [ENDS[s] * grid.dt for s in snaps]
        for s, snap in zip(snaps, details.snapshots):
            assert np.max(np.abs(snap.temperatures - fields[s])) < 1e-9


@MODES
def test_fd_outlets_do_not_depend_on_the_request(scenario, factory, per_horizon, request):
    # block edges follow the step index alone: asking for snapshots or
    # details, or stopping early, leaves every outlet bit for bit
    sc = request.getfixturevalue(scenario)
    grid = factory(sc, nx=16, ny=32, n_steps=per_horizon)
    ends = ENDS[1:] * grid.dt
    full = fd_simulate(sc, grid, ends).outlet_temperatures
    for n_steps in EDGE_STEPS:
        probes = ends[:n_steps]
        plain = fd_simulate(sc, grid, probes).outlet_temperatures
        assert np.array_equal(plain, full[:n_steps])
        detailed, _ = fd_simulate(
            sc, grid, probes, snapshot_times=ENDS[list(INNER_SNAPSHOTS)] * grid.dt,
            return_details=True,
        )
        assert np.array_equal(detailed.outlet_temperatures, plain)
        assert np.array_equal(fd_simulate(sc, grid, probes, return_details=True)[0]
                              .outlet_temperatures, plain)


def test_fd_takes_the_ladders_steps_to_the_latest_time(valles_single):
    # a run takes the written-out ladder's steps up to the first whose end
    # reaches its latest time: a time a quarter into that step, or within
    # 1e-13 grid.dt of its end (rounding), takes it and no more, and one
    # 1e-11 grid.dt past its end takes the next step too
    grid = semi_infinite_grid(valles_single, nx=16)
    for n in EDGE_STEPS:
        quarter = ENDS[n - 1] + MULTIPLES[n - 1] / 4
        for units, steps in ((quarter, n), (ENDS[n] - 1e-13, n), (ENDS[n] + 1e-13, n),
                             (ENDS[n] + 1e-11, n + 1)):
            _, details = fd_simulate(valles_single, grid, [units * grid.dt], return_details=True)
            assert details.n_steps == steps, units


def _direct_modes(y, pinned):
    """Eigenpairs of the symmetrized interior 3-point Laplacian on the nodes
    y themselves, by LAPACK's tridiagonal MRRR solver (stemr), with the
    square-rooted trapezoid weights of the unknown nodes."""
    h = np.diff(y)
    s_diag = -(1.0 / h[:-1] + 1.0 / h[1:])
    if not pinned:
        s_diag = np.append(s_diag, -1.0 / h[-1])
    m = s_diag.size
    root_w = np.sqrt((np.append(h, 0.0) + np.append(0.0, h))[1 : m + 1] / 2.0)
    lam, vectors = eigh_tridiagonal(
        s_diag / root_w**2, 1.0 / h[1:m] / (root_w[:-1] * root_w[1:]), lapack_driver="stemr"
    )
    return lam, vectors, root_w


@pytest.fixture
def cold_basis():
    """An empty basis cache, whose misses count the basis solves."""
    _modes.cache_clear()
    yield
    _modes.cache_clear()


def test_fd_one_eigensolve_serves_both_sites_slab_grids(valles, zeinali, cold_basis):
    # the two default slab grids differ only in y_max (20 m and 19.81 m): the
    # unit-depth basis of their shape is solved once and scaled for each
    for sc in (valles, zeinali):
        grid = slab_grid(sc)
        assert np.all(np.isfinite(fd_simulate(sc, grid, [10.0 * grid.dt]).outlet_temperatures))
    info = _modes.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_fd_outlets_are_the_same_from_a_cold_or_warm_basis(valles, valles_single, cold_basis):
    # a cache miss and a hit give bit-identical runs, with other shapes
    # interleaved and past the cache's size, so the first shape is evicted
    def run(sc, grid):
        series, details = fd_simulate(
            sc, grid, [YR, 10.0 * YR, 30.0 * YR], snapshot_times=[10.0 * YR], return_details=True
        )
        return series.outlet_temperatures, details.snapshots[0].temperatures, details

    slab = slab_grid(valles, nx=16, ny=32, n_steps=100)
    semi = semi_infinite_grid(valles_single, nx=16, ny=32, n_steps=300)
    cold_slab, cold_semi = run(valles, slab), run(valles_single, semi)
    others = [dataclasses.replace(slab, ny=ny) for ny in (16, 20, 24, 28)]
    for sc, grid, cold in [(valles, slab, cold_slab), (valles_single, semi, cold_semi)] * 2:
        for other in others:
            run(valles, other)
        for _ in range(2):
            outlets, snapshot, details = run(sc, grid)
            assert np.array_equal(outlets, cold[0]) and np.array_equal(snapshot, cold[1])
            assert (details.fluid_enthalpy_J, details.rock_heat_loss_J) == (
                cold[2].fluid_enthalpy_J, cold[2].rock_heat_loss_J)
    # each run asks for its basis once. Each of the two shapes was solved on
    # its first run and on each return after the others evicted it (3 + 3),
    # each other shape on all four passes (4 x 4); only the second run of a
    # shape in a row finds it (4)
    info = _modes.cache_info()
    assert (info.misses, info.hits) == (3 + 3 + 4 * 4, 4)


@pytest.mark.parametrize("site", ["valles", "zeinali"])
def test_fd_scaled_basis_matches_the_grids_own_decomposition(site, request):
    # the nodes are y_max times the unit-depth ones: the eigenvectors agree to
    # rounding, the eigenvalues scale by 1/y_max^2, the root-weights by sqrt(y_max).
    # On the graded shapes (spans 1.05^250 and 1.025^466, about 10^5) NumPy's
    # eigh alone is up to 4e-6 off: only the basis's refinement meets the bounds
    sc = request.getfixturevalue(site)
    slab, semi = slab_grid(sc), semi_infinite_grid(collapse_to_single(sc, faces=1))
    graded = [dataclasses.replace(grid, ny=250, ratio=1.05) for grid in (slab, semi)]
    for grid in (slab, semi, *graded, dataclasses.replace(slab, ny=466)):
        lam, vectors, root_w = _direct_modes(grid.y_nodes(), grid.bc_far == "dirichlet_T0")
        unit_lam, unit_vectors, unit_root_w = _modes(grid.ny, grid.ratio, grid.bc_far)
        scaled_lam = unit_lam / grid.y_max / grid.y_max
        assert np.max(np.abs(scaled_lam - lam) / np.abs(lam)) <= 3.2e-13
        assert np.max(np.abs(unit_root_w * np.sqrt(grid.y_max) - root_w) / root_w) <= 4.5e-15
        signs = np.sign(np.sum(vectors * unit_vectors, axis=0))
        assert np.max(np.abs(unit_vectors * signs - vectors)) <= 3.3e-14


def test_fd_cached_basis_is_read_only_and_bounded():
    try:
        for array in _modes(17, 1.05, "dirichlet_T0"):
            with pytest.raises(ValueError, match="read-only"):
                array[-1] = 0.0
        for ny in range(16, 26):
            _modes(ny, 1.05, "neumann_zero")
            info = _modes.cache_info()
            assert info.maxsize is not None and info.currsize <= info.maxsize
    finally:
        _modes.cache_clear()


def test_fd_snapshot_takes_the_nearest_step(valles_single):
    # a snapshot time between step ends goes to the nearer one: t / dt
    # rounded on the first rung, where step k ends at k dt, and likewise
    # by the fractional step index on the later ones (steps 129 and 130
    # are 4 dt long)
    grid = semi_infinite_grid(valles_single, nx=16, ny=16, n_steps=512)
    units = np.array([10.4, 10.6, ENDS[129] + 1.5, ENDS[129] + 2.5])
    _, details = fd_simulate(
        valles_single, grid, [grid.dt], snapshot_times=units * grid.dt, return_details=True
    )
    assert [snap.time for snap in details.snapshots] == [
        ENDS[s] * grid.dt for s in (10, 11, 129, 130)
    ]


@pytest.mark.parametrize("site", ["valles", "zeinali"])
def test_fd_slab_at_nx_100_runs_every_rung(site, request):
    # nx = 100 is accepted at the default first step (see the refusal test
    # above); the ladder's longer steps only raise the march gain, so the
    # run reaches the horizon through every rung
    sc = request.getfixturevalue(site)
    horizon = sc.operating.horizon
    series, details = fd_simulate(
        sc, slab_grid(sc, nx=100), [horizon / 100.0, horizon], return_details=True
    )
    assert details.n_steps == 64 * 3 + (2400 - 448) // 8
    assert np.all(np.isfinite(series.outlet_temperatures))
    assert details.energy_imbalance < 1e-6


@pytest.mark.parametrize("site", ["valles", "zeinali"])
def test_fd_drained_slab_outlet_decays_smoothly(site, request):
    # 5.12 horizons on a coarse slab: 8 steps into the cap the outlet is
    # 1.6e-5 C above injection and still falling. A change of step size
    # excites modes that Crank-Nicolson barely damps; without the damped
    # first step of each rung their ringing outlives the outlet's decay and
    # takes it below the injection temperature, which fd_simulate refuses
    sc = request.getfixturevalue(site)
    grid = slab_grid(sc, nx=16, ny=32, n_steps=100)
    series = fd_simulate(sc, grid, np.arange(1, 513) * grid.dt)
    outlets = series.outlet_temperatures
    assert np.all(np.diff(outlets) <= 0.0)
    assert outlets[-1] > sc.fluid.injection_temperature


def test_convergence_study_rejects_single_level(valles_single):
    base = semi_infinite_grid(valles_single, nx=16, ny=16, n_steps=100)
    with pytest.raises(ValueError):
        convergence_study(valles_single, base, levels=1)


def test_convergence_study_refuses_errors_that_do_not_shrink(valles_single, monkeypatch):
    # a stand-in oracle whose error grows with the refinement, 0.1 C per base nx
    base = semi_infinite_grid(valles_single, nx=16, ny=16, n_steps=100)

    def drifting(sc, grid, probe_times):
        reference = fluid_temp_single(sc, sc.fractures.flow_length, probe_times)
        outlets = reference - 0.1 * grid.nx / base.nx
        t_cold, t_hot = sc.fluid.injection_temperature, sc.rock.initial_temperature
        return ForecastSeries("oracle", probe_times, outlets, t_cold, t_hot)

    monkeypatch.setattr("egstherm.oracle.fd_simulate", drifting)
    with pytest.raises(ArithmeticError) as err:
        convergence_study(valles_single, base, levels=3)
    assert str(err.value) == (
        "refinement did not reduce the error monotonically: x1: 0.1 C, x2: 0.2 C, x4: 0.4 C"
    )


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
