"""Finite-difference conjugate heat-transfer solver: the desk-scale ground truth.

The analytical results are validated against this independent discretization
of the same physics: one-dimensional transient conduction into the rock at
every along-fracture station, coupled to a quasi-steady advective fluid
march through the face temperature (Dirichlet) and the face heat flux.

Numerical layout
----------------
* y (into the rock): geometrically stretched nodes clustered at the face,
  resolving the sqrt(alpha t) boundary layer without uniform-grid cost.
  The scenario sets the far boundary: an isolated fracture's (count 1, or
  infinite spacing) is pinned at T0 (truncated semi-infinite domain), an
  array's is zero-flux (slab symmetry midplane at half the spacing).
* time: theta-weighted implicit step (Crank-Nicolson after two damped
  backward-Euler startup steps) taken in modal space. The symmetrized
  interior Laplacian is diagonalized once per grid shape (ny, ratio,
  far boundary) in a process, at unit depth, and each run scales that basis by
  its y_max; the last four shapes stay cached, (ny + 1)^2 * 8 bytes each
  (0.32 MB at the default ny = 200). A step scales each mode by its
  amplification factor S and adds the face forcing, at every x-station at
  once.
* step ladder: the outlet's error is a start-up transient, so only the
  start needs the fine step. The first _RUNG steps take grid.dt; the step
  then doubles every _RUNG steps up to _MAX_MULTIPLE grid.dt, which it
  keeps to the end. Step end times are grid.dt times integers, the first
  _RUNG of them exactly k grid.dt. _plan alone writes the ladder down, as
  a run's few stretches (theta, multiple of grid.dt, step count); a
  horizon of 2400 grid.dt takes 436 steps in eight stretches. The first
  step of each longer rung is damped like the startup: a change of step
  size excites modes that Crank-Nicolson barely damps, and where the
  outlet has all but reached the injection temperature their ringing
  would take it below. The march gain (1+q)/(1-q) rises with theta times
  the step, so a grid whose startup passes the gain check passes it on
  every rung.
* blocks: being linear with constant S, the steps of one stretch of the
  plan run in blocks (damped steps in blocks of at most two,
  Crank-Nicolson in blocks of at most _BLOCK, the last one ending with
  the stretch): one matrix product gives the face gradient of every step
  in the block from its starting modes, the fluid of the block's earlier
  steps reaches each step through precomputed scalars h_d, one scan along
  x, started at the inlet temperature and weighing those steps by h_d
  itself, solves the fluid of all the block's steps, and one more product
  advances the modes to the block's end. Each stretch builds its block's
  matrices in place of the last one's, so one block's matrices are alive
  at a time. Node values are synthesized only where needed (face
  gradient, snapshots, and the node beside a pinned far boundary at each
  block's end).
* x (along the fracture): nx uniform cells. A block of `length` steps
  costs the fluid scan 1 + ceil(log2(nx + 1)) products of length^2 * nx and
  the modal products modes * nx per step, so each mode's grid factory takes
  the nx its x error needs: 200 in slab mode, where the x part is as large
  as the total, and 100 in semi-infinite mode, where the time step makes
  almost all of it (see OracleGrid and semi_infinite_grid).
* coupling: within a step the rock update is affine in its face temperature,
  and the fluid of the block's earlier steps reaches each step through the
  h_d, so along x the fluid of all the block's steps is one first-order
  linear recurrence: the trapezoid march from station i-1 to i with gain
  (1+q)/(1-q), the gain reading the block's own h_0. _march_scan solves it
  exactly, for every step of the block at once, as a prefix scan seeded
  with the inlet temperature at station 0, in ceil(log2(nx + 1)) doubling
  levels (Kogge and Stone 1973; Blelloch 1990), with its step weights and
  the powers of its step matrix built from h once per stretch.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace
from typing import ClassVar, Sequence

import numpy as np

# fluid_temp_single is read through its module at call time: this module may
# load after egstherm.analytic's bindings were replaced (perfbench/tracing.py
# wraps them), and a copy taken at import would then be wrapped twice
from . import analytic
from .analytic import ForecastSeries, band_outlier
from .scenario import Scenario, face_coupling, refuse_invalid, thermal_diffusivity

__all__ = [
    "OracleGrid",
    "RockSnapshot",
    "OracleDetails",
    "ConvergenceStudy",
    "semi_infinite_grid",
    "slab_grid",
    "fd_simulate",
    "convergence_study",
]

# semi-infinite mode aborts at the first block end where the node beside the
# truncated boundary is disturbed by more than this many degrees
_CONTAMINATION_LIMIT_C = 0.1

# Crank-Nicolson steps per block of the modal stepper: on the default grids
# a run with blocks of 16 or 24 takes 4-15% longer than with 32, and one
# with 48 or 64 15-23% longer
_BLOCK = 32

# the time-step ladder: steps per rung, each rung's step twice the last one's,
# up to this multiple of grid.dt
_RUNG = 64
_MAX_MULTIPLE = 8
_N_STEPS = 2400  # the grid factories' default first step is horizon / _N_STEPS
# the most steps a run may take: a default run takes 436, and the ladder's
# arrays grow with the count, so a far-off probe time is refused instead
_MAX_STEPS = 10**6

# the y-basis refinement (see _modes) takes at most this many steps and ends
# at the first whose residual max(|R|, |E|) is below this tolerance. On the
# shapes measured, a converging step's successor has a residual of at most 16
# times the square of its own or the float64 floor, at most 4e-13 up to ny
# 1000, so a step from below 1e-10 leaves the basis at that floor; the
# refused shapes are still at 1.2e-2 or more on their third step
_BASIS_STEPS = 3
_BASIS_TOL = 1e-10


@dataclass(frozen=True)
class OracleGrid:
    """Discretization parameters.

    Attributes
    ----------
    y_max : float
        Rock depth covered, m: >= 6 sqrt(alpha * horizon) for an isolated
        fracture's half-space, exactly half the spacing for an array.
    dt : float
        The first time step, s; see the module's step ladder.
    nx, ny : int
        Along-fracture and into-rock cell counts, both >= 16. The default
        nx, 200, is slab mode's (:func:`slab_grid`), where the x part of the
        outlet error, 0.0023-0.0028 C, is as large as the total;
        :func:`semi_infinite_grid` takes 100.
    ratio : float
        Geometric stretching between adjacent y-cells, in (1, 1.1].
    """

    y_max: float
    dt: float
    nx: int = 200
    ny: int = 200
    ratio: float = 1.025

    def __post_init__(self) -> None:
        if not (isinstance(self.nx, int) and self.nx >= 16):
            raise ValueError(f"nx must be an integer >= 16, got {self.nx!r}")
        if not (isinstance(self.ny, int) and self.ny >= 16):
            raise ValueError(f"ny must be an integer >= 16, got {self.ny!r}")
        for name in ("y_max", "dt"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be a finite number > 0, got {value}")
        if not 1.0 < self.ratio <= 1.1:
            raise ValueError(f"stretching ratio must lie in (1, 1.1], got {self.ratio}")

    def y_nodes(self) -> np.ndarray:
        """Stretched node positions 0 .. y_max (ny + 1 nodes)."""
        beta = self.ny * math.log(self.ratio)
        xi = np.arange(self.ny + 1) / self.ny
        return self.y_max * np.expm1(beta * xi) / math.expm1(beta)


def semi_infinite_grid(
    sc: Scenario,
    nx: int = 100,
    ny: int = OracleGrid.ny,
    n_steps: int = _N_STEPS,
    ratio: float = OracleGrid.ratio,
    horizon: float | None = None,
    y_max: float | None = None,
) -> OracleGrid:
    """Truncated half-space grid over ``horizon`` (default: the scenario's).

    The first time step is horizon/n_steps; see the module's step ladder.
    The rock depth defaults to six diffusion lengths, 6 sqrt(alpha horizon).
    The default nx is 100, half the slab grid's. At nx = 200 the time step
    makes 93% of the outlet error here and x 5e-5 C (0.097 C in all at 48
    log probes from horizon/100), while nx sets the cost of the fluid scan
    (1 + ceil(log2(nx + 1)) products of length^2 * nx per block of `length`
    steps) and of the modal products (modes * nx per step). Halving it moves
    the outlet by at most 1.6e-4 C with one face and 2.0e-3 C with two on
    the bundled sites and takes about 40% off a run; the error against the
    closed form at 256 log probes reads 0.1070/0.1027 C
    (valles_caldera/zeinali), against 0.1071/0.1028 C at nx = 200.
    """
    if horizon is None:
        horizon = sc.operating.horizon
    if y_max is None:
        y_max = 6.0 * math.sqrt(thermal_diffusivity(sc.rock) * horizon)
    if not (isinstance(n_steps, int) and n_steps >= 1):
        raise ValueError(f"n_steps must be an integer >= 1, got {n_steps!r}")
    return OracleGrid(y_max=y_max, dt=horizon / n_steps, nx=nx, ny=ny, ratio=ratio)


def slab_grid(
    sc: Scenario,
    nx: int = OracleGrid.nx,
    ny: int = OracleGrid.ny,
    n_steps: int = _N_STEPS,
    ratio: float = OracleGrid.ratio,
    horizon: float | None = None,
) -> OracleGrid:
    """The semi-infinite grid ended at the zero-flux midplane, spacing/2:
    the grid fd_simulate takes for an array."""
    spacing = sc.fractures.spacing
    if spacing is None or not 0.0 < spacing < math.inf:
        raise ValueError("slab mode requires a scenario with a finite positive fracture spacing")
    return semi_infinite_grid(sc, nx, ny, n_steps, ratio, horizon, y_max=spacing / 2)


@dataclass(frozen=True, eq=False)
class RockSnapshot:
    """Full rock temperature field at one completed step; equal only to itself."""

    time: float
    x: np.ndarray
    y: np.ndarray
    temperatures: np.ndarray  # shape (ny + 1, nx + 1)


@dataclass(frozen=True, eq=False)
class OracleDetails:
    """Diagnostics accompanying a simulation when requested; equal only to itself."""

    snapshots: tuple[RockSnapshot, ...]
    fluid_enthalpy_J: float
    rock_heat_loss_J: float | None  # slab mode only; unbounded domain otherwise
    n_steps: int
    # fluid solves per step: each block's scan solves its coupled steps exactly, once
    max_sweeps: ClassVar[int] = 1

    @property
    def energy_imbalance(self) -> float | None:
        """|fluid - rock| / rock, or None outside slab mode."""
        if self.rock_heat_loss_J is None or self.rock_heat_loss_J == 0.0:
            return None
        return abs(self.fluid_enthalpy_J - self.rock_heat_loss_J) / self.rock_heat_loss_J


@functools.lru_cache(maxsize=4)
def _modes(ny: int, ratio: float, pinned: bool):
    """Eigenpairs of the interior 3-point Laplacian on the unit-depth grid.

    On the unknown nodes (1 .. ny-1 below a pinned far boundary, 1 .. ny
    with the mirrored zero-flux midplane) the operator is K = D^-1 S with S
    symmetric and D the trapezoid weights, so T = D^1/2 K D^-1/2 is
    symmetric tridiagonal. Returns its eigenvalues, orthonormal eigenvectors
    (one per column) and the square-rooted weights, all read-only. The
    nodes are y_max times the unit-depth ones, so the eigenvectors serve
    every y_max of this shape, the eigenvalues scale by 1/y_max^2 and the
    root-weights by sqrt(y_max).

    NumPy's eigh of the dense T alone moves slab outlets by up to 4e-8 C on
    the default grids, so its basis X is refined (Ogita and Aishima 2018,
    Japan J. Indust. Appl. Math. 35, 1007-1035): with R = I - X^T X and
    S = X^T T X, a step takes lam_i = S_ii / (1 - R_ii), E_ij = (S_ij +
    lam_j R_ij) / (lam_j - lam_i) off the diagonal and R_ii / 2 on it, and
    X + X E, ending after the first step whose max(|R|, |E|) is below
    _BASIS_TOL. On a y-grid graded so strongly that the refinement has not
    got there in _BASIS_STEPS steps, eigh starts outside its reach and the
    basis fails its own check: returns None, and fd_simulate refuses the grid.
    T is dense only as eigh's input; a step forms T X from T's three
    diagonals, so it takes three m^3 products (X^T X, X^T (T X), X E), and
    writes R, S, E and its temporaries into three m x m buffers, the first
    of them T's own.
    """
    y = OracleGrid(y_max=1.0, dt=1.0, ny=ny, ratio=ratio).y_nodes()
    inv_h = 1.0 / np.diff(y)
    s_diag = -(inv_h[:-1] + inv_h[1:])
    if not pinned:
        s_diag = np.append(s_diag, -inv_h[-1])
    m = s_diag.size
    root_w = np.sqrt(_trapezoid_weights(y)[1 : m + 1])
    off = inv_h[1:m] / (root_w[:-1] * root_w[1:])
    diag = s_diag / root_w**2
    r = np.diag(diag)
    r.flat[1 :: m + 1] = off
    r.flat[m :: m + 1] = off
    lam, vectors = np.linalg.eigh(r)  # T's dense copy is R's buffer from here on
    s = np.empty_like(r)
    scratch = np.empty_like(r)
    for _ in range(_BASIS_STEPS):
        np.matmul(vectors.T, vectors, out=r)
        np.subtract(0.0, r, out=r)
        r.flat[:: m + 1] += 1.0
        # T X from T's three diagonals, row i: diag_i X_i + off_i X_(i+1) + off_(i-1) X_(i-1)
        np.multiply(diag[:, None], vectors, out=s)
        np.multiply(off[:, None], vectors[1:], out=scratch[1:])
        s[:-1] += scratch[1:]
        np.multiply(off[:, None], vectors[:-1], out=scratch[1:])
        s[1:] += scratch[1:]
        np.matmul(vectors.T, s, out=scratch)
        np.add(scratch, scratch.T, out=s)
        s /= 2.0  # symmetric in exact arithmetic
        lam = np.diag(s) / (1.0 - np.diag(r))
        # entry (i, j): lam_j - lam_i, with 1 on the diagonal that E sets apart
        s += np.multiply(r, lam, out=scratch)
        np.subtract(lam, lam[:, None], out=scratch)
        scratch.flat[:: m + 1] = 1.0
        e = np.divide(s, scratch, out=s)
        np.fill_diagonal(e, np.diag(r) / 2.0)
        vectors += np.matmul(vectors, e, out=scratch)
        # a NaN residual compares False, so it fails the check
        if np.abs(r, out=r).max() < _BASIS_TOL and np.abs(e, out=e).max() < _BASIS_TOL:
            break
    else:
        return None
    for array in (lam, vectors, root_w):
        array.flags.writeable = False
    return lam, vectors, root_w


def _gradient_stencil(y: np.ndarray) -> np.ndarray:
    # one-sided second-order first derivative at y[0] on a nonuniform grid
    h1 = y[1] - y[0]
    h2 = y[2] - y[1]
    return np.array(
        [
            -(2.0 * h1 + h2) / (h1 * (h1 + h2)),
            (h1 + h2) / (h1 * h2),
            -h1 / (h2 * (h1 + h2)),
        ]
    )


def _march_scan(gain: float, s: float, h: np.ndarray, theta: float, inlet: float, nx: int):
    """The trapezoid fluid march of a block of steps, solved along x as one scan.

    h holds the block's scalars h_0 .. h_length. Step j's fluid F_j (F_0 the
    block's start) is inlet at station 0 and F_j(i) = gain F_j(i-1) + s
    (p_j(i-1) + p_j(i)) from station i-1 to i, driven by p_j = lead_j +
    sum over k < j - 1 of h_(j-1-k) w_k + (1 - theta) h_0 F_(j-1), with
    w_k = (1 - theta) F_k + theta F_(k+1) (theta h_0 F_j sits in the gain).
    That is p_j = r_j + (N F)_j, r_j = lead_j + (1 - theta) h_(j-1) F_0 and
    N[j, k] = (1 - theta) h_(j-k-1) + theta h_(j-k) for 1 <= k < j. Stacked
    over the block's steps, F(i) = C F(i-1) + d(i) from F(0) = inlet, with
    A = (I - s N)^-1, C = A (gain I + s N) = (1 + gain) A - I and d(i) =
    s A (r(i-1) + r(i)). Doubling level k adds C^(2^k) F(i - 2^k) to every
    F(i) (Kogge and Stone 1973; Blelloch 1990), so after ceil(log2(nx + 1))
    levels, one (length x length)(length x nx) product each, every station
    holds its whole sum from the inlet. Returns fluid(leads, start, out),
    which writes F_1 .. F_length to out, one row each, building r in leads.
    """
    length = h.size - 1
    k = np.arange(length)
    lag = (1.0 - theta) * h[:-1] + theta * h[1:]
    n = np.tril(lag[np.subtract.outer(k, k) - 1], -1)
    start_column = (1.0 - theta) * h[:-1]
    a = np.linalg.solve(np.eye(length) - s * n, np.eye(length))
    ladder = [(1.0 + gain) * a - np.eye(length)]
    while 2 ** len(ladder) <= nx:
        ladder.append(ladder[-1] @ ladder[-1])
    s_a = s * a

    def fluid(leads: np.ndarray, start: np.ndarray, out: np.ndarray) -> None:
        leads += np.outer(start_column, start)
        out[:, 0] = inlet
        np.matmul(s_a, leads[:, :-1] + leads[:, 1:], out=out[:, 1:])
        for level, power in enumerate(ladder):
            offset = 2**level
            out[:, offset:] += power @ out[:, :-offset]

    return fluid


def _plan(units: float) -> list[tuple[float, int, float]]:
    """The steps a run takes to reach units * grid.dt (less 1e-12), as its
    stretches (theta, multiple, count) of count steps of multiple * grid.dt.
    _RUNG steps take grid.dt, _RUNG take 2 grid.dt and so on, then
    _MAX_MULTIPLE grid.dt to the end; the last step may pass units. The first
    two steps and the first step of each longer rung are damped (theta 1),
    the rest Crank-Nicolson (theta 1/2). Counts are floats, so a huge or
    infinite total compares."""
    left, multiple, plan = units - 1e-12, 1, []
    while True:
        # each rung below the top one covers _RUNG * multiple units
        last = multiple == _MAX_MULTIPLE or left <= _RUNG * multiple
        count = float(np.ceil(left / multiple)) if last else float(_RUNG)
        damped = min(count, 2.0 if multiple == 1 else 1.0)
        plan.append((1.0, multiple, damped))
        if count > damped:
            plan.append((0.5, multiple, count - damped))
        if last:
            return plan
        left -= _RUNG * multiple
        multiple *= 2


def _advance(powers, carry, coeffs, earned, n: int, out: np.ndarray, work: np.ndarray):
    """Modal state after the first n steps of a block that started at coeffs,
    written to out (which may be coeffs). work takes the forcing product: on
    the default grid a fresh array of this size costs more in page faults
    than the product itself."""
    np.matmul(carry[:, carry.shape[1] - n :], earned[:n], out=work)
    np.multiply(coeffs, powers[n][:, None], out=out)
    return np.add(out, work, out=out)


def _trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    w = np.zeros_like(nodes)
    d = np.diff(nodes)
    w[:-1] += d / 2.0
    w[1:] += d / 2.0
    return w


def fd_simulate(
    sc: Scenario,
    grid: OracleGrid,
    probe_times: Sequence[float],
    snapshot_times: Sequence[float] = (),
    return_details: bool = False,
):
    """Run the conjugate solver and sample the outlet at the probe times.

    Parameters
    ----------
    sc : Scenario
    grid : OracleGrid
        Any grid for an isolated fracture; an array takes :func:`slab_grid`'s.
    probe_times : sequence of float
        Times (s, > 0, strictly increasing) at which the outlet temperature
        is reported, by linear interpolation between completed steps.
    snapshot_times : sequence of float
        Times (s, > 0) at which the full rock field is captured (nearest
        step, >= 1).
    return_details : bool
        Also return :class:`OracleDetails` (implied by snapshot_times).

    Returns
    -------
    ForecastSeries, or (ForecastSeries, OracleDetails)
        Outlet series tagged ``oracle``. Block edges follow the step index
        alone, so the outlets do not depend on the snapshots or details
        asked for, and a shorter run reproduces the first steps of a
        longer one exactly. Every run takes at least one step, so its grid
        is checked whatever is asked (an early probe is interpolated from T0).

    Raises
    ------
    ValueError
        If sc breaks a rule of validate (a ScenarioError, as the loader
        raises), if sc is an array and grid.y_max is not half its spacing
        (named with both; use :func:`slab_grid`), if the snapshot times are
        not 1-D, if a probe or snapshot time is not a finite number > 0, if
        reaching the latest of them takes more than 10**6 steps, if the probe
        times are not 1-D and strictly increasing (checked before any step),
        if the first y-cell is wider than 5 sqrt(alpha t) at the run's end or
        too thin for 1/h^2 and alpha dt/h^2 to be finite floats, if the
        y-grid is graded so strongly that its eigenbasis fails its own check
        (named with ny, the ratio, ratio^ny and the first cell), or if the
        fluid march gain of a step is not positive: the grid is too coarse
        along x and the outlet would oscillate along it, or if an outlet at a
        probe lies outside [T_inj, T0] (named with the grid).
    RuntimeError
        If semi-infinite mode finds the node beside the truncated far boundary
        disturbed by more than 0.1 C at a block's end (named in the message):
        y_max is too small for the horizon.
    """
    refuse_invalid(sc)
    fr = sc.fractures
    pinned = fr.count == 1 or fr.spacing == math.inf  # isolated, as validate reads it
    if not (pinned or grid.y_max == fr.spacing / 2):
        raise ValueError(f"the grid ends at y_max={grid.y_max} m, not at this array's zero-flux "
                         f"midplane, spacing/2 = {fr.spacing / 2} m; build it with slab_grid")
    probe_times = np.asarray(probe_times, dtype=float)
    snapshot_times = np.asarray(snapshot_times, dtype=float)
    if snapshot_times.ndim != 1:
        raise ValueError("snapshot times must be a one-dimensional sequence of seconds")
    for name, times in (("probe", probe_times), ("snapshot", snapshot_times)):
        if times.size and times.min() <= 0.0:
            raise ValueError(f"{name} times must be > 0 s")
        if not np.all(np.isfinite(times)):
            raise ValueError(f"{name} times must be finite, got {times[~np.isfinite(times)][0]}")

    t_hot = sc.rock.initial_temperature
    t_cold = sc.fluid.injection_temperature
    alpha = thermal_diffusivity(sc.rock)
    coupling = face_coupling(sc)

    latest = {"probe": probe_times.max(initial=0.0), "snapshot": snapshot_times.max(initial=0.0)}
    name = max(latest, key=latest.get)
    t_end = float(latest[name])
    plan = _plan(max(t_end / grid.dt, 1.0))
    size = sum(count for _, _, count in plan)
    if size > _MAX_STEPS:
        raise ValueError(
            f"the latest {name} time, {t_end:.6g} s, takes {size:.3g} oracle steps from a "
            f"first step of {grid.dt:.6g} s, beyond the cap of {_MAX_STEPS}; "
            "shorten the run or lengthen the first step (fewer n_steps)"
        )
    # each step's theta and length, and the step end times from the start at
    # 0, in multiples of grid.dt
    thetas, multiples, counts = map(np.array, zip(*plan))
    thetas, multiples = (np.repeat(column, counts.astype(int)) for column in (thetas, multiples))
    ends = np.append(0, np.cumsum(multiples))
    n_steps = multiples.size
    probe_times = ForecastSeries.check_times(probe_times)  # the series' time rule, before any step

    y = grid.y_nodes()
    x = np.linspace(0.0, fr.flow_length, grid.nx + 1)
    dx = x[1] - x[0]
    # past 5 sqrt(alpha t) at the run's end the inlet's half-space cools the
    # first node by under erfc(2.5) = 4e-4 of the span: the front is never seen
    reach = 5.0 * math.sqrt(alpha * ends[-1] * grid.dt)
    if y[1] > reach:
        raise ValueError(
            f"the first rock cell, {y[1]:.6g} m, is wider than the cooling front "
            f"reaches by t={ends[-1] * grid.dt:.6g} s ({reach:.6g} m, 5 sqrt(alpha t)); "
            "shrink y_max or the fracture spacing, or raise ny"
        )
    # the face stencil grows like 1/h1^2 and every modal rate, alpha dt lam,
    # is at most 4 alpha dt / h1^2 in size: below this width one overflows
    alpha_dt_max = alpha * grid.dt * float(multiples.max())
    thinnest = 2.0 * math.sqrt(max(1.0, alpha_dt_max) / sys.float_info.max)
    if not y[1] >= thinnest:
        half = "" if pinned else " (half the fracture spacing)"
        raise ValueError(
            f"the first rock cell, {y[1]:.6g} m, of y_max={grid.y_max:.6g} m{half} over "
            f"ny={grid.ny} cells is thinner than {thinnest:.3g} m, where 1/h^2 or the longest "
            "step's alpha dt/h^2 overflows; raise y_max or the fracture spacing, lower ny "
            "or shorten the first step"
        )
    stencil = _gradient_stencil(y)
    # the unit-depth basis of this grid shape, scaled to y_max (lam / y_max**2
    # could overflow in the square)
    basis = _modes(grid.ny, grid.ratio, pinned)
    if basis is None:
        raise ValueError(
            f"the y-grid of ny={grid.ny} cells at stretching ratio {grid.ratio} spans "
            f"ratio^ny = {grid.ratio ** grid.ny:.3g} from a first rock cell of {y[1]:.3g} m: "
            f"its eigenbasis still fails its own check after {_BASIS_STEPS} refinement steps, "
            "so the grid is too strongly graded to solve; lower ny or the ratio"
        )
    lam, vectors, root_w = basis
    lam = lam / grid.y_max / grid.y_max
    root_w = root_w * math.sqrt(grid.y_max)
    face_load = vectors[0] / (y[1] - y[0]) / root_w[0]

    # the face gradient's interior part in modal coordinates
    grad_row = stencil[1] * vectors[0] / root_w[0] + stencil[2] * vectors[1] / root_w[1]
    grad_long = grad_row.astype(np.longdouble)

    def theta_block(theta: float, multiple: int, length: int):
        # a block of `length` theta steps of multiple * grid.dt from modal
        # state c0: step j scales by S and adds forcing * w_j, so the state
        # after n steps is S^n c0 + sum over k < n of S^(n-1-k) forcing w_k;
        # the face gradient of every step comes from c0 in one product, and
        # the w_k already earned in the block reach it through the scalars
        # h_d = grad_row . (S^d forcing)
        alpha_dt = alpha * (grid.dt * multiple)
        denom = 1.0 - theta * alpha_dt * lam
        scale = (1.0 + (1.0 - theta) * alpha_dt * lam) / denom
        forcing = alpha_dt * face_load / denom
        # row n: S^n, as powers of |S| with the sign set by the exponent's
        # parity: within 1 ulp of NumPy's power and ~20x faster on the
        # negative S that Crank-Nicolson gives most modes
        powers = np.abs(scale) ** np.arange(length + 1)[:, None]
        powers[1::2] *= np.sign(scale)
        # row j: the gradient row seen after step j's scale
        lead_rows = powers[1:] * grad_row
        # row i: S^(length - i) forcing
        weighted = powers[::-1] * forcing
        # entry d: h_d. These sums cancel heavily and every block reuses
        # them, so they are accumulated in extended precision: in float64
        # their rounding moved the zeinali slab outlet by 1e-7 C
        h = np.dot(weighted.astype(np.longdouble), grad_long).astype(float)[::-1]
        # the fluid march gain takes the step's own face response, h_0
        ratio_q = dx * coupling * (stencil[0] + theta * h[0]) / 2.0
        gain = (1.0 + ratio_q) / (1.0 - ratio_q)
        if not gain > 0.0:
            raise ValueError(
                f"fluid march gain {gain:.3g} at theta={theta} is not positive "
                f"(nx={grid.nx}, dx={dx:.4g} m): the grid is too coarse along x "
                "and the outlet would oscillate along it; raise nx"
            )
        s = dx * coupling / 2.0 / (1.0 - ratio_q)
        fluid = _march_scan(gain, s, h, theta, t_cold - t_hot, grid.nx)
        # column k: S^(length-1-k) forcing, so the state after n steps takes
        # the last n columns against w_0 .. w_(n-1)
        carry = weighted[1:].T
        return powers, lead_rows, carry, fluid

    # modal coefficients of the rock's deviation from T0 at every station
    coeffs = np.zeros((lam.size, grid.nx + 1))
    work = np.empty_like(coeffs)
    # the fluid (face) deviation after each step of a block, row 0 its start
    history = np.zeros((_BLOCK + 1, grid.nx + 1))
    earned = np.empty((_BLOCK, grid.nx + 1))  # w_j of each step in a block

    outlet_history = np.empty(n_steps + 1)
    outlet_history[0] = t_hot

    snapshots: list[RockSnapshot] = []
    # nearest step: the fractional step index at each time, rounded (on the
    # first rung, where step k ends at k grid.dt, that index is the time
    # over grid.dt itself)
    at_step = np.interp(snapshot_times / grid.dt, ends, np.arange(n_steps + 1))
    snapshot_steps = sorted({min(max(1, round(s)), n_steps) for s in at_step})

    # each stretch builds its block in place of the last one's and runs in
    # blocks of at most two damped or _BLOCK Crank-Nicolson steps, so block
    # edges depend only on the step index
    step = 0
    for theta, multiple, stretch in plan:
        length = 2 if theta == 1.0 else _BLOCK
        powers, lead_rows, carry, fluid = theta_block(theta, multiple, length)
        stretch_end = step + int(stretch)
        for start in range(step, stretch_end, length):
            # every block computes all its rows, so a run cut short inside a
            # block reproduces the longer run's outlets bit for bit; the fluid
            # after each step comes from one scan along x
            fluid(lead_rows @ coeffs, history[0], history[1 : length + 1])
            step = min(start + length, stretch_end)
            count = step - start
            earned[:count] = (1.0 - theta) * history[:count] + theta * history[1 : count + 1]
            outlet_history[start + 1 : step + 1] = t_hot + history[1 : count + 1, -1]
            for n in (s - start for s in snapshot_steps if start < s <= step):
                state = _advance(powers, carry, coeffs, earned, n, np.empty_like(coeffs), work)
                rock = np.full((grid.ny + 1, grid.nx + 1), t_hot)
                rock[0] += history[n]
                rock[1 : lam.size + 1] += (vectors @ state) / root_w[:, None]
                time = float(ends[start + n] * grid.dt)
                snapshots.append(RockSnapshot(time=time, x=x.copy(), y=y.copy(), temperatures=rock))
            history[0] = history[count]
            _advance(powers, carry, coeffs, earned, count, coeffs, work)
            if pinned:
                # the node beside y_max at the block's end
                disturbed = np.max(np.abs(vectors[-1] @ coeffs / root_w[-1]))
                if disturbed > _CONTAMINATION_LIMIT_C:
                    raise RuntimeError(
                        "cooling front reached the truncated far boundary by "
                        f"t={ends[step] * grid.dt:.6g} s (deviation {disturbed:.3g} C "
                        f"beside y_max={grid.y_max:.6g} m); enlarge y_max for this horizon"
                    )

    outlets = np.interp(probe_times, ends * grid.dt, outlet_history)
    # ForecastSeries' band rule, checked here so the refusal names the grid;
    # the series is then built from these checked parts without checking again
    if (outlier := band_outlier(outlets, t_cold, t_hot)) is not None:
        worst, excursion = outlier
        raise ValueError(
            f"the oracle outlet at t={probe_times[worst]:.6g} s is {outlets[worst]:.9g} C, "
            f"{excursion:.3g} C outside [T_inj, T0] = [{t_cold:.6g}, {t_hot:.6g}] C: "
            f"the scheme rings past them on the grid nx={grid.nx}, ny={grid.ny}, "
            f"y_max={grid.y_max:.6g} m with a first step of {grid.dt:.6g} s, so it is no "
            "reference for this run"
        )
    series = ForecastSeries._from_checked("oracle", probe_times, outlets, t_cold, t_hot)
    if not (return_details or snapshots):
        return series

    # produced enthalpy, each step by its theta rule over its own length; the
    # outlet history starts at T0, the quasi-steady outlet limit at t -> 0
    q_frac = sc.operating.total_rate / fr.count
    power = sc.fluid.density * sc.fluid.specific_heat * q_frac * (outlet_history - t_cold)
    fluid_energy = grid.dt * float(
        np.sum(multiples * (thetas * power[1:] + (1.0 - thetas) * power[:-1]))
    )
    rock_loss = None
    if not pinned:
        # finite inventory: every joule the slab loses crosses the face. The
        # unknown nodes are every node below the face, and their trapezoid
        # weights over root_w are root_w itself
        w_y = _trapezoid_weights(y)
        deviation = w_y[0] * history[0] + (root_w @ vectors) @ coeffs
        deficit = -float(deviation @ _trapezoid_weights(x))
        rock_loss = fr.faces * sc.rock.density * sc.rock.specific_heat * fr.height * deficit
    details = OracleDetails(
        snapshots=tuple(snapshots),
        fluid_enthalpy_J=fluid_energy,
        rock_heat_loss_J=rock_loss,
        n_steps=n_steps,
    )
    return series, details


@dataclass(frozen=True)
class ConvergenceStudy:
    """Errors against the closed form under simultaneous grid refinement."""

    rows: tuple[tuple[int, float], ...]  # (refinement factor, max abs error C)
    observed_order: float


def convergence_study(sc: Scenario, base_grid: OracleGrid, levels: int) -> ConvergenceStudy:
    """Refine (nx, ny, 1/dt) together and track the error vs the closed form.

    Each level doubles the resolution of the previous one; the stretching
    ratio is square-rooted alongside so the node-placement mapping stays
    fixed and the scheme shows its clean order. The error is the largest
    outlet deviation at 8 log-spaced probes from 5% of the horizon to the
    horizon. Errors must shrink monotonically; the observed order comes
    from the two finest levels.

    Raises
    ------
    ValueError
        If levels < 2, or if sc is an array at a finite spacing.
    ArithmeticError
        If the error sequence is not strictly decreasing (a solver bug
        signal, reported with the full error column).
    """
    if not (isinstance(levels, int) and levels >= 2):
        raise ValueError(f"levels must be an integer >= 2, got {levels!r}")
    if not (sc.fractures.count == 1 or sc.fractures.spacing == math.inf):
        raise ValueError("convergence_study refines toward the isolated fracture's closed form; "
                         f"an array of {sc.fractures.count} fractures runs to its midplane")
    horizon = sc.operating.horizon
    probe_times = np.geomspace(0.05 * horizon, horizon, 8)
    reference = analytic.fluid_temp_single(sc, sc.fractures.flow_length, probe_times)

    rows: list[tuple[int, float]] = []
    for level in range(levels):
        factor = 2**level
        refined = replace(
            base_grid,
            dt=base_grid.dt / factor,
            nx=base_grid.nx * factor,
            ny=base_grid.ny * factor,
            ratio=base_grid.ratio ** (1.0 / factor),
        )
        series = fd_simulate(sc, refined, probe_times)
        error = float(np.max(np.abs(series.outlet_temperatures - reference)))
        rows.append((factor, error))

    errors = [e for _, e in rows]
    if any(errors[i + 1] >= errors[i] for i in range(len(errors) - 1)):
        raise ArithmeticError(
            "refinement did not reduce the error monotonically: "
            + ", ".join(f"x{f}: {e:.4g} C" for f, e in rows)
        )
    observed_order = math.log2(errors[-2] / errors[-1])
    return ConvergenceStudy(rows=tuple(rows), observed_order=observed_order)
