"""Finite-difference conjugate heat-transfer solver: the desk-scale ground truth.

The analytical results are validated against this independent discretization
of the same physics: one-dimensional transient conduction into the rock at
every along-fracture station, coupled to a quasi-steady advective fluid
march through the face temperature (Dirichlet) and the face heat flux.

Numerical layout
----------------
* y (into the rock): geometrically stretched nodes clustered at the face,
  resolving the sqrt(alpha t) boundary layer without uniform-grid cost.
  Far boundary either pinned at the initial temperature (truncated
  semi-infinite domain) or zero-flux (slab symmetry midplane at half the
  fracture spacing, the same geometry as the transform-domain slab model).
* time: theta-weighted implicit step (Crank-Nicolson after two damped
  backward-Euler startup steps) taken in modal space. The symmetrized
  interior Laplacian is diagonalized once per grid shape (ny, ratio,
  bc_far) in a process, at unit depth, and each run scales that basis by
  its y_max; the last four shapes stay cached, (ny + 1)^2 * 8 bytes each
  (0.32 MB at the default ny = 200). A step scales each mode by its
  amplification factor S and adds the face forcing, at every x-station at
  once.
* step ladder: the outlet's error is a start-up transient, so only the
  start needs the fine step. The first _RUNG steps take grid.dt; the step
  then doubles every _RUNG steps up to _MAX_MULTIPLE grid.dt, which it
  keeps to the end. Step end times are grid.dt times integers, the first
  _RUNG of them exactly k grid.dt. A horizon of 2400 grid.dt takes 436
  steps. The first step of each longer rung is damped like the startup:
  a change of step size excites modes that Crank-Nicolson barely damps,
  and where the outlet has all but reached the injection temperature
  their ringing would take it below. The march gain (1+q)/(1-q) rises
  with theta times the step, so a grid whose startup passes the gain
  check passes it on every rung.
* blocks: being linear with constant S, the steps of one theta and one
  step size run in blocks (damped steps in blocks of at most two,
  Crank-Nicolson in blocks of at most _BLOCK; a block ends where the
  theta or the step size changes): one matrix product gives the face
  gradient of every step in the block from its starting modes, the fluid
  of the block's earlier steps reaches each step through precomputed
  scalars, and one more product advances the modes to the block's end.
  Each (theta, step size) holds for one stretch of steps, so one block's
  matrices are alive at a time. Node values are synthesized only where
  needed (face gradient, snapshots, and the node beside a pinned far
  boundary at each block's end).
* x (along the fracture): nx uniform cells. The fluid march costs nx^2 per
  step and the block products modes * nx, so each mode's grid factory takes
  the nx its x error needs: 200 in slab mode, where the x part is as large
  as the total, and 100 in semi-infinite mode, where the time step makes
  almost all of it (see OracleGrid and semi_infinite_grid).
* coupling: within a step the rock update is affine in its face temperature,
  so the fluid march solves the coupled step exactly, once per step, as one
  precomputed lower-triangular matrix (per theta and step size) applied to
  the face gradient of the explicit part.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

# fluid_temp_single is read through its module at call time: this module may
# load after egstherm.analytic's bindings were replaced (perfbench/tracing.py
# wraps them), and a copy taken at import would then be wrapped twice
from . import analytic
from .analytic import ForecastSeries
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

_BC_TAGS = ("dirichlet_T0", "neumann_zero")

# semi-infinite mode aborts at the first block end where the node beside the
# truncated boundary is disturbed by more than this many degrees
_CONTAMINATION_LIMIT_C = 0.1

# Crank-Nicolson steps per block of the modal stepper; 16 to 64 run alike on
# the default grid
_BLOCK = 32

# the time-step ladder: steps per rung, each rung's step twice the last one's,
# up to this multiple of grid.dt
_RUNG = 64
_MAX_MULTIPLE = 8
_N_STEPS = 2400  # the grid factories' default first step is horizon / _N_STEPS
# the most steps a run may take: a default run takes 436, and the ladder's
# arrays grow with the count, so a far-off probe time is refused instead
_MAX_STEPS = 10**6


@dataclass(frozen=True)
class OracleGrid:
    """Discretization parameters.

    Attributes
    ----------
    y_max : float
        Rock depth covered, m. Semi-infinite mode wants >= 6 sqrt(alpha *
        horizon); slab mode uses exactly half the fracture spacing.
    dt : float
        The first time step, s; see the module's step ladder.
    nx, ny : int
        Along-fracture and into-rock cell counts, both >= 16. The default
        nx, 200, is slab mode's (:func:`slab_grid`), where the x part of the
        outlet error, 0.0023-0.0028 C, is as large as the total;
        :func:`semi_infinite_grid` takes 100.
    bc_far : str
        ``dirichlet_T0`` pins the far boundary at the initial temperature
        (truncated half-space); ``neumann_zero`` makes it a zero-flux
        symmetry midplane (slab mode).
    ratio : float
        Geometric stretching between adjacent y-cells, in (1, 1.1].
    """

    y_max: float
    dt: float
    nx: int = 200
    ny: int = 200
    bc_far: str = "dirichlet_T0"
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
        if self.bc_far not in _BC_TAGS:
            raise ValueError(f"bc_far must be one of {_BC_TAGS}, got {self.bc_far!r}")
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
    log probes from horizon/100), while nx sets the cost of the fluid march
    (nx^2 per step) and of the block products (modes * nx). Halving it moves
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
    """The semi-infinite grid ended at the zero-flux midplane, spacing/2."""
    spacing = sc.fractures.spacing
    if spacing is None or not 0.0 < spacing < math.inf:
        raise ValueError("slab mode requires a scenario with a finite positive fracture spacing")
    grid = semi_infinite_grid(sc, nx, ny, n_steps, ratio, horizon, y_max=spacing / 2)
    return replace(grid, bc_far="neumann_zero")


@dataclass(frozen=True)
class RockSnapshot:
    """Full rock temperature field at one completed step."""

    time: float
    x: np.ndarray
    y: np.ndarray
    temperatures: np.ndarray  # shape (ny + 1, nx + 1)


@dataclass(frozen=True)
class OracleDetails:
    """Diagnostics accompanying a simulation when requested."""

    snapshots: tuple[RockSnapshot, ...]
    fluid_enthalpy_J: float
    rock_heat_loss_J: float | None  # slab mode only; unbounded domain otherwise
    max_sweeps: int  # fluid marches per step: always 1, the exact coupled step
    n_steps: int

    @property
    def energy_imbalance(self) -> float | None:
        """|fluid - rock| / rock, or None outside slab mode."""
        if self.rock_heat_loss_J is None or self.rock_heat_loss_J == 0.0:
            return None
        return abs(self.fluid_enthalpy_J - self.rock_heat_loss_J) / self.rock_heat_loss_J


@functools.lru_cache(maxsize=4)
def _modes(ny: int, ratio: float, bc_far: str):
    """Eigenpairs of the interior 3-point Laplacian on the unit-depth grid.

    On the unknown nodes (1 .. ny-1 below a pinned far boundary, 1 .. ny
    with the mirrored zero-flux midplane) the operator is K = D^-1 S with S
    symmetric and D the trapezoid weights, so D^1/2 K D^-1/2 is symmetric
    tridiagonal. Returns its eigenvalues, orthonormal eigenvectors (one per
    column) and the square-rooted weights, all read-only. The nodes are
    y_max times the unit-depth ones, so the eigenvectors serve every y_max
    of this shape, the eigenvalues scale by 1/y_max^2 and the root-weights
    by sqrt(y_max).
    """
    from scipy.linalg import eigh_tridiagonal

    y = OracleGrid(y_max=1.0, dt=1.0, ny=ny, bc_far=bc_far, ratio=ratio).y_nodes()
    inv_h = 1.0 / np.diff(y)
    s_diag = -(inv_h[:-1] + inv_h[1:])
    if bc_far == "neumann_zero":
        s_diag = np.append(s_diag, -inv_h[-1])
    m = s_diag.size
    root_w = np.sqrt(_trapezoid_weights(y)[1 : m + 1])
    # MRRR (stemr) keeps the small eigenpairs of this strongly graded matrix
    # accurate; the divide-and-conquer default drifts ~1e-5 C at the outlet
    lam, vectors = eigh_tridiagonal(
        s_diag / root_w**2, inv_h[1:m] / (root_w[:-1] * root_w[1:]), lapack_driver="stemr"
    )
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


def _march_matrix(gain_powers: np.ndarray, scale: float) -> np.ndarray:
    """scale times the lower-triangular M with (M p)[i] = sum over j < i of
    gain**(i-1-j) * (p[j] + p[j+1]): the trapezoid march from a zero inlet,
    built from gain_powers = gain ** arange(nx + 1)."""
    from scipy.linalg import toeplitz

    size = gain_powers.size
    # entry (i, j) of rows 1 on reads lag[i - j] for j <= i, zeros above
    pairs = gain_powers[:-1] + gain_powers[1:]
    lag = np.append(gain_powers[0], pairs) * scale
    march = toeplitz(lag, np.zeros(size))
    # the inlet's value p[0] enters row i only through gain**(i-1), taken as
    # pairs - gain**i: the outlets carry that rounding
    march[0, 0] = 0.0
    march[1:, 0] = (pairs - gain_powers[1:]) * scale
    return march


def _ladder_size(units: float) -> float:
    """How many steps _ladder takes to reach units * grid.dt (less 1e-12); a
    float, so a huge or infinite count compares."""
    left, size, multiple = units - 1e-12, 0.0, 1
    # each rung below the top one covers _RUNG * multiple units
    while multiple < _MAX_MULTIPLE and left > _RUNG * multiple:
        left -= _RUNG * multiple
        size += _RUNG
        multiple *= 2
    return size + float(np.ceil(left / multiple))


def _ladder(units: float):
    """The steps a run needs to reach units * grid.dt (less 1e-12): their end
    times in multiples of grid.dt, led by the start at 0, and their thetas.
    _RUNG steps take grid.dt, _RUNG take 2 grid.dt and so on, then
    _MAX_MULTIPLE grid.dt to the end; the last step may pass units. The first
    two steps and the first step of each longer rung are damped (theta 1),
    the rest Crank-Nicolson (theta 1/2)."""
    count = int(_ladder_size(units))
    multiples = 2 ** np.minimum(np.arange(count) // _RUNG, int(math.log2(_MAX_MULTIPLE)))
    damped = np.arange(count) < 2
    damped[1:] |= np.diff(multiples) != 0
    return np.concatenate([[0], np.cumsum(multiples)]), np.where(damped, 1.0, 0.5)


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
    probe_times : sequence of float
        Times (s, > 0) at which the outlet temperature is reported, by
        linear interpolation between completed steps.
    snapshot_times : sequence of float
        Times at which the full rock field is captured (nearest step, >= 1).
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
        raises), if a probe or snapshot time is not a finite number > 0, if
        reaching the latest of them takes more than 10**6 steps, if the first
        y-cell is wider than 5 sqrt(alpha t) at the run's end or too thin for
        1/h^2 and alpha dt/h^2 to be finite floats, or if the fluid march
        gain of a step is not positive: the grid is too coarse along x and
        the outlet would oscillate along it.
    RuntimeError
        If semi-infinite mode finds the node beside the truncated far boundary
        disturbed by more than 0.1 C at a block's end (named in the message):
        y_max is too small for the horizon.
    """
    refuse_invalid(sc)
    probe_times = np.asarray(probe_times, dtype=float)
    snapshot_times = np.asarray(snapshot_times, dtype=float)
    for name, times in (("probe", probe_times), ("snapshot", snapshot_times)):
        if times.size and times.min() <= 0.0:
            raise ValueError(f"{name} times must be > 0 s")
        if not np.all(np.isfinite(times)):
            raise ValueError(f"{name} times must be finite, got {times[~np.isfinite(times)][0]}")

    t_hot = sc.rock.initial_temperature
    t_cold = sc.fluid.injection_temperature
    alpha = thermal_diffusivity(sc.rock)
    fr = sc.fractures
    coupling = face_coupling(sc)

    latest = {"probe": probe_times.max(initial=0.0), "snapshot": snapshot_times.max(initial=0.0)}
    name = max(latest, key=latest.get)
    t_end = float(latest[name])
    units = max(t_end / grid.dt, 1.0)
    size = _ladder_size(units)
    if size > _MAX_STEPS:
        raise ValueError(
            f"the latest {name} time, {t_end:.6g} s, takes {size:.3g} oracle steps from a "
            f"first step of {grid.dt:.6g} s, beyond the cap of {_MAX_STEPS}; "
            "shorten the run or lengthen the first step (fewer n_steps)"
        )
    # step end times in multiples of grid.dt; step k is multiples[k] long
    ends, thetas = _ladder(units)
    multiples = np.diff(ends)
    n_steps = multiples.size
    # a block ends at its length or where the step's theta or size changes,
    # so block edges depend only on the step index
    changes = (np.diff(thetas) != 0) | (np.diff(multiples) != 0)
    edges = np.append(np.flatnonzero(changes) + 1, n_steps)
    pinned = grid.bc_far == "dirichlet_T0"

    series = ForecastSeries(
        model="oracle",
        times=probe_times,
        outlet_temperatures=np.full(probe_times.shape, t_hot),
        injection_temperature=t_cold,
        initial_temperature=t_hot,
    )
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
    lam, vectors, root_w = _modes(grid.ny, grid.ratio, grid.bc_far)
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
        from scipy.linalg import toeplitz

        alpha_dt = alpha * (grid.dt * multiple)
        denom = 1.0 - theta * alpha_dt * lam
        scale = (1.0 + (1.0 - theta) * alpha_dt * lam) / denom
        forcing = alpha_dt * face_load / denom
        # the gain's sum cancels like the h_d below, so it is accumulated alike
        ratio_q = dx * coupling * (stencil[0] + theta * float(grad_long @ forcing)) / 2.0
        gain = (1.0 + ratio_q) / (1.0 - ratio_q)
        if not gain > 0.0:
            raise ValueError(
                f"fluid march gain {gain:.3g} at theta={theta} is not positive "
                f"(nx={grid.nx}, dx={dx:.4g} m): the grid is too coarse along x "
                "and the outlet would oscillate along it; raise nx"
            )
        gain_powers = gain ** np.arange(grid.nx + 1)
        march = _march_matrix(gain_powers, dx * coupling / 2.0 / (1.0 - ratio_q))
        inlet = (t_cold - t_hot) * gain_powers
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
        # step j takes h_(j-k) w_k for k < j, w_k = (1 - theta) F_k + theta
        # F_(k+1) from the fluid F after k steps, and h_0 (1 - theta) F_j;
        # row j of mix weighs F_0 .. F_j with those sums' coefficients
        mix = toeplitz((1.0 - theta) * h[:-1] + theta * h[1:], np.zeros(length + 1))
        mix[:, 0] = (1.0 - theta) * h[:-1]
        # column k: S^(length-1-k) forcing, so the state after n steps takes
        # the last n columns against w_0 .. w_(n-1)
        carry = weighted[1:].T
        return powers, lead_rows, mix, carry, march, inlet

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

    # damped steps run in blocks of (at most) two, Crank-Nicolson in blocks
    # of at most _BLOCK; each (theta, multiple) holds for one stretch of
    # steps, whose start builds its block in place of the last one
    step = 0
    while step < n_steps:
        start, theta = step, float(thetas[step])
        if step == 0 or changes[step - 1]:
            powers, lead_rows, mix, carry, march, inlet = theta_block(
                theta, int(multiples[step]), 2 if theta == 1.0 else _BLOCK
            )
        # every block computes all its rows, so a run cut short inside a
        # block reproduces the longer run's outlets bit for bit
        leads = lead_rows @ coeffs
        count = min(carry.shape[1], int(edges[np.searchsorted(edges, step, side="right")]) - step)
        for j in range(count):
            # face gradient after the explicit part (new face value still
            # zero); the step is affine in the new face value, so one march
            # solves it
            history[j + 1] = inlet + march @ (leads[j] + mix[j, : j + 1] @ history[: j + 1])
        step += count
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

    series = replace(
        series, outlet_temperatures=np.interp(probe_times, ends * grid.dt, outlet_history)
    )
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
        max_sweeps=1,
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
        If levels < 2.
    ArithmeticError
        If the error sequence is not strictly decreasing (a solver bug
        signal, reported with the full error column).
    """
    if not (isinstance(levels, int) and levels >= 2):
        raise ValueError(f"levels must be an integer >= 2, got {levels!r}")
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
