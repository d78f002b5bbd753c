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
  interior Laplacian is diagonalized once per run, so a step scales each
  mode by its amplification factor S and adds the face forcing, at every
  x-station at once. Being linear with constant S, the steps run in blocks
  (the two startup steps, then Crank-Nicolson blocks of _BLOCK steps): one
  matrix product gives the face gradient of every step in the block from
  its starting modes, the face values earned inside the block reach later
  steps through precomputed scalars, and one more product advances the
  modes to the block's end. Node values are synthesized only where needed
  (face gradient, far-boundary check, snapshots, ledger).
* coupling: within a step the rock update is affine in its face temperature,
  so the fluid march solves the coupled step exactly, once per step, as one
  precomputed lower-triangular matrix (per theta) applied to the face
  gradient of the explicit part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

# fluid_temp_single is read through its module at call time: this module may
# load after egstherm.analytic's bindings were replaced (perfbench/tracing.py
# wraps them), and a copy taken at import would then be wrapped twice
from . import analytic
from .analytic import ForecastSeries
from .scenario import Scenario, face_coupling, thermal_diffusivity, validate

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

# semi-infinite mode aborts when the truncated boundary is disturbed by
# more than this many degrees
_CONTAMINATION_LIMIT_C = 0.1

# Crank-Nicolson steps per block of the modal stepper; 16 to 64 run alike on
# the default grid
_BLOCK = 32


@dataclass(frozen=True)
class OracleGrid:
    """Discretization parameters.

    Attributes
    ----------
    y_max : float
        Rock depth covered, m. Semi-infinite mode wants >= 6 sqrt(alpha *
        horizon); slab mode uses exactly half the fracture spacing.
    dt : float
        Time step, s (horizon/2000 is the default choice).
    nx, ny : int
        Along-fracture and into-rock cell counts, both >= 16.
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
    ny: int = 400
    bc_far: str = "dirichlet_T0"
    ratio: float = 1.02

    def __post_init__(self) -> None:
        if not (isinstance(self.nx, int) and self.nx >= 16):
            raise ValueError(f"nx must be an integer >= 16, got {self.nx!r}")
        if not (isinstance(self.ny, int) and self.ny >= 16):
            raise ValueError(f"ny must be an integer >= 16, got {self.ny!r}")
        if not self.y_max > 0.0:
            raise ValueError(f"y_max must be > 0, got {self.y_max}")
        if not self.dt > 0.0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        if self.bc_far not in _BC_TAGS:
            raise ValueError(f"bc_far must be one of {_BC_TAGS}, got {self.bc_far!r}")
        if not 1.0 < self.ratio <= 1.1:
            raise ValueError(f"stretching ratio must lie in (1, 1.1], got {self.ratio}")

    def y_nodes(self) -> np.ndarray:
        """Stretched node positions 0 .. y_max (ny + 1 nodes)."""
        beta = self.ny * math.log(self.ratio)
        xi = np.arange(self.ny + 1) / self.ny
        return self.y_max * np.expm1(beta * xi) / math.expm1(beta)


def _step(horizon: float, n_steps: int) -> float:
    if not (isinstance(n_steps, int) and n_steps >= 1):
        raise ValueError(f"n_steps must be an integer >= 1, got {n_steps!r}")
    return horizon / n_steps


def semi_infinite_grid(
    sc: Scenario,
    nx: int = 200,
    ny: int = 400,
    n_steps: int = 2000,
    ratio: float = 1.02,
    horizon: float | None = None,
    y_max: float | None = None,
) -> OracleGrid:
    """Truncated half-space grid over ``horizon`` (default: the scenario's).

    The rock depth defaults to six diffusion lengths, 6 sqrt(alpha horizon).
    """
    if horizon is None:
        horizon = sc.operating.horizon
    if y_max is None:
        y_max = 6.0 * math.sqrt(thermal_diffusivity(sc.rock) * horizon)
    return OracleGrid(
        y_max=y_max, dt=_step(horizon, n_steps), nx=nx, ny=ny, bc_far="dirichlet_T0", ratio=ratio
    )


def slab_grid(
    sc: Scenario,
    nx: int = 200,
    ny: int = 400,
    n_steps: int = 2000,
    ratio: float = 1.02,
    horizon: float | None = None,
) -> OracleGrid:
    """Slab-mode grid over ``horizon`` (default: the scenario's); the domain
    ends at the zero-flux midplane, spacing/2."""
    if sc.fractures.spacing is None or not sc.fractures.spacing > 0.0:
        raise ValueError("slab mode requires a scenario with a positive fracture spacing")
    if horizon is None:
        horizon = sc.operating.horizon
    return OracleGrid(
        y_max=sc.fractures.spacing / 2.0,
        dt=_step(horizon, n_steps),
        nx=nx,
        ny=ny,
        bc_far="neumann_zero",
        ratio=ratio,
    )


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
    max_sweeps: int  # fluid marches per step: 1 (exact coupled step), 0 if no step ran
    n_steps: int

    @property
    def energy_imbalance(self) -> float | None:
        """|fluid - rock| / rock, or None outside slab mode."""
        if self.rock_heat_loss_J is None or self.rock_heat_loss_J == 0.0:
            return None
        return abs(self.fluid_enthalpy_J - self.rock_heat_loss_J) / self.rock_heat_loss_J


def _modes(y: np.ndarray, bc_far: str):
    """Eigenpairs of the interior 3-point Laplacian on the stretched grid.

    On the unknown nodes (1 .. ny-1 below a pinned far boundary, 1 .. ny
    with the mirrored zero-flux midplane) the operator is K = D^-1 S with S
    symmetric and D the trapezoid weights, so D^1/2 K D^-1/2 is symmetric
    tridiagonal. Returns its eigenvalues, orthonormal eigenvectors (one per
    column), the square-rooted weights and each mode's face coupling.
    """
    from scipy.linalg import eigh_tridiagonal

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
    return lam, vectors, root_w, vectors[0] * inv_h[0] / root_w[0]


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


def _march_matrix(gain: float, nx: int) -> np.ndarray:
    """Lower-triangular M with (M p)[i] = sum over j < i of
    gain**(i-1-j) * (p[j] + p[j+1]): the trapezoid march from a zero inlet."""
    lag = np.subtract.outer(np.arange(nx + 1), np.arange(nx + 1))
    powers = np.where(lag >= 0, gain ** np.maximum(lag, 0), 0.0)
    march = np.zeros_like(powers)
    march[1:] = powers[:-1] + powers[1:]
    march[1:, 0] -= powers[1:, 0]
    return march


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
        Times at which the full rock field is captured (nearest step).
    return_details : bool
        Also return :class:`OracleDetails` (implied by snapshot_times).

    Returns
    -------
    ForecastSeries, or (ForecastSeries, OracleDetails)
        Outlet series tagged ``oracle``. Block edges follow the step index
        alone, so the outlets do not depend on the snapshots or details
        asked for, and a shorter run reproduces the first steps of a
        longer one exactly.

    Raises
    ------
    ValueError
        If a probe or snapshot time is not a finite number > 0, or if the
        fluid march gain of either theta step is not positive: the
        grid is too coarse along x and the outlet would oscillate along it.
    RuntimeError
        If semi-infinite mode detects the cooling front disturbing the
        truncated far boundary (more than 0.1 C), which means y_max is too
        small for the horizon.
    """
    violations = validate(sc)
    if violations:
        raise ValueError("invalid scenario: " + "; ".join(violations))
    probe_times = np.asarray(probe_times, dtype=float)
    snapshot_times = np.asarray(snapshot_times, dtype=float)
    for name, times in (("probe", probe_times), ("snapshot", snapshot_times)):
        if times.size and times.min() <= 0.0:
            raise ValueError(f"{name} times must be > 0 s")
        if not np.all(np.isfinite(times)):
            raise ValueError(f"{name} times must be finite, got {times[~np.isfinite(times)][0]}")

    t_hot = sc.rock.initial_temperature
    t_cold = sc.fluid.injection_temperature
    alpha_dt = thermal_diffusivity(sc.rock) * grid.dt
    fr = sc.fractures
    coupling = face_coupling(sc)

    t_end = float(max(probe_times.max(initial=0.0), snapshot_times.max(initial=0.0)))
    n_steps = max(0, math.ceil(t_end / grid.dt - 1e-12))

    y = grid.y_nodes()
    x = np.linspace(0.0, fr.flow_length, grid.nx + 1)
    dx = x[1] - x[0]
    stencil = _gradient_stencil(y)
    lam, vectors, root_w, face_load = _modes(y, grid.bc_far)

    pinned = grid.bc_far == "dirichlet_T0"
    # node rows in modal coordinates: the face gradient's interior part and,
    # when the far boundary is pinned, the node beside it
    rows = [stencil[1] * vectors[0] / root_w[0] + stencil[2] * vectors[1] / root_w[1]]
    if pinned:
        rows.append(vectors[-1] / root_w[-1])
    rows = np.array(rows)

    def theta_block(theta: float, length: int):
        # a block of `length` theta steps from modal state c0: step j scales
        # by S and adds forcing * w_j, so the state after n steps is
        # S^n c0 + sum over k < n of S^(n-1-k) forcing w_k; the node rows of
        # every step come from c0 in one product, and the w_k already
        # earned in the block reach them through the scalars
        # h_d = rows . (S^d forcing)
        denom = 1.0 - theta * alpha_dt * lam
        scale = (1.0 + (1.0 - theta) * alpha_dt * lam) / denom
        forcing = alpha_dt * face_load / denom
        rows_forcing = rows @ forcing
        ratio_q = dx * coupling * (stencil[0] + theta * rows_forcing[0]) / 2.0
        gain = (1.0 + ratio_q) / (1.0 - ratio_q)
        if not gain > 0.0:
            raise ValueError(
                f"fluid march gain {gain:.3g} at theta={theta} is not positive "
                f"(nx={grid.nx}, dx={dx:.4g} m): the grid is too coarse along x "
                "and the outlet would oscillate along it; raise nx"
            )
        march = _march_matrix(gain, grid.nx) * (dx * coupling / 2.0 / (1.0 - ratio_q))
        inlet = (t_cold - t_hot) * gain ** np.arange(grid.nx + 1)
        powers = scale ** np.arange(length + 1)[:, None]  # row n: S^n
        # row j * len(rows) + i: node row i seen after step j's scale
        lead_rows = (powers[1:, None, :] * rows).reshape(-1, lam.size)
        # column i: h_(length - i), so h_(j-k) for k <= j is at length - j + k.
        # These sums cancel heavily and every block reuses them, so they are
        # accumulated in extended precision: in float64 their rounding moved
        # the zeinali slab outlet by 1e-7 C
        echo = (rows.astype(np.longdouble) @ (powers[::-1] * forcing).T).astype(float)
        # row j, column k <= j: h_(j-k) of the last node row (beside y_max
        # when it is pinned), carrying w_k into that node after step j
        lag = np.subtract.outer(np.arange(length), np.arange(length))
        far_echo = np.where(lag >= 0, echo[-1, length - np.maximum(lag, 0)], 0.0)
        # column k: S^(length-1-k) forcing, so the state after n steps takes
        # the last n columns against w_0 .. w_(n-1)
        carry = (powers[length - 1 :: -1] * forcing).T
        return powers, lead_rows, echo, far_echo, carry, march, inlet

    # the damped startup is one block of two steps; Crank-Nicolson runs in
    # blocks of _BLOCK, so block edges depend only on the step index
    blocks = {1.0: theta_block(1.0, 2), 0.5: theta_block(0.5, _BLOCK)}

    # modal coefficients of the rock's deviation from T0 at every station,
    # and the fluid (face) deviation
    coeffs = np.zeros((lam.size, grid.nx + 1))
    fluid = np.zeros(grid.nx + 1)
    work = np.empty_like(coeffs)
    earned = np.empty((_BLOCK, grid.nx + 1))  # w_j of each step in a block

    def rock_field(state: np.ndarray) -> np.ndarray:
        rock = np.full((grid.ny + 1, grid.nx + 1), t_hot)
        rock[0] += fluid
        rock[1 : lam.size + 1] += (vectors @ state) / root_w[:, None]
        return rock

    outlet_history = np.empty(n_steps + 1)
    outlet_history[0] = t_hot

    snapshots: list[RockSnapshot] = []
    snapshot_steps = {min(max(1, round(ts / grid.dt)), n_steps) for ts in snapshot_times}

    step = 0
    while step < n_steps:
        theta = 1.0 if step < 2 else 0.5  # damped startup, then Crank-Nicolson
        powers, lead_rows, echo, far_echo, carry, march, inlet = blocks[theta]
        length = carry.shape[1]
        # every block computes all its rows, so a run cut short inside a
        # block reproduces the longer run's outlets bit for bit
        leads = (lead_rows @ coeffs).reshape(length, rows.shape[0], -1)
        count = min(length, n_steps - step)
        for j in range(count):
            step += 1
            # face gradient after the explicit part (new face value still
            # zero); the step is affine in the new face value, so one march
            # solves it
            earned[j] = (1.0 - theta) * fluid
            fluid = inlet + march @ (leads[j, 0] + echo[0, length - j :] @ earned[: j + 1])
            earned[j] += theta * fluid
            outlet_history[step] = t_hot + fluid[-1]

            if step in snapshot_steps:
                state = _advance(powers, carry, coeffs, earned, j + 1, np.empty_like(coeffs), work)
                snapshots.append(
                    RockSnapshot(
                        time=step * grid.dt, x=x.copy(), y=y.copy(), temperatures=rock_field(state)
                    )
                )
        if pinned:
            # the node beside y_max after each step of the block
            near = leads[:count, 1] + far_echo[:count, :count] @ earned[:count]
            disturbed = np.max(np.abs(near), axis=1)
            if disturbed.max() > _CONTAMINATION_LIMIT_C:
                first = int(np.argmax(disturbed > _CONTAMINATION_LIMIT_C))
                raise RuntimeError(
                    "cooling front reached the truncated far boundary at "
                    f"t={(step - count + 1 + first) * grid.dt:.6g} s (deviation "
                    f"{disturbed[first]:.3g} C beside y_max={grid.y_max:.6g} m); "
                    "enlarge y_max for this horizon"
                )
        _advance(powers, carry, coeffs, earned, count, coeffs, work)

    series = ForecastSeries(
        model="oracle",
        times=probe_times,
        outlet_temperatures=np.interp(probe_times, np.arange(n_steps + 1) * grid.dt, outlet_history),
        injection_temperature=t_cold,
        initial_temperature=t_hot,
    )
    if not (return_details or snapshots):
        return series

    # produced enthalpy, each step by its theta rule; the outlet history
    # starts at T0, the quasi-steady outlet limit at t -> 0
    q_frac = sc.operating.total_rate / fr.count
    power = sc.fluid.density * sc.fluid.specific_heat * q_frac * (outlet_history - t_cold)
    weight = np.where(np.arange(1, n_steps + 1) <= 2, 1.0, 0.5)
    fluid_energy = grid.dt * float(np.sum(weight * power[1:] + (1.0 - weight) * power[:-1]))
    rock_loss = None
    if not pinned:
        # finite inventory: every joule the slab loses crosses the face
        deficit = _trapezoid_weights(y) @ (t_hot - rock_field(coeffs)) @ _trapezoid_weights(x)
        rock_loss = fr.faces * sc.rock.density * sc.rock.specific_heat * fr.height * deficit
    details = OracleDetails(
        snapshots=tuple(snapshots),
        fluid_enthalpy_J=fluid_energy,
        rock_heat_loss_J=rock_loss,
        max_sweeps=min(n_steps, 1),
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
