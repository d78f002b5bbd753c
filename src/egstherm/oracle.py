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
  mode by its amplification factor and adds the face forcing as one rank-1
  update covering all x-stations at once; node values are synthesized only
  where needed (face gradient, far-boundary check, snapshots, ledger).
* coupling: within a step the rock update is affine in its face temperature,
  so the fluid march solves the coupled step exactly, once per step, as one
  precomputed lower-triangular matrix (per theta) applied to the face
  gradient of the explicit part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analytic import ForecastSeries, fluid_temp_single
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
        y_max=y_max, dt=horizon / n_steps, nx=nx, ny=ny, bc_far="dirichlet_T0", ratio=ratio
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
        dt=horizon / n_steps,
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
        Outlet series tagged ``oracle``.

    Raises
    ------
    ValueError
        If the fluid march gain of either theta step is not positive: the
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
    if probe_times.size and probe_times.min() <= 0.0:
        raise ValueError("probe times must be > 0 s")
    if snapshot_times.size and snapshot_times.min() <= 0.0:
        raise ValueError("snapshot times must be > 0 s")

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
    # in-place BLAS rank-1 update: about a quarter of NumPy's outer-and-add
    from scipy.linalg.blas import dger

    pinned = grid.bc_far == "dirichlet_T0"
    # node rows in modal coordinates: the face gradient's interior part and,
    # when the far boundary is pinned, the node beside it
    rows = [stencil[1] * vectors[0] / root_w[0] + stencil[2] * vectors[1] / root_w[1]]
    if pinned:
        rows.append(vectors[-1] / root_w[-1])
    rows = np.array(rows)

    def theta_step(theta: float):
        # modal scale and face forcing of the theta step, the node rows seen
        # through them, and the fluid march solving the coupled step at once
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
        return scale[:, None], forcing, rows * scale, rows_forcing, march, inlet

    steppers = {theta: theta_step(theta) for theta in (1.0, 0.5)}

    # modal coefficients of the rock's deviation from T0 at every station,
    # and the fluid (face) deviation
    coeffs = np.zeros((lam.size, grid.nx + 1), order="F")
    fluid = np.zeros(grid.nx + 1)

    def rock_field() -> np.ndarray:
        rock = np.full((grid.ny + 1, grid.nx + 1), t_hot)
        rock[0] += fluid
        rock[1 : lam.size + 1] += (vectors @ coeffs) / root_w[:, None]
        return rock

    outlet_history = np.empty(n_steps + 1)
    outlet_history[0] = t_hot

    snapshots: list[RockSnapshot] = []
    snapshot_steps: dict[int, list[float]] = {}
    for ts in snapshot_times:
        step = min(max(1, round(ts / grid.dt)), n_steps) if n_steps else 0
        snapshot_steps.setdefault(step, []).append(float(ts))

    q_frac = sc.operating.total_rate / fr.count
    power_coeff = sc.fluid.density * sc.fluid.specific_heat * q_frac
    fluid_energy = 0.0
    power_old = power_coeff * (t_hot - t_cold)  # quasi-steady outlet limit at t -> 0

    for step in range(1, n_steps + 1):
        theta = 1.0 if step <= 2 else 0.5  # damped startup, then Crank-Nicolson
        scale, forcing, rows_scaled, rows_forcing, march, inlet = steppers[theta]

        # node rows after the explicit part (new face value still zero); the
        # step is affine in the new face value, so one march solves it
        explicit = (1.0 - theta) * fluid
        lead = rows_scaled @ coeffs + np.outer(rows_forcing, explicit)
        fluid = inlet + march @ lead[0]
        coeffs *= scale
        coeffs = dger(1.0, forcing, explicit + theta * fluid, a=coeffs, overwrite_a=True)
        outlet_history[step] = t_hot + fluid[-1]

        if pinned:
            disturbed = float(np.max(np.abs(lead[1] + theta * rows_forcing[1] * fluid)))
            if disturbed > _CONTAMINATION_LIMIT_C:
                raise RuntimeError(
                    "cooling front reached the truncated far boundary at "
                    f"t={step * grid.dt:.6g} s (deviation {disturbed:.3g} C beside "
                    f"y_max={grid.y_max:.6g} m); enlarge y_max for this horizon"
                )

        power_new = power_coeff * (outlet_history[step] - t_cold)
        fluid_energy += grid.dt * (theta * power_new + (1.0 - theta) * power_old)
        power_old = power_new

        if step in snapshot_steps:
            snapshots.append(
                RockSnapshot(
                    time=step * grid.dt, x=x.copy(), y=y.copy(), temperatures=rock_field()
                )
            )

    series = ForecastSeries(
        model="oracle",
        times=probe_times,
        outlet_temperatures=np.interp(
            probe_times, np.arange(n_steps + 1) * grid.dt, outlet_history
        )
        if n_steps
        else np.array([]),
        injection_temperature=t_cold,
        initial_temperature=t_hot,
    )
    if not (return_details or snapshots):
        return series

    rock_loss = None
    if not pinned:
        # finite inventory: every joule the slab loses crosses the face
        deficit = _trapezoid_weights(y) @ (t_hot - rock_field()) @ _trapezoid_weights(x)
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


def convergence_study(
    sc: Scenario,
    base_grid: OracleGrid,
    levels: int,
    probe_times: Sequence[float] | None = None,
) -> ConvergenceStudy:
    """Refine (nx, ny, 1/dt) together and track the error vs the closed form.

    Each level doubles the resolution of the previous one; the stretching
    ratio is square-rooted alongside so the node-placement mapping stays
    fixed and the scheme shows its clean order. Errors must shrink
    monotonically; the observed order comes from the two finest levels.

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
    if probe_times is None:
        probe_times = np.geomspace(0.05 * horizon, horizon, 8)
    probe_times = np.asarray(probe_times, dtype=float)
    reference = fluid_temp_single(sc, sc.fractures.flow_length, probe_times)

    rows: list[tuple[int, float]] = []
    for level in range(levels):
        factor = 2**level
        refined = OracleGrid(
            y_max=base_grid.y_max,
            dt=base_grid.dt / factor,
            nx=base_grid.nx * factor,
            ny=base_grid.ny * factor,
            bc_far=base_grid.bc_far,
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
