"""Reference operations that read the host's speed next to each measured one.

This machine's host runs each vCPU at about 60% speed for seconds to minutes
at a time; CPU time moves with wall time, so no clock leaves it out, and a
whole run can fall into a slow stretch. Each workload therefore times a fixed
reference operation of the same kind as its own before its first operation
and after each one, and scales each operation's wall time by the reference's
time on either side of it. A time so scaled is the time on a host at which
the reference operation takes ``REFERENCE_S``: this machine's fast phase.

None of the reference operations calls egstherm, so a change to the program
moves the measured time and leaves the reference alone.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

_X = np.linspace(1.0, 50.0, 1200)


def _scalar_loop() -> None:
    """NumPy scalar arithmetic in a Python loop, as in the Stehfest sum."""
    acc = 0.0
    for x in _X:
        acc += float(np.sqrt(x) * np.tanh(x * 1e-2) - np.exp(-x * 1e-2))


_AB = np.vstack([np.full(401, -1.0), np.full(401, 4.0), np.full(401, -1.0)])
_RHS = np.ones((401, 201))


def _banded_step() -> None:
    """Two steps of a banded solve on the oracle's default grid followed by
    a scalar march."""
    from scipy.linalg import solve_banded

    for _ in range(2):
        part = solve_banded((1, 1), _AB, _RHS)
        fluid = np.empty(201)
        fluid[0] = 0.0
        for i in range(200):
            fluid[i + 1] = 0.99 * fluid[i] + 0.01 * (part[0, i] + part[0, i + 1])


def _import_scipy() -> None:
    """A fresh interpreter importing the SciPy modules the CLI loads."""
    subprocess.run([sys.executable, "-c", "import numpy, scipy.integrate, scipy.linalg"],
                   check=True)


_PROBES = {"scalar": _scalar_loop, "banded": _banded_step, "import": _import_scipy}
# each reference operation's time on this machine in a fast phase
REFERENCE_S = {"scalar": 1.0e-3, "banded": 2.4e-3, "import": 0.60}
# the reference of each workload's operations; set-up is import-bound everywhere
FOR_WORKLOAD = {"design_sweep": "scalar", "oracle_crosscheck": "banded",
                "cli_session": "import"}


def probe(kind: str) -> float:
    """Seconds the reference operation of ``kind`` takes now."""
    start = time.perf_counter()
    _PROBES[kind]()
    return time.perf_counter() - start


def scale(kind: str, before: float, after: float) -> float:
    """Factor taking a time measured between two probes to reference speed."""
    return 2.0 * REFERENCE_S[kind] / (before + after)
