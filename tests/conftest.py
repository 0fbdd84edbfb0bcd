"""Shared fixtures.

The full adaptive experiment grid (3 schemes x 2 problems x 2 sizes x
2 CFL targets, T = 0.3) and the uniform-mesh baselines are expensive, so
each is run exactly once per session and shared by every test that needs
cross-run evidence.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import shockmesh as sm

GRID_PROBLEMS = ("transport", "burgers")
GRID_SIZES = (100, 200)
GRID_CFLS = (0.3, 0.5)
GRID_FINAL_TIME = 0.3


def make_problem(name):
    if name == "transport":
        return sm.transport_problem()
    if name == "burgers":
        return sm.burgers_problem()
    raise ValueError(name)


@pytest.fixture
def crowded_nodes(monkeypatch):
    """Make every reconstruction put nodes 5 and 6 on the two floats after
    node 4, where two cell interfaces can round together into a zero width."""
    real_equidistribute_cells = sm.remesh._equidistribute_cells

    def crowding(monitor, n):
        mesh, cells = real_equidistribute_cells(monitor, n)
        nodes = mesh.nodes.copy()
        nodes[5] = np.nextafter(nodes[4], np.inf)
        nodes[6] = np.nextafter(nodes[5], np.inf)
        return sm.Mesh(nodes), cells

    monkeypatch.setattr(sm.remesh, "_equidistribute_cells", crowding)


@pytest.fixture(scope="session")
def grid_runs():
    """Adaptive runs over the whole grid: key -> (RunResult, seconds)."""
    out = {}
    for scheme in sm.SchemeKind:
        for pname in GRID_PROBLEMS:
            for n in GRID_SIZES:
                for cfl in GRID_CFLS:
                    cfg = sm.RunConfig(
                        problem=make_problem(pname),
                        scheme=scheme,
                        n=n,
                        cfl_target=cfl,
                        final_time=GRID_FINAL_TIME,
                    )
                    started = time.monotonic()
                    result = sm.run_simulation(cfg)
                    out[(pname, scheme, n, cfl)] = (
                        result,
                        time.monotonic() - started,
                    )
    return out


@pytest.fixture(scope="session")
def uniform_runs():
    """Uniform-mesh baselines at N=200, CFL=0.5: key -> (outcome, seconds).

    The outcome is either a RunResult or the BlowUpError the run raised
    (expected for the anti-diffusive scheme on Burgers).
    """
    out = {}
    for scheme in sm.SchemeKind:
        for pname in GRID_PROBLEMS:
            cfg = sm.RunConfig(
                problem=make_problem(pname),
                scheme=scheme,
                n=200,
                cfl_target=0.5,
                final_time=GRID_FINAL_TIME,
                adaptive=False,
            )
            started = time.monotonic()
            try:
                outcome = sm.run_simulation(cfg)
            except sm.BlowUpError as exc:
                outcome = exc
            out[(pname, scheme)] = (outcome, time.monotonic() - started)
    return out
