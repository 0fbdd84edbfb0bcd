"""Meshes, cell geometry, flux problems and basic solution measures."""

import numpy as np
import pytest

import classical
from shockmesh import (
    CellGeometry,
    GridSolution,
    Mesh,
    burgers_problem,
    detect_extremes,
    make_jump_initial,
    piecewise_linear_sample,
    total_variation,
    transport_problem,
)


def test_uniform_mesh_is_linspace():
    mesh = Mesh.uniform(11)
    assert np.array_equal(mesh.nodes, np.linspace(0.0, 1.0, 11))
    assert mesh.a == 0.0 and mesh.b == 1.0
    assert len(mesh) == 11


def test_mesh_rejects_bad_nodes():
    with pytest.raises(ValueError):
        Mesh(np.array([0.0]))
    with pytest.raises(ValueError):
        Mesh(np.array([0.0, 0.5, 0.5, 1.0]))
    with pytest.raises(ValueError):
        Mesh(np.array([0.0, 0.6, 0.4, 1.0]))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Mesh(np.zeros((2, 2))), "1-D array"),
        (lambda: Mesh.uniform(1), "n must be at least 2"),
        (lambda: CellGeometry(np.array([0.5])), "at least two interfaces"),
    ],
    ids=["mesh_2d", "uniform_one_node", "cell_geometry_one_interface"],
)
def test_public_rejections(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_grid_solution_length_mismatch():
    mesh = Mesh.uniform(5)
    with pytest.raises(ValueError):
        GridSolution(mesh, np.zeros(4))


def test_cell_geometry_from_uniform_mesh_is_uniform():
    mesh = Mesh.uniform(9)  # gaps are exact binary fractions
    geom = CellGeometry.from_mesh(mesh)
    assert np.all(geom.widths == geom.widths[0])
    assert geom.widths[0] == mesh.nodes[1] - mesh.nodes[0]
    # interior interfaces sit exactly on node midpoints
    mids = 0.5 * (mesh.nodes[:-1] + mesh.nodes[1:])
    assert np.array_equal(geom.interfaces[1:-1], mids)


def test_cell_geometry_spans_extended_domain():
    mesh = Mesh(np.array([0.0, 0.2, 0.9, 1.0]))
    geom = CellGeometry.from_mesh(mesh)
    # half a gap beyond each end node
    assert geom.interfaces[0] == pytest.approx(-0.1)
    assert geom.interfaces[-1] == pytest.approx(1.05)
    assert np.all(geom.widths > 0.0)
    assert geom.widths.sum() == pytest.approx(geom.interfaces[-1] - geom.interfaces[0])


def test_cell_geometry_rejects_collapsed_interfaces():
    with pytest.raises(ValueError):
        CellGeometry(np.array([0.0, 0.5, 0.5, 1.0]))


def test_problem_fluxes():
    adv = transport_problem()
    u = np.array([-1.0, 0.0, 2.5])
    assert np.array_equal(adv.flux(u), u)
    assert np.array_equal(adv.dflux(u), np.ones_like(u))

    bur = burgers_problem()
    assert np.allclose(bur.flux(u), 0.5 * u * u)
    assert np.array_equal(bur.dflux(u), u)


def test_flux_convexity_validator():
    classical.validate_flux_convexity(transport_problem(), -2.0, 2.0)
    classical.validate_flux_convexity(burgers_problem(), -2.0, 2.0)
    from shockmesh import Problem

    concave = Problem("concave", lambda u: -0.5 * np.square(u), lambda u: -u)
    with pytest.raises(ValueError):
        classical.validate_flux_convexity(concave, -2.0, 2.0)


def test_jump_initial_condition():
    mesh = Mesh.uniform(11)
    sol = make_jump_initial(mesh, 0.5)
    assert isinstance(sol, GridSolution)
    assert np.all(sol.values[mesh.nodes <= 0.5] == 1.0)
    assert np.all(sol.values[mesh.nodes > 0.5] == 0.0)
    with pytest.raises(ValueError):
        make_jump_initial(mesh, 0.0)
    with pytest.raises(ValueError):
        make_jump_initial(mesh, 1.0)


def test_total_variation():
    assert total_variation(np.array([3.0])) == 0.0
    assert total_variation(np.array([0.0, 1.0, 0.0])) == 2.0
    assert total_variation(np.array([1.0, 1.0, 1.0])) == 0.0


def test_detect_extremes_interior_strict_only():
    # boundary values never count, plateaus are not strict
    vals = np.array([5.0, 1.0, 3.0, 3.0, 0.0, 2.0, -1.0])
    found = detect_extremes(vals)
    assert found.tolist() == [1, 4, 5]
    kinds = ["max" if vals[i] > vals[i - 1] else "min" for i in found]
    assert kinds == ["min", "min", "max"]
    for i in found:
        neighbours = vals[[i - 1, i + 1]]
        assert (vals[i] > neighbours).all() or (vals[i] < neighbours).all()


def test_detect_extremes_monotone_is_empty():
    assert detect_extremes(np.array([0.0, 1.0, 2.0, 3.0])).size == 0
    for short in ([], [1.0], [0.0, 1.0]):
        found = detect_extremes(np.array(short))
        assert found.size == 0 and found.dtype == np.intp


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: total_variation(np.array([[0.0, 1.0], [5.0, 0.0]])), "1-D array"),
        (lambda: total_variation(np.array(3.0)), "1-D array"),
        (lambda: detect_extremes([[0.0, 1.0, 0.0]]), "1-D array"),
        (lambda: detect_extremes(np.array(1.0)), "1-D array"),
        (
            lambda: piecewise_linear_sample(
                np.array([[0.0, 1.0]]), np.array([[0.0, 1.0]]), np.array([0.5])
            ),
            "1-D of equal length",
        ),
        (
            lambda: piecewise_linear_sample([0.0, 1.0], [0.0, 1.0, 7.0], [0.5]),
            "1-D of equal length",
        ),
        (
            lambda: piecewise_linear_sample([0.0, 0.5, 1.0], [0.0, 1.0], [0.5]),
            "1-D of equal length",
        ),
    ],
    ids=[
        "tv_2d",
        "tv_0d",
        "extremes_2d",
        "extremes_0d",
        "sample_2d",
        "sample_longer_ys",
        "sample_shorter_ys",
    ],
)
def test_measures_and_sampler_reject_malformed_arrays(call, message):
    with pytest.raises(ValueError, match=message):
        call()
