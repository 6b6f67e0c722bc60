"""Resistive grid solver: hand-checkable cases, conservation, and oracles.

The small-grid oracle builds the dense nodal system with plain loops and
numpy's dense solver, independent of the sparse path under test.
"""

import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.linalg.lapack as lapack
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpbtrf
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from pdnx import pdn_grid
from pdnx.errors import DegenerateGrid, SingularSystem
from pdnx.pdn_grid import GridProblem, ResistiveGrid, build_problem, solve_dc
from pdnx.placement import DieFloorplan, VrSite, place_periphery, place_under_die


def _sinks(problem: GridProblem) -> dict:
    """A problem's sinks as {node: amps}, in sink order."""
    return dict(zip(problem.sink_nodes.tolist(), problem.sink_currents.tolist()))


def _contacts(sources: dict, fanout: dict) -> dict:
    """GridProblem's contact fields from {source node: contact nodes}."""
    return {"contact_counts": [len(fanout[node]) for node in sources],
            "contact_nodes": [c for node in sources for c in fanout[node]]}


def _fanout(problem: GridProblem) -> dict:
    """A problem's contacts as {source node: contact nodes}."""
    per_vr = np.split(problem.contact_nodes, np.cumsum(problem.contact_counts)[:-1])
    return {node: tuple(c.tolist()) for node, c in zip(problem.source_nodes, per_vr)}


def _edges(grid: ResistiveGrid) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint index arrays of every lattice edge: the horizontal edges row
    by row, then the vertical ones, the order solve_dc sums the sheet loss in."""
    idx = np.arange(grid.n_nodes).reshape(grid.ny, grid.nx)
    return (np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()]),
            np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()]))


def _net_edge_inflow(problem: GridProblem, sol) -> np.ndarray:
    """Net current into each plane node over the lattice edges, each edge's
    current recomputed from the solved node voltages by Ohm's law."""
    a, b = _edges(problem.grid)
    v = sol.node_voltages
    current = (v[a] - v[b]) / problem.grid.sheet_resistance_ohm_sq
    net = np.zeros(problem.grid.n_nodes)
    np.add.at(net, a, -current)
    np.add.at(net, b, current)
    return net


class TestHandCases:
    def test_two_node_divider(self):
        # source 1 V at node 0, 10 A sink at node 1 through 1 mOhm
        grid = ResistiveGrid(2, 1, 1.0, 0.001)
        problem = GridProblem(grid, {0: 1.0}, {1: 10.0})
        sol = solve_dc(problem)
        assert sol.node_voltages[1] == pytest.approx(0.99, rel=1e-12)
        assert sol.vr_currents[0] == pytest.approx(10.0, rel=1e-12)
        # 0.1 W in the plane, doubled for the ground return
        assert sol.horizontal_loss_w == pytest.approx(0.2, rel=1e-12)

    def test_single_source_carries_everything(self):
        grid = ResistiveGrid(5, 5, 1.0, 0.002)
        sinks = {i: 2.0 for i in range(25) if i != 12}
        problem = GridProblem(grid, {12: 1.0}, sinks)
        sol = solve_dc(problem)
        assert sol.vr_currents.min() == sol.vr_currents.max() == pytest.approx(48.0, rel=1e-10)

    def test_fourfold_symmetric_sources_share_equally(self):
        # sources at the four mid-edges of a 9x9 grid, sink at the center
        grid = ResistiveGrid(9, 9, 1.0, 0.001)
        mid = 4
        sources = {
            grid.node_index(mid, 0): 1.0,
            grid.node_index(0, mid): 1.0,
            grid.node_index(8, mid): 1.0,
            grid.node_index(mid, 8): 1.0,
        }
        problem = GridProblem(grid, sources, {grid.node_index(mid, mid): 100.0})
        sol = solve_dc(problem)
        assert sol.vr_currents == pytest.approx([25.0] * 4, rel=1e-10)


class TestConservationAndBounds:
    def _a1_like_problem(self, weight=0.0):
        plan = DieFloorplan(500.0, 8.0)
        sites = place_periphery(plan, 48, 5 / 0.69)
        return build_problem(plan, sites, 1000.0, sheet_resistance_ohm_sq=5e-4,
                             grid_resolution=32, demand_weight=weight)

    def test_current_conservation(self):
        problem = self._a1_like_problem()
        sol = solve_dc(problem)
        total_sink = sum(_sinks(problem).values())
        assert abs(sol.vr_currents.sum() - total_sink) <= 1e-8 * total_sink

    def test_kirchhoff_at_free_nodes(self):
        problem = self._a1_like_problem()
        sol = solve_dc(problem)
        n = problem.grid.n_nodes
        net = _net_edge_inflow(problem, sol)
        for idx, cur in _sinks(problem).items():
            net[idx] -= cur
        free = np.ones(n, dtype=bool)
        free[list(problem.source_nodes)] = False
        assert np.max(np.abs(net[free])) <= 1e-8

    def test_maximum_principle(self):
        problem = self._a1_like_problem(weight=1.5)
        sol = solve_dc(problem)
        assert sol.node_voltages.max() <= 1.0 + 1e-12

    def test_sheet_resistance_scaling(self):
        plan = DieFloorplan(500.0, 8.0)
        sites = place_periphery(plan, 48, 5 / 0.69)
        base = solve_dc(build_problem(plan, sites, 1000.0, 5e-4, 32))
        scaled = solve_dc(build_problem(plan, sites, 1000.0, 1e-3, 32))
        assert scaled.horizontal_loss_w == pytest.approx(
            2.0 * base.horizontal_loss_w, rel=1e-12)
        assert scaled.vr_currents == pytest.approx(base.vr_currents, rel=1e-12)

    def test_refinement_changes_loss_mildly(self):
        # The shipped calibration fixture: periphery bank, radial demand,
        # droop sharing. Doubling the lattice must not move the loss much.
        plan = DieFloorplan(500.0, 8.0)
        sites = place_periphery(plan, 48, 5 / 0.69)
        droop = 0.6 * 0.004644808743169397
        coarse = solve_dc(build_problem(plan, sites, 1000.0, 5e-4, 32,
                                        demand_weight=2.0, droop_resistance_ohm=droop))
        fine = solve_dc(build_problem(plan, sites, 1000.0, 5e-4, 63,
                                      demand_weight=2.0, droop_resistance_ohm=droop))
        rel = abs(fine.horizontal_loss_w - coarse.horizontal_loss_w)
        assert rel / coarse.horizontal_loss_w < 0.05


def _dense_oracle(grid: ResistiveGrid, sources: dict, sinks: dict) -> np.ndarray:
    """Dense Gaussian-elimination solution, built with plain loops."""
    n = grid.n_nodes
    g = 1.0 / grid.sheet_resistance_ohm_sq
    lap = np.zeros((n, n))
    for j in range(grid.ny):
        for i in range(grid.nx):
            a = grid.node_index(i, j)
            for (i2, j2) in ((i + 1, j), (i, j + 1)):
                if i2 < grid.nx and j2 < grid.ny:
                    b = grid.node_index(i2, j2)
                    lap[a, a] += g
                    lap[b, b] += g
                    lap[a, b] -= g
                    lap[b, a] -= g
    rhs = np.zeros(n)
    for idx, cur in sinks.items():
        rhs[idx] -= cur
    free = [i for i in range(n) if i not in sources]
    fixed = list(sources)
    v_fixed = np.array([sources[i] for i in fixed])
    a_ff = lap[np.ix_(free, free)]
    a_fs = lap[np.ix_(free, fixed)]
    v_free = np.linalg.solve(a_ff, rhs[free] - a_fs @ v_fixed)
    voltages = np.zeros(n)
    voltages[free] = v_free
    voltages[fixed] = v_fixed
    return voltages


class TestDenseOracle:
    @pytest.mark.parametrize("nx,ny", [(2, 2), (3, 3), (4, 4), (4, 3)])
    def test_matches_dense_elimination(self, nx, ny):
        grid = ResistiveGrid(nx, ny, 0.7, 0.0013)
        sources = {0: 1.0, grid.n_nodes - 1: 1.0}
        sinks = {i: 1.5 for i in range(1, grid.n_nodes - 1)}
        sol = solve_dc(GridProblem(grid, sources, sinks))
        expected = _dense_oracle(grid, sources, sinks)
        assert sol.node_voltages == pytest.approx(expected, abs=1e-12)


def _droop_laplacian(grid: ResistiveGrid, sources: dict, fanout: dict,
                     droop: float) -> np.ndarray:
    """Dense Laplacian of plane plus VR branches, with plain loops: node
    n + k is VR k's rail."""
    n = grid.n_nodes
    size = n + len(sources)
    lap = np.zeros((size, size))

    def branch(a, b, g):
        lap[a, a] += g
        lap[b, b] += g
        lap[a, b] -= g
        lap[b, a] -= g

    g_sheet = 1.0 / grid.sheet_resistance_ohm_sq
    for j in range(grid.ny):
        for i in range(grid.nx):
            for (i2, j2) in ((i + 1, j), (i, j + 1)):
                if i2 < grid.nx and j2 < grid.ny:
                    branch(grid.node_index(i, j), grid.node_index(i2, j2), g_sheet)
    for k, node in enumerate(sources):
        for c in fanout[node]:
            branch(n + k, c, 1.0 / (droop * len(fanout[node])))
    return lap


def _dense_droop_oracle(grid: ResistiveGrid, sources: dict, fanout: dict,
                        droop: float, sinks: dict):
    """Virtual-node system solved densely for the node voltages.

    Returns plane voltages, per-VR currents and the power-weighted plane-side
    terminal voltage of each VR.
    """
    n = grid.n_nodes
    size = n + len(sources)
    lap = _droop_laplacian(grid, sources, fanout, droop)
    rhs = np.zeros(size)
    for idx, cur in sinks.items():
        rhs[idx] -= cur
    v_fixed = np.array(list(sources.values()))
    fixed = list(range(n, size))
    free = list(range(n))
    v_free = np.linalg.solve(lap[np.ix_(free, free)],
                             rhs[free] - lap[np.ix_(free, fixed)] @ v_fixed)
    currents, terminal = [], []
    for k, (node, v_src) in enumerate(sources.items()):
        g = 1.0 / (droop * len(fanout[node]))
        branch_i = [g * (v_src - v_free[c]) for c in fanout[node]]
        currents.append(sum(branch_i))
        terminal.append(sum(i * v_free[c] for i, c in zip(branch_i, fanout[node]))
                        / currents[-1])
    return v_free, np.array(currents), np.array(terminal)


def _dense_drops(grid: ResistiveGrid, sources: dict, fanout: dict, droop: float,
                 sinks: dict) -> tuple[np.ndarray, np.ndarray]:
    """The whole nodal system, pinned or with VR branches, solved densely for
    the drops below the first source voltage.

    Returns the plane nodes' drops and the VR currents, source order.
    """
    n = grid.n_nodes
    if droop > 0.0:
        lap = _droop_laplacian(grid, sources, fanout, droop)
        pinned = list(range(n, n + len(sources)))
    else:
        lap = _droop_laplacian(grid, {}, {}, droop)
        pinned = list(sources)
    free = [i for i in range(lap.shape[0]) if i not in pinned]
    v_src = np.array(list(sources.values()))
    u = np.zeros(lap.shape[0])
    u[pinned] = v_src - v_src[0]
    injections = np.zeros(lap.shape[0])
    for idx, cur in sinks.items():
        injections[idx] -= cur
    u[free] = np.linalg.solve(lap[np.ix_(free, free)],
                              injections[free] - lap[np.ix_(free, pinned)] @ u[pinned])
    return u[:n], lap[pinned] @ u


def _close_to_dense(sol, problem: GridProblem, drops: np.ndarray,
                    currents: np.ndarray) -> None:
    """Node voltages to 1e-12 of the largest voltage in the nodal system,
    source voltages included, and VR currents to 1e-10 of the largest.

    The solve is accurate in the drops below the rail; a plane that sags
    far below its rail has node voltages much smaller than the drops."""
    source_v = np.array(list(problem.source_nodes.values()))
    voltages = drops + source_v[0]
    scale = max(np.abs(voltages).max(), np.abs(source_v).max())
    assert np.abs(sol.node_voltages - voltages).max() <= 1e-12 * scale
    assert np.abs(sol.vr_currents - currents).max() <= 1e-10 * np.abs(currents).max()


class TestDroopDenseOracle:
    @pytest.mark.parametrize("nx,ny", [(3, 3), (4, 3), (5, 5)])
    def test_multi_contact_fanout_matches_dense(self, nx, ny):
        grid = ResistiveGrid(nx, ny, 0.7, 0.0013)
        n = grid.n_nodes
        sources = dict.fromkeys((0, n - 1, nx - 1), 0.98)
        fanout = {0: (0, 1, nx), n - 1: (n - 1, n - 2), nx - 1: (nx - 1,)}
        sinks = {i: 0.5 + 0.1 * i for i in range(1, n - 1) if i != nx - 1}
        droop = 2e-3
        sol = solve_dc(GridProblem(grid, sources, sinks, droop_resistance_ohm=droop,
                                   **_contacts(sources, fanout)))
        v, currents, terminal = _dense_droop_oracle(grid, sources, fanout, droop, sinks)
        assert sol.node_voltages == pytest.approx(v, abs=1e-12)
        assert sol.vr_currents == pytest.approx(currents, rel=1e-10)
        assert sol.vr_plane_voltages == pytest.approx(terminal, rel=1e-12)


class TestDropFormPrecision:
    """On a 12 V rail every VR current is a small difference of large node
    voltages. The oracle solves for the drops below the rail directly:
    L[:n, :n] u = injections, and VR k's current is -sum_c g_c u_c."""

    @pytest.mark.parametrize("seed", range(6))
    def test_vr_currents_match_dense_drop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        grid = ResistiveGrid(9, 9, float(rng.uniform(0.3, 2.0)), float(rng.uniform(1e-4, 2e-3)))
        n = grid.n_nodes
        nodes = [int(i) for i in rng.permutation(n)]
        sources = {node: 12.0 for node in nodes[:4]}
        fanout = {node: tuple(sorted({node, *(int(c) for c in rng.choice(n, 4))}))
                  for node in sources}
        sinks = {node: float(rng.uniform(0.1, 2.0)) for node in nodes[4:]}
        droop = float(rng.uniform(1e-4, 5e-3))
        sol = solve_dc(GridProblem(grid, sources, sinks, droop_resistance_ohm=droop,
                                   **_contacts(sources, fanout)))

        lap = _droop_laplacian(grid, sources, fanout, droop)
        injections = np.zeros(n)
        for idx, cur in sinks.items():
            injections[idx] -= cur
        u = np.linalg.solve(lap[:n, :n], injections)
        currents = [-sum(u[c] for c in fanout[node]) / (droop * len(fanout[node]))
                    for node in sources]
        assert sol.vr_currents == pytest.approx(currents, rel=1e-13, abs=0.0)


@st.composite
def _random_problems(draw):
    nx = draw(st.integers(2, 6))
    ny = draw(st.integers(1, 6))
    n = nx * ny
    grid = ResistiveGrid(nx, ny, draw(st.floats(0.1, 2.0)), draw(st.floats(1e-4, 1e-2)))
    nodes = draw(st.permutations(range(n)))
    n_src = draw(st.integers(1, n - 1))
    sources = dict.fromkeys(nodes[:n_src], draw(st.floats(0.9, 1.1)))
    sinks = {node: draw(st.floats(0.1, 10.0)) for node in nodes[n_src:]}
    droop = draw(st.sampled_from([0.0, 1e-4, 3e-3]))
    fanout = {node: tuple(sorted({node, *draw(st.lists(st.integers(0, n - 1), max_size=3))}))
              for node in sources}
    return GridProblem(grid, sources, sinks, droop_resistance_ohm=droop,
                       **_contacts(sources, fanout))


class TestUnifiedOperatorProperties:
    @settings(max_examples=60, deadline=None)
    @given(_random_problems())
    def test_conservation_and_kirchhoff(self, problem):
        sol = solve_dc(problem)
        total = sum(_sinks(problem).values())
        assert abs(sol.vr_currents.sum() - total) <= 1e-9 * total
        # Net current into every free plane node: lattice edges, VR branches
        # (droop only; their nodes are then free) and the sink draw.
        n = problem.grid.n_nodes
        net = _net_edge_inflow(problem, sol)
        for idx, cur in _sinks(problem).items():
            net[idx] -= cur
        free = np.ones(n, dtype=bool)
        droop = problem.droop_resistance_ohm
        if droop > 0:
            for node, v_src in problem.source_nodes.items():
                contacts = _fanout(problem)[node]
                for c in contacts:
                    net[c] += (v_src - sol.node_voltages[c]) / (droop * len(contacts))
        else:
            free[list(problem.source_nodes)] = False
        assert np.max(np.abs(net[free])) <= 1e-8 * total

    @settings(max_examples=60, deadline=None)
    @given(_random_problems())
    def test_tellegen_power_balance(self, problem):
        # Power the VR terminals put into the plane is what the sinks draw at
        # their node voltages plus the I^2R of one plane; horizontal_loss_w
        # counts the mirrored ground return as a second, equal plane.
        sol = solve_dc(problem)
        terminal_in = float(np.dot(sol.vr_plane_voltages, sol.vr_currents))
        sunk = sum(cur * sol.node_voltages[idx]
                   for idx, cur in _sinks(problem).items())
        assert terminal_in == pytest.approx(sunk + sol.horizontal_loss_w / 2.0,
                                            rel=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(_random_problems(), st.floats(0.1, 10.0))
    def test_loss_linear_in_sheet_resistance(self, problem, factor):
        # With every VR on one rail, scaling every resistance (sheet and
        # droop) leaves the currents as they are and scales the plane loss by
        # the same factor.
        grid = problem.grid
        scaled = GridProblem(
            ResistiveGrid(grid.nx, grid.ny, grid.cell_pitch_mm,
                          grid.sheet_resistance_ohm_sq * factor),
            problem.source_nodes, problem.sink_currents, problem.sink_nodes,
            droop_resistance_ohm=problem.droop_resistance_ohm * factor,
            contact_counts=problem.contact_counts, contact_nodes=problem.contact_nodes)
        base, other = solve_dc(problem), solve_dc(scaled)
        assert other.horizontal_loss_w == pytest.approx(
            factor * base.horizontal_loss_w, rel=1e-9, abs=1e-300)
        assert other.vr_currents == pytest.approx(base.vr_currents, rel=1e-8, abs=1e-9)


@pytest.fixture
def factorisations(monkeypatch):
    """Empty operator slot; records the key of every plane operator built,
    the shape and the factor of every sector block factored, and the keyword
    arguments of every splu call."""
    made = SimpleNamespace(planes=[], sectors=[], factors=[], splu_options=[])
    factor, factor_block, splu = pdn_grid._factor_plane, pdn_grid._factor_block, spla.splu

    def counted(*args):
        sector = args[-1]
        made.sectors.append((sector.lo.size, sector.lo.size))
        made.factors.append(factor_block(*args))
        return made.factors[-1]

    def splu_counted(matrix, *args, **kwargs):
        made.splu_options.append(kwargs)
        return splu(matrix, *args, **kwargs)

    monkeypatch.setattr(pdn_grid, "_factor_plane",
                        lambda key: made.planes.append(key) or factor(key))
    monkeypatch.setattr(pdn_grid, "_factor_block", counted)
    monkeypatch.setattr(spla, "splu", splu_counted)
    monkeypatch.setattr(pdn_grid, "_operator", None)
    return made


def _fanout_problem(**changes) -> GridProblem:
    """A drooped 6x6 plane with two multi-contact VRs; fields overridable."""
    fields = dict(grid=ResistiveGrid(6, 6, 1.0, 1e-3),
                  source_nodes={0: 1.0, 35: 1.0},
                  sink_currents={i: 1.0 + 0.1 * i for i in range(7, 29)},
                  droop_resistance_ohm=2e-3,
                  source_fanout={0: (0, 1, 6), 35: (34, 35)})
    fields.update(changes)
    fanout = fields.pop("source_fanout")
    return GridProblem(**fields, **_contacts(fields["source_nodes"], fanout))


class TestFactorReuse:
    # _fanout_problem's plane has one sector: VR 35's contacts (34, 35) are
    # not their own mirror image. Pinned at 0 and 35 it has two, and its
    # sinks have a component in each.

    def test_sinks_and_rail_voltage_reuse_the_factor(self, factorisations):
        solve_dc(_fanout_problem())
        solve_dc(_fanout_problem(sink_currents={i: 2.0 for i in range(7, 20)}))
        solve_dc(_fanout_problem(source_nodes={0: 12.0, 35: 12.0}))
        assert len(factorisations.planes) == 1
        assert factorisations.sectors == [(36, 36)]

    @pytest.mark.parametrize("changes,sectors", [
        ({"grid": ResistiveGrid(7, 6, 1.0, 1e-3)}, [(42, 42)]),
        ({"grid": ResistiveGrid(6, 6, 1.0, 2e-3)}, [(36, 36)]),
        ({"source_nodes": {0: 1.0, 30: 1.0},
          "source_fanout": {0: (0, 1, 6), 30: (30, 31)}}, [(36, 36)]),
        ({"source_nodes": {35: 1.0, 0: 1.0}}, [(36, 36)]),
        ({"source_fanout": {0: (0, 1), 35: (34, 35)}}, [(36, 36)]),
        ({"droop_resistance_ohm": 3e-3}, [(36, 36)]),
        ({"droop_resistance_ohm": 0.0}, [(19, 19), (15, 15)]),
    ], ids=["lattice", "sheet", "sources", "source_order", "fanout", "droop", "pinned"])
    def test_a_new_plane_misses_the_slot(self, factorisations, changes, sectors):
        base = _fanout_problem()
        first = solve_dc(base)
        solve_dc(_fanout_problem(**changes))
        assert len(factorisations.planes) == 2
        assert factorisations.sectors == [(36, 36), *sectors]
        # The slot holds only the last plane: the first one factors again.
        again = solve_dc(base)
        assert len(factorisations.planes) == 3
        assert factorisations.sectors == [(36, 36), *sectors, (36, 36)]
        assert again.vr_currents == pytest.approx(first.vr_currents, rel=1e-15)

    def test_fanout_is_no_key_without_droop(self, factorisations):
        solve_dc(_fanout_problem(droop_resistance_ohm=0.0))
        solve_dc(_fanout_problem(droop_resistance_ohm=0.0, source_fanout={0: (0,), 35: (35,)}))
        assert len(factorisations.planes) == 1
        assert factorisations.sectors == [(19, 19), (15, 15)]

    @pytest.mark.parametrize("droop", [2e-3, 0.0])
    def test_numpy_int_source_nodes_reuse_the_factor(self, factorisations, droop):
        solve_dc(_fanout_problem(droop_resistance_ohm=droop))
        solve_dc(_fanout_problem(droop_resistance_ohm=droop,
                                 source_nodes={np.int64(0): 1.0, np.int64(35): 1.0}))
        assert len(factorisations.planes) == 1

    def test_a3_solves_and_factors_each_plane_once(self, factorisations, monkeypatch):
        # The final plane and the intermediate plane each factor once and
        # are solved once: the intermediate plane's operating point is its
        # base-demand solution scaled. Both planes split, and both demands
        # are mirror-symmetric: the intermediate plane's sinks, the POL VRs'
        # input currents, differ from their mirror images only by rounding.
        # So only the symmetric sectors are factorised.
        from pdnx.architecture import build_architecture, evaluate
        from pdnx.datasets import load_datasets

        solves = []
        solve = pdn_grid.solve_dc
        monkeypatch.setattr(pdn_grid, "solve_dc",
                            lambda problem: solves.append(problem) or solve(problem))
        ds = load_datasets()
        evaluate(build_architecture("A3@12V", "DSCH", ds), ds)
        assert len(solves) == 2
        assert solves[0].grid != solves[1].grid
        assert len(factorisations.planes) == 2
        # 63x63 POL plane: (3969 + 63) / 2 orbits; 105x105 intermediate
        # plane: 5565 orbits.
        assert factorisations.sectors == [(2016, 2016), (5565, 5565)]

    def test_compare10_factors_every_sector_in_band(self, factorisations, monkeypatch):
        # compare10's five sector blocks have wavefront bandwidths 32 to 53,
        # all within the band cut, and each band is assembled from its
        # plane's stencil: the run builds no sparse matrix at all.
        from pdnx.architecture import compare
        from pdnx.datasets import load_datasets

        ds = load_datasets()

        def refuse(*args, **kwargs):
            raise AssertionError("compare10 built a sparse matrix")

        for name in ("csr_matrix", "csc_matrix", "coo_matrix"):
            monkeypatch.setattr(sp, name, refuse)
        compare(["A0", "A1", "A2", "A3@12V", "A3@6V"], ["DSCH", "DPMIH"], ds)
        assert all(isinstance(f, pdn_grid._BandCholesky) for f in factorisations.factors)
        assert [f.band.shape[0] - 1 for f in factorisations.factors] == [48, 32, 32, 53, 53]
        assert not any(f.lower for f in factorisations.factors)
        assert factorisations.splu_options == []

    def test_a_block_above_the_cut_is_factored_one_column_per_panel(self, factorisations):
        # A rectangular plane is one sector, and the wavefront bandwidth of
        # its even-wavefront Schur complement is its shorter side plus one,
        # here one above the reduced cut. SuperLU's default 20-column panel
        # costs more than it saves on the narrow supernodes of a lattice
        # block under minimum degree.
        side = pdn_grid._REDUCED_MAX_WIDTH
        grid = ResistiveGrid(side, side + 1, 1.0, 1e-3)
        solution = solve_dc(GridProblem(grid, {0: 1.0}, {grid.n_nodes - 1: 2.0}))
        (lu,) = factorisations.factors
        assert isinstance(lu, pdn_grid._OddEven)
        assert isinstance(lu.schur, spla.SuperLU)
        assert factorisations.splu_options == [{"permc_spec": "MMD_AT_PLUS_A", "panel_size": 1}]
        # One source across a 200x201 lattice: cond(A), which grows with the
        # lattice's area, is several times the 82x83 lattice's 1e5.
        assert solution.vr_currents == pytest.approx([2.0], rel=1e-10)

    @pytest.mark.parametrize("arch,resolution,width", [
        ("A1", 48, 72), ("A1", 64, 96), ("A1", 96, 142), ("A2", 64, 65), ("A2", 96, 97)])
    def test_mesh_ladder_planes_make_no_splu_call(self, factorisations, arch, resolution,
                                                  width):
        # mesh_ladder's only blocks above the band cut (A2's lattice at an
        # even resolution is refined to 191 nodes across). Reduced to their
        # even wavefronts they are within the reduced cut, so band Cholesky
        # factors them, in LAPACK's lower band, and SuperLU is never called.
        from pdnx.architecture import build_architecture, evaluate
        from pdnx.datasets import load_datasets

        ds = load_datasets({"calibration-default": {"grid_resolution": resolution}})
        evaluate(build_architecture(arch, "DSCH", ds, total_power_w=1000.0,
                                    pol_voltage_v=1.0), ds)
        (lu,) = factorisations.factors
        assert isinstance(lu, pdn_grid._OddEven)
        assert lu.schur.band.shape[0] - 1 == width
        assert lu.schur.lower
        assert factorisations.splu_options == []

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.0, 10.0), min_size=25, max_size=25).filter(
        lambda cur: sum(cur) > 0), st.sampled_from([0.0, 2e-3]))
    def test_memoised_solve_equals_fresh_factor(self, currents, droop):
        def problem(sinks):
            return GridProblem(ResistiveGrid(9, 3, 0.8, 5e-4), {0: 12.0, 26: 12.0},
                               sinks, droop_resistance_ohm=droop,
                               **_contacts({0: 12.0, 26: 12.0},
                                           {0: (0, 1, 9), 26: (25, 26)}))

        solve_dc(problem({13: 1.0}))
        sinks = dict(zip(range(1, 26), currents))
        memoised = solve_dc(problem(sinks))
        pdn_grid._operator = None
        fresh = solve_dc(problem(sinks))
        assert memoised.vr_currents == pytest.approx(fresh.vr_currents, rel=1e-12)
        assert memoised.node_voltages == pytest.approx(fresh.node_voltages, rel=1e-12)
        assert memoised.horizontal_loss_w == pytest.approx(fresh.horizontal_loss_w,
                                                           rel=1e-12, abs=1e-300)


class TestBandFactor:
    """A sector block up to the band cut is factored by band Cholesky in
    wavefront order; a wider one is reduced to its even wavefronts, whose
    Schur complement is factored by band Cholesky up to the reduced cut and
    by SuperLU above it. All three solve the same system."""

    @staticmethod
    def _solve(problem: GridProblem, cut: float, reduced_cut: float = math.inf):
        with mock.patch.object(pdn_grid, "_BAND_MAX_WIDTH", cut), \
                mock.patch.object(pdn_grid, "_REDUCED_MAX_WIDTH", reduced_cut), \
                mock.patch.object(pdn_grid, "_operator", None):
            return solve_dc(problem)

    # Two backward-stable solves of one system differ by up to cond(A) times
    # the rounding unit. A VR bank of 4 to 16 VRs, like the tool's, keeps
    # every node near a source and cond(A) low enough for 1e-12; a lone VR
    # far across a 100x100 lattice does not. Lattices up to 96 nodes across
    # give wavefront bandwidths on both sides of the cut.
    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 96), st.integers(2, 96), st.integers(4, 16),
           st.one_of(st.just(0.0), st.floats(1e-5, 1e-3)), st.booleans(),
           st.randoms(use_true_random=False))
    def test_band_and_superlu_agree(self, nx, ny, n_sources, droop, mirrored, rnd):
        if mirrored:
            ny = nx    # sources and sinks closed under the mirror: two sectors
        grid = ResistiveGrid(nx, ny, 1.0, 1e-3)
        nodes = rnd.sample(range(grid.n_nodes), min(grid.n_nodes, n_sources + 30))
        amps = {node: rnd.uniform(0.1, 5.0) for node in nodes}
        if mirrored:
            image = {node: node % nx * nx + node // nx for node in nodes}
            nodes = list(dict.fromkeys(n for node in nodes for n in (node, image[node])))
            amps.update({image[node]: amps[node] for node in list(amps)})
        assume(len(nodes) > n_sources)
        sources, sinks = nodes[:n_sources], nodes[n_sources:]
        if mirrored:
            assume(all(image.get(node, node % nx * nx + node // nx) in sources
                       for node in sources))
        problem = GridProblem(grid, dict.fromkeys(sources, 1.0),
                              {node: amps[node] for node in sinks},
                              droop_resistance_ohm=droop)
        band = self._solve(problem, math.inf)
        drop_band = 1.0 - band.node_voltages
        total = float(problem.sink_currents.sum())
        for reduced_cut in (math.inf, -1):
            lu = self._solve(problem, -1, reduced_cut)
            drop_lu = 1.0 - lu.node_voltages
            assert np.abs(drop_band - drop_lu).max() <= 1e-12 * np.abs(drop_lu).max()
            assert np.abs(band.vr_currents - lu.vr_currents).max() <= 1e-12 * total
            assert band.horizontal_loss_w == pytest.approx(lu.horizontal_loss_w, rel=1e-12)
            assert max(band.residual, lu.residual) <= 1e-10

    def test_wavefront_bandwidth_decides_the_factor(self, factorisations):
        # Row-major order would put the 40x90 plane's band at 40 and the
        # 90x40 plane's at 90; by wavefront they are 41 and 40. A plane of
        # (cut - 1) x 90 nodes has bandwidth 63, right at the band cut: it
        # is factored whole. One of cut x 90 has 64, one above: it is
        # reduced to its even wavefronts, whose Schur complement has
        # bandwidth 65. A plane one node narrower than the reduced cut has a
        # Schur complement right at it, so its factor is banded too; one a
        # node wider goes to SuperLU. Whole blocks keep LAPACK's upper band,
        # reduced ones the lower.
        cut, side = pdn_grid._BAND_MAX_WIDTH, pdn_grid._REDUCED_MAX_WIDTH
        assert cut == 63
        for nx, ny in [(40, 90), (90, 40), (cut - 1, 90), (cut, 90), (side - 1, side),
                       (side, side + 1)]:
            grid = ResistiveGrid(nx, ny, 1.0, 1e-3)
            solve_dc(GridProblem(grid, {0: 1.0}, {grid.n_nodes - 1: 1.0}))
        *whole, reduced, at_cut, above = factorisations.factors
        assert [lu.band.shape[0] for lu in whole] == [42, 41, cut + 1]
        assert not any(lu.lower for lu in whole)
        assert isinstance(reduced, pdn_grid._OddEven)
        assert [reduced.schur.band.shape[0], at_cut.schur.band.shape[0]] == [cut + 3, side + 1]
        assert reduced.schur.lower and at_cut.schur.lower
        assert isinstance(above.schur, spla.SuperLU)

    @pytest.mark.parametrize("arch,reduced", [("A1", [48, 64, 96]), ("A2", [64, 96])])
    def test_whole_blocks_keep_the_upper_band_and_reduced_ones_the_lower(
            self, factorisations, arch, reduced):
        # At each of mesh_ladder's twelve resolutions the plane has one
        # sector factor. A block up to the band cut is factored whole in
        # LAPACK's upper band; a wider one is reduced to its even
        # wavefronts, and its Schur complement is factored in the lower
        # band. None reaches SuperLU.
        from pdnx.architecture import build_architecture, evaluate
        from pdnx.datasets import load_datasets

        got = []
        for resolution in (14, 16, 18, 22, 24, 26, 30, 32, 34, 48, 64, 96):
            ds = load_datasets({"calibration-default": {"grid_resolution": resolution}})
            before = len(factorisations.factors)
            evaluate(build_architecture(arch, "DSCH", ds, total_power_w=1000.0,
                                        pol_voltage_v=1.0), ds)
            (lu,) = factorisations.factors[before:]
            if isinstance(lu, pdn_grid._BandCholesky):
                assert not lu.lower
                assert lu.band.shape[0] - 1 <= pdn_grid._BAND_MAX_WIDTH
            else:
                assert isinstance(lu.schur, pdn_grid._BandCholesky)
                assert lu.schur.lower
                got.append(resolution)
        assert got == reduced
        assert factorisations.splu_options == []

    @pytest.mark.parametrize("pinned_parity", [0, 1], ids=["odd_block", "even_block"])
    def test_a_one_colour_block_is_solved(self, factorisations, pinned_parity):
        # A 5x5 plane pinned on one colour of the checkerboard leaves both
        # sectors' unknowns all on the other: with every block reduced, S
        # is the whole block or empty.
        grid = ResistiveGrid(5, 5, 1.0, 1e-3)
        sources = {k: 1.0 for k in range(25) if (k % 5 + k // 5) % 2 == pinned_parity}
        sinks = {k: 1.0 + 0.1 * k for k in range(25) if k not in sources}
        problem = GridProblem(grid, sources, sinks)
        sol = self._solve(problem, -1)
        assert len(factorisations.factors) == 2
        for lu in factorisations.factors:
            assert (lu.even.size == 0) == (pinned_parity == 0)
            assert (lu.odd.size == 0) == (pinned_parity == 1)
        fanout = {node: (node,) for node in sources}
        drops, currents = _dense_drops(grid, sources, fanout, 0.0, sinks)
        _close_to_dense(sol, problem, drops, currents)

    def test_a_block_that_is_not_positive_definite_is_singular(self):
        # Two nodes whose diagonal, 1, is below their edge's conductance, 2.
        grid = ResistiveGrid(2, 1, 1.0, 0.5)
        with pytest.raises(SingularSystem, match="not positive definite"):
            pdn_grid._factor_block(grid, np.ones(2), np.zeros(2), slice(0, 2),
                                    pdn_grid._Sector(np.arange(2)))

    def test_a_band_that_is_not_finite_is_an_overflow(self):
        grid = ResistiveGrid(2, 1, 1.0, 0.5)
        with pytest.raises(OverflowError, match="overflowed"):
            pdn_grid._factor_block(grid, np.array([-math.inf, 1.0]), np.zeros(2), slice(0, 2),
                                   pdn_grid._Sector(np.arange(2)))

    @pytest.mark.parametrize("cut,unknowns", [(math.inf, 6), (-1, 4)],
                             ids=["whole", "reduced"])
    def test_branches_lost_to_rounding_are_named(self, cut, unknowns):
        # A 3x3 plane behind one 1-ohm droop branch at a corner, at 1e-20
        # ohm/sq, drawn from the opposite corner: only its symmetric sector,
        # six orbits, four on even wavefronts, is factored. Its block is
        # positive definite, but the sheet conductance, 1e20, is more than
        # 1/eps times the branch's 1 S, so the rounded block is the plane's
        # floating Laplacian and its last pivot is not positive. The error
        # names the ratio, and the pivot only by its step in the factor: in
        # the reduced block's S it is no lattice node.
        grid = ResistiveGrid(3, 3, 1.0, 1e-20)
        problem = GridProblem(grid, {0: 1.0}, {8: 1.0}, droop_resistance_ohm=1.0)
        with pytest.raises(SingularSystem) as raised:
            self._solve(problem, cut)
        assert str(raised.value) == (
            f"sector block is numerically singular (not positive definite at step {unknowns} "
            f"of {unknowns} of its band Cholesky); the sheet conductance is 1e+20 times the "
            "smallest VR branch conductance")


class TestScaledSolution:
    """GridSolution.scaled(k) is the solution at k times the sinks: every VR
    on a plane sits at one rail voltage."""

    @staticmethod
    def _agrees(scaled, fresh) -> None:
        for got, want in ((scaled.vr_currents, fresh.vr_currents),
                          (scaled.vr_plane_voltages, fresh.vr_plane_voltages),
                          (scaled.node_voltages, fresh.node_voltages),
                          (scaled.horizontal_loss_w, fresh.horizontal_loss_w)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @settings(max_examples=20, deadline=None)
    @given(arch=st.sampled_from(["A3@12V", "A3@6V"]), topo=st.sampled_from(["DSCH", "DPMIH"]),
           k=st.floats(0.25, 4.0), sheet=st.floats(1e-4, 2e-3),
           droop_scale=st.floats(0.0, 3.0))
    def test_equals_a_fresh_solve_of_an_a3_intermediate_plane(self, arch, topo, k, sheet,
                                                              droop_scale):
        from dataclasses import replace

        from pdnx.architecture import _evaluate_steps, build_architecture
        from pdnx.datasets import load_datasets
        from pdnx.errors import PdnxError

        ds = load_datasets()
        cal = replace(ds.calibration, sheet_resistance_ohm_sq=sheet,
                      droop_share_resistance_scale=droop_scale)
        ds = replace(ds, calibration=cal)
        # The evaluation yields the POL problem, then the intermediate
        # plane's problem at its base demand, if the POL bank is within its
        # rating, as every bank is at 300 W. A subnormal droop scale
        # overflows the branch conductance.
        run = _evaluate_steps(build_architecture(arch, topo, ds, total_power_w=300.0), ds)
        try:
            problem = run.send(solve_dc(run.send(None)))
        except (PdnxError, OverflowError):
            assume(False)
        base = solve_dc(problem)
        fresh = solve_dc(replace(problem, sink_currents=k * problem.sink_currents))
        scaled = base.scaled(k)
        self._agrees(scaled, fresh)
        assert scaled.residual == base.residual

    @pytest.mark.parametrize("droop", [0.0, 2e-3], ids=["pinned", "droop"])
    def test_equals_a_fresh_solve_of_a_hand_plane(self, droop):
        problem = _fanout_problem(droop_resistance_ohm=droop)
        fresh = solve_dc(_fanout_problem(droop_resistance_ohm=droop,
                                         sink_currents=3.0 * problem.sink_currents,
                                         sink_nodes=problem.sink_nodes))
        scaled = solve_dc(problem).scaled(3.0)
        self._agrees(scaled, fresh)

    @pytest.mark.parametrize("sources", [
        {0: 1.02, 35: 0.97}, dict.fromkeys((0, 35), math.nan),
        dict.fromkeys((0, 35), math.inf), dict.fromkeys((0, 35), -math.inf)],
        ids=["unequal", "nan", "inf", "-inf"])
    def test_a_problem_off_one_finite_rail_is_refused(self, sources):
        # A NaN rail once ended as an OverflowError in the solve; with the
        # rail out of the solve it would reach the node voltages.
        with pytest.raises(ValueError, match="one finite rail voltage"):
            _fanout_problem(source_nodes=sources)
        rail = _fanout_problem(source_nodes={0: 12, 35: 12.0}).rail_voltage_v
        assert rail == 12.0 and isinstance(rail, float)


def _refined_droop_reference(problem: GridProblem) -> tuple[np.ndarray, np.longdouble]:
    """A drooped problem's VR currents and sheet loss from its drops below
    the plane's level, refined to convergence with np.longdouble residuals.

    The system is assembled from the lattice edges and VR branches with
    the solver's float64 conductances, factored once by SuperLU, and w is
    corrected by solves of residuals summed in long double until a step
    moves it by at most 1e-19 of itself (N. J. Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, ch. 12).
    """
    ld = np.longdouble
    grid = problem.grid
    n = grid.n_nodes
    g = 1.0 / grid.sheet_resistance_ohm_sq
    edge_a, edge_b = _edges(grid)
    counts, contacts = problem.contact_counts, problem.contact_nodes
    br_vr = np.repeat(np.arange(counts.size), counts)
    br_g = ((1.0 / problem.droop_resistance_ohm) / counts[br_vr]).astype(ld)
    d = np.zeros(n, dtype=ld)
    np.add.at(d, contacts, br_g)
    ends = np.concatenate([edge_a, edge_b])
    lap = sp.csc_matrix((np.concatenate([np.full(ends.size, g), np.full(ends.size, -g)]),
                         (np.concatenate([ends, ends]),
                          np.concatenate([ends, edge_b, edge_a]))), shape=(n, n))
    lu = spla.splu((lap + sp.diags(d.astype(float))).tocsc())

    def product(x):
        y = d * x
        flow = ld(g) * (x[edge_a] - x[edge_b])
        np.add.at(y, edge_a, flow)
        np.add.at(y, edge_b, -flow)
        return y

    source_v = np.array(list(problem.source_nodes.values()), dtype=ld)
    u_pinned = source_v - source_v[0]
    b = np.zeros(n, dtype=ld)
    b[problem.sink_nodes] = -problem.sink_currents.astype(ld)
    np.add.at(b, contacts, br_g * u_pinned[br_vr])
    level = b.sum() / d.sum()
    shifted = b - level * d
    w = lu.solve(shifted.astype(float)).astype(ld)
    for _ in range(30):
        step = lu.solve((shifted - product(w)).astype(float)).astype(ld)
        w += step
        if np.abs(step).max() <= 1e-19 * np.abs(w).max():
            break
    else:
        raise AssertionError("the long-double refinement did not converge")
    vr = np.zeros(counts.size, dtype=ld)
    np.add.at(vr, br_vr, br_g * (u_pinned[br_vr] - (w[contacts] + level)))
    du = w[edge_a] - w[edge_b]
    return vr, 2 * ld(g) * np.sum(du * du)


@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                    reason="long double is float64 on this platform")
class TestRefinedAccuracy:
    """Two drooped planes at the shipped calibration, solved once for their
    drops below the plane's level, against a long-double refined reference.
    Solved for the drops below the VRs and refined once about the level,
    the A3@12V intermediate plane's currents were 2.6e-13 off."""

    @pytest.mark.parametrize("arch,plane", [("A3@12V", 1), ("A1", 0)],
                             ids=["a3_intermediate", "a1_pol"])
    def test_currents_and_sheet_loss_match_the_reference(self, arch, plane):
        from pdnx.architecture import _evaluate_steps, build_architecture
        from pdnx.datasets import load_datasets

        ds = load_datasets()
        # The evaluation yields the POL problem, then an A3 intermediate
        # plane's problem at its base demand.
        run = _evaluate_steps(build_architecture(arch, "DSCH", ds), ds)
        problem = run.send(None)
        for _ in range(plane):
            problem = run.send(solve_dc(problem))
        assert problem.droop_resistance_ohm > 0.0
        pdn_grid._operator = None
        sol = solve_dc(problem)
        vr, loss = _refined_droop_reference(problem)
        assert sol.vr_currents == pytest.approx(vr.astype(float), rel=1e-13, abs=0.0)
        assert sol.horizontal_loss_w == pytest.approx(float(loss), rel=1e-13, abs=0.0)


class TestIdleVr:
    """A drooped plane with a VR that draws next to nothing is solved for its
    drops u as well, whose rounding is at the scale of that VR's drops."""

    def test_its_current_scales_with_the_sinks(self, recorded_solves):
        # A2+DSCH at resolution 9, 1/512 ohm/sq and droop scale 0.05: 48
        # VRs share 1000 A and one of them draws 3.4e-9 A. Taken from the
        # drops below the plane's level alone, that current moved by 7e-7
        # of itself when the sinks were scaled by 3 or 0.7.
        from dataclasses import replace

        from pdnx.architecture import _evaluate_steps, build_architecture
        from pdnx.datasets import load_datasets

        ds = load_datasets()
        cal = replace(ds.calibration, sheet_resistance_ohm_sq=1.0 / 512,
                      droop_share_resistance_scale=0.05, grid_resolution=9, demand_weight=0.0)
        ds = replace(ds, calibration=cal)
        problem = _evaluate_steps(build_architecture("A2", "DSCH", ds), ds).send(None)
        log, _ = recorded_solves
        sol = solve_dc(problem)
        assert len(log) == 2
        assert sol.vr_currents.min() < 1e-8
        for k in (3.0, 0.7):
            fresh = solve_dc(replace(problem, sink_currents=k * problem.sink_currents))
            np.testing.assert_allclose(sol.scaled(k).vr_currents, fresh.vr_currents,
                                       rtol=1e-12, atol=0.0)


class TestSheetLoss:
    """A drooped plane's sheet loss is taken from its drops solved below the
    plane's level."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_a_dense_solve_about_the_plane_level(self, seed):
        # 1e-4 ohm/sq behind 0.1 ohm droop branches: the plane sits far
        # further below its VRs than the drops across it, and the loss
        # taken from the drops below the VRs was 1e-12 to 1e-11 off. The
        # reference solves for the drops below the plane's level c, with
        # the dense matrix and each VR's one branch of 1/0.1 S.
        rng = np.random.default_rng(seed)
        grid = ResistiveGrid(30, 30, 1.0, 1e-4)
        nodes = rng.choice(grid.n_nodes, 40, replace=False)
        problem = GridProblem(grid, dict.fromkeys(nodes[:6].tolist(), 1.0),
                              dict(zip(nodes[6:].tolist(), rng.uniform(0.5, 5.0, 34))),
                              droop_resistance_ohm=0.1)
        pdn_grid._operator = None
        loss = solve_dc(problem).horizontal_loss_w
        b = np.zeros(grid.n_nodes)
        b[problem.sink_nodes] = -problem.sink_currents
        d = np.zeros(grid.n_nodes)
        d[nodes[:6]] = 1.0 / 0.1
        c = b.sum() / d.sum()
        w = np.linalg.solve(_dense_free_block(problem), b - c * d)
        edge_a, edge_b = _edges(grid)
        du = w[edge_a] - w[edge_b]
        assert loss == pytest.approx(2.0 / 1e-4 * np.sum(du * du), rel=1e-13)


def _square_plate(n: int) -> tuple[float, float]:
    """The unit square plate, R_s = 1 and J = 1, on n x n nodes: every
    perimeter node a pinned VR at 1 V and a sink of J h^2 at every interior
    node. Returns the largest drop and horizontal_loss_w."""
    h = 1.0 / (n - 1)
    node = np.arange(n * n).reshape(n, n)
    interior = node[1:-1, 1:-1].ravel()
    perimeter = np.setdiff1d(node, interior)
    problem = GridProblem(ResistiveGrid(n, n, h, 1.0), dict.fromkeys(perimeter.tolist(), 1.0),
                          np.full(interior.size, h * h), interior)
    solution = solve_dc(problem)
    return 1.0 - float(solution.node_voltages.min()), solution.horizontal_loss_w


class TestSquarePlateOracle:
    """The lattice against the continuum it stands for: a square plate held
    at the rail along its perimeter and loaded uniformly is Saint-Venant's
    torsion problem for a square bar, -laplacian(u) = J R_s with u = 0 on
    the edges (S. P. Timoshenko and J. N. Goodier, Theory of Elasticity,
    2nd ed., 1951). On the unit square, with the odd m,
    u = x(1 - x)/2 - sum 4 sin(m pi x) cosh(m pi (y - 1/2))
    / ((m pi)^3 cosh(m pi / 2)), so the largest drop, at the centre, is
    1/8 - sum 4 (-1)^((m-1)/2) / ((m pi)^3 cosh(m pi / 2)), and the
    dissipation per sheet, the integral of J u, is
    1/12 - sum 16 tanh(m pi / 2) / (m pi)^5."""

    DROP = 1 / 8 - sum(4 * (-1) ** (m // 2) / ((m * math.pi) ** 3 * math.cosh(m * math.pi / 2))
                       for m in range(1, 40, 2))
    # The terms fall as 1/m^5: those past m = 4,000 add less than 1e-16.
    LOSS = 2 * (1 / 12 - sum(16 * math.tanh(m * math.pi / 2) / (m * math.pi) ** 5
                             for m in range(1, 4001, 2)))

    def test_the_series_sums(self):
        assert self.DROP == pytest.approx(0.0736713533, abs=1e-10)
        assert self.LOSS == pytest.approx(2 * 0.0351442537, abs=1e-10)

    def test_second_order_convergence_and_richardson(self):
        sizes = (17, 33, 65, 129)
        drop, loss = np.array([_square_plate(n) for n in sizes]).T
        for figures, exact in ((drop, self.DROP), (loss, self.LOSS)):
            error = figures - exact
            # Each halving of the pitch cuts the error by 4: second order.
            ratios = error[:-1] / error[1:]
            assert ((3.9 <= ratios) & (ratios <= 4.1)).all(), ratios
            # (h, 2h) Richardson extrapolation at 129 nodes across.
            extrapolated = (4.0 * figures[-1] - figures[-2]) / 3.0
            assert extrapolated == pytest.approx(exact, rel=1e-6)


class TestNodeCap:
    def test_resolution_over_cap_rejected(self):
        plan = DieFloorplan(500.0, 8.0)
        sites = place_periphery(plan, 8, 5 / 0.69)
        with pytest.raises(ValueError, match="node limit"):
            build_problem(plan, sites, 1000.0, 5e-4, grid_resolution=1001)

    def test_extension_counts_toward_cap(self):
        plan = DieFloorplan(100.0, 8.0)
        far = VrSite(5000.0, 0.0, 4.0, 0)
        with pytest.raises(ValueError, match="node limit"):
            build_problem(plan, [far], 50.0, 1e-3, grid_resolution=32)

    def test_refined_lattice_checked_before_allocation(self, monkeypatch):
        # A 2x2 lattice fits a 5-node cap; the 3x3 refinement the center
        # site forces does not.
        monkeypatch.setattr(pdn_grid, "_MAX_NODES", 5)
        plan = DieFloorplan(100.0, 8.0)
        site = VrSite(0.0, 0.0, 4.0, 0)
        with pytest.raises(ValueError, match="3x3 lattice"):
            build_problem(plan, [site], 50.0, 1e-3, grid_resolution=2)


class TestBuildProblem:
    def test_48_sites_snap_to_distinct_nodes(self):
        plan = DieFloorplan(500.0, 8.0)
        sites = place_periphery(plan, 48, 5 / 0.69)
        problem = build_problem(plan, sites, 1000.0, 5e-4, 32)
        assert len(problem.source_nodes) == 48

    def test_under_die_sites_snap_distinct(self):
        plan = DieFloorplan(500.0, 8.0)
        placed = place_under_die(plan, 48, 5 / 0.69)
        problem = build_problem(plan, list(placed.sites), 1000.0, 5e-4, 32)
        assert len(problem.source_nodes) == 48

    def test_center_site_on_even_grid_refines(self):
        # the exact center of a 2x2 lattice ties all four nodes; one
        # refinement puts a node at the center
        plan = DieFloorplan(100.0, 8.0)
        site = VrSite(0.0, 0.0, 4.0, 0)
        problem = build_problem(plan, [site], 50.0, 1e-3, grid_resolution=2)
        assert problem.grid.nx == 3
        node = next(iter(problem.source_nodes))
        assert problem.grid.node_xy(node) == (pytest.approx(0.0), pytest.approx(0.0))

    def test_coincident_sites_degenerate(self):
        plan = DieFloorplan(100.0, 8.0)
        sites = [VrSite(1.0, 1.0, 4.0, 0),
                 VrSite(1.0, 1.0, 4.0, 0)]
        with pytest.raises(DegenerateGrid):
            build_problem(plan, sites, 50.0, 1e-3, grid_resolution=8)

    def test_demand_profile_total_preserved(self):
        plan = DieFloorplan(500.0, 8.0)
        sites = place_periphery(plan, 8, 5 / 0.69)
        for weight in (0.0, 2.0):
            problem = build_problem(plan, sites, 777.0, 5e-4, 32, demand_weight=weight)
            assert sum(_sinks(problem).values()) == pytest.approx(777.0, rel=1e-12)

    @pytest.mark.parametrize("resolution,weight,count", [
        (32, 0.0, 48), (32, 2.0, 48), (2, 1.0, 4), (17, 3.5, 8), (63, 0.7, 24)])
    def test_profile_sinks_equal_the_node_loop(self, resolution, weight, count):
        # The node-by-node loop the vectorised profile replaced, as reference:
        # same arithmetic per node, same summation order, so equal bits.
        plan = DieFloorplan(500.0, 8.0)
        sites = place_periphery(plan, count, 5 / 0.69)
        problem = build_problem(plan, sites, 1000.0, 5e-4, resolution,
                                demand_weight=weight)
        grid, half = problem.grid, plan.side_mm / 2.0
        eps = 1e-9 * plan.side_mm
        weights = {}
        for idx in range(grid.n_nodes):
            x, y = grid.node_xy(idx)
            if abs(x) > half + eps or abs(y) > half + eps or idx in problem.source_nodes:
                continue
            w = 1.0 + weight * max(0.0, 1.0 - (x * x + y * y) / (2.0 * half * half))
            if abs(abs(x) - half) <= eps:
                w *= 0.5
            if abs(abs(y) - half) <= eps:
                w *= 0.5
            weights[idx] = w
        total = sum(weights.values())
        assert _sinks(problem) == {i: 1000.0 * w / total for i, w in weights.items()}

    @settings(max_examples=40, deadline=None)
    @given(resolution=st.integers(2, 40), weight=st.floats(-1.0, 50.0),
           count=st.sampled_from([4, 8, 24, 48]))
    def test_split_profile_equals_the_single_weight_formula(self, resolution, weight, count):
        # The profile as one weight per node, h * (1 + w * p), before it was
        # split into a uniform part h and a radial part h * p: the halving
        # is exact, so h + w * (h * p) gives the same bits.
        plan = DieFloorplan(500.0, 8.0)
        sites = place_periphery(plan, count, 5 / 0.69)
        try:
            problem = build_problem(plan, sites, 1000.0, 5e-4, resolution,
                                    demand_weight=weight)
        except DegenerateGrid:
            assume(False)
        grid, half = problem.grid, plan.side_mm / 2.0
        eps = 1e-9 * plan.side_mm
        x = np.tile(grid.x0_mm + np.arange(grid.nx) * grid.cell_pitch_mm, grid.ny)
        y = np.repeat(grid.y0_mm + np.arange(grid.ny) * grid.cell_pitch_mm, grid.nx)
        drawn = (np.abs(x) <= half + eps) & (np.abs(y) <= half + eps)
        drawn[list(problem.source_nodes)] = False
        idx = np.flatnonzero(drawn)
        x, y = x[idx], y[idx]
        w = 1.0 + weight * np.maximum(0.0, 1.0 - (x * x + y * y) / (2.0 * half * half))
        w[np.abs(np.abs(x) - half) <= eps] *= 0.5
        w[np.abs(np.abs(y) - half) <= eps] *= 0.5
        want = dict(zip(idx.tolist(), (1000.0 * w / sum(w.tolist())).tolist()))
        assert _sinks(problem) == want
        nodes, uniform, radial = pdn_grid.profile_parts(plan, grid, list(problem.source_nodes))
        assert nodes.tolist() == idx.tolist()
        assert ((uniform + weight * radial) == w).all()

    def test_explicit_sinks(self):
        plan = DieFloorplan(500.0, 8.0)
        sites = place_periphery(plan, 8, DPMIH := 8 / 0.15)
        inner = place_under_die(plan, 4, 7.0).sites
        explicit = [(s.x_mm, s.y_mm, 10.0) for s in inner]
        problem = build_problem(plan, sites, 80.0, 5e-4, 32, explicit_sinks=explicit)
        assert len(_sinks(problem)) == 4
        assert sum(_sinks(problem).values()) == pytest.approx(80.0)


class TestDroop:
    def test_droop_conserves_current(self):
        plan = DieFloorplan(500.0, 8.0)
        sites = place_periphery(plan, 48, 5 / 0.69)
        problem = build_problem(plan, sites, 1000.0, 5e-4, 32,
                                droop_resistance_ohm=3e-3)
        sol = solve_dc(problem)
        assert sol.vr_currents.sum() == pytest.approx(1000.0, rel=1e-10)

    def test_droop_terminal_voltage_identity(self):
        # Footprint below one lattice pitch: each VR touches one node, so
        # the terminal voltage is exactly the drooped rail.
        plan = DieFloorplan(500.0, 8.0)
        sites = place_periphery(plan, 24, 0.25)
        r_d = 3e-3
        problem = build_problem(plan, sites, 1000.0, 5e-4, 32,
                                droop_resistance_ohm=r_d)
        sol = solve_dc(problem)
        assert all(len(f) == 1 for f in _fanout(problem).values())
        expected = 1.0 - r_d * sol.vr_currents
        assert sol.vr_plane_voltages == pytest.approx(expected, rel=1e-12)

    def test_droop_narrows_the_spread(self):
        plan = DieFloorplan(500.0, 8.0)
        sites = place_periphery(plan, 48, 5 / 0.69)
        free = solve_dc(build_problem(plan, sites, 1000.0, 5e-4, 32))
        drooped = solve_dc(build_problem(plan, sites, 1000.0, 5e-4, 32,
                                         droop_resistance_ohm=3e-3))
        s0, s1 = free.vr_currents, drooped.vr_currents
        assert (s1.max() - s1.min()) < (s0.max() - s0.min())



def _snap_reference(grid: ResistiveGrid, x: float, y: float) -> tuple[int, bool]:
    """The per-site snap the vectorised one replaced, kept as its oracle:
    nearest of the four surrounding nodes, ties toward the lower index,
    ambiguous when all four tie."""
    fi = (x - grid.x0_mm) / grid.cell_pitch_mm
    fj = (y - grid.y0_mm) / grid.cell_pitch_mm
    candidates = []
    for j in (math.floor(fj), math.ceil(fj)):
        for i in (math.floor(fi), math.ceil(fi)):
            ic = min(max(i, 0), grid.nx - 1)
            jc = min(max(j, 0), grid.ny - 1)
            idx = grid.node_index(ic, jc)
            nx_mm, ny_mm = grid.node_xy(idx)
            d2 = (x - nx_mm) ** 2 + (y - ny_mm) ** 2
            candidates.append((d2, idx))
    best_d2 = min(d2 for d2, _ in candidates)
    tol = max(best_d2 * 1e-9, (grid.cell_pitch_mm * 1e-7) ** 2)
    tied = sorted({idx for d2, idx in candidates if d2 <= best_d2 + tol})
    return tied[0], len(tied) >= 4


def _footprint_reference(grid: ResistiveGrid, x: float, y: float, footprint_mm2: float,
                         center_idx: int) -> tuple[int, ...]:
    """The per-site footprint loop the vectorised pass replaced: nodes inside
    the square, j-major then i, or the centre node when there are none."""
    w2 = math.sqrt(footprint_mm2) / 2.0
    i_lo = math.ceil((x - w2 - grid.x0_mm) / grid.cell_pitch_mm - 1e-12)
    i_hi = math.floor((x + w2 - grid.x0_mm) / grid.cell_pitch_mm + 1e-12)
    j_lo = math.ceil((y - w2 - grid.y0_mm) / grid.cell_pitch_mm - 1e-12)
    j_hi = math.floor((y + w2 - grid.y0_mm) / grid.cell_pitch_mm + 1e-12)
    nodes = [
        grid.node_index(i, j)
        for j in range(max(j_lo, 0), min(j_hi, grid.ny - 1) + 1)
        for i in range(max(i_lo, 0), min(i_hi, grid.nx - 1) + 1)
    ]
    return tuple(nodes) if nodes else (center_idx,)


@st.composite
def _lattices(draw):
    nx, ny = draw(st.integers(1, 20)), draw(st.integers(2, 20))
    return ResistiveGrid(nx, ny, draw(st.floats(0.05, 5.0)), 1e-3,
                         draw(st.floats(-30.0, 30.0)), draw(st.floats(-30.0, 30.0)))


def _coordinate(grid: ResistiveGrid, origin: float, count: int):
    """A coordinate on a node line, half way between two, at a random
    fraction of a cell, or anywhere, from outside one end of the lattice to
    outside the other."""
    step = st.integers(-2, count)
    fraction = st.sampled_from([0.0, 0.5, 0.5 + 1e-9, 1e-12]) | st.floats(0.0, 1.0)
    return (st.tuples(step, fraction).map(
        lambda t: origin + (t[0] + t[1]) * grid.cell_pitch_mm)
        | st.floats(origin - 2.0 * grid.cell_pitch_mm,
                    origin + (count + 1) * grid.cell_pitch_mm))


@st.composite
def _lattice_and_sites(draw):
    grid = draw(_lattices())
    # Squares a whole number of pitches wide put their edges on node lines.
    footprint = (st.floats(0.0, (4.0 * grid.cell_pitch_mm) ** 2)
                 | st.integers(1, 4).map(lambda k: (k * grid.cell_pitch_mm) ** 2))
    centre = st.tuples(st.integers(-2, grid.nx), st.integers(-2, grid.ny)).map(
        lambda c: (grid.x0_mm + (c[0] + 0.5) * grid.cell_pitch_mm,
                   grid.y0_mm + (c[1] + 0.5) * grid.cell_pitch_mm))
    site = (st.tuples(_coordinate(grid, grid.x0_mm, grid.nx),
                      _coordinate(grid, grid.y0_mm, grid.ny), footprint)
            | st.tuples(centre, footprint).map(lambda t: (*t[0], t[1])))
    sites = draw(st.lists(site, min_size=1, max_size=20))
    # Colliding sites: some repeat an earlier one.
    sites += draw(st.lists(st.sampled_from(sites), max_size=3))
    return grid, np.array(sites, dtype=float).reshape(-1, 3).T


class TestDiscretisationOracle:
    """The vectorised snap and footprint pass against the per-site loops."""

    @settings(max_examples=200, deadline=None)
    @given(_lattice_and_sites())
    def test_snap_equals_per_site_reference(self, drawn):
        grid, (x, y, _) = drawn
        nodes, ambiguous = pdn_grid._snap_points(grid, x, y)
        expected = [_snap_reference(grid, a, b) for a, b in zip(x.tolist(), y.tolist())]
        assert list(zip(nodes.tolist(), ambiguous.tolist())) == expected

    @settings(max_examples=200, deadline=None)
    @given(_lattice_and_sites())
    def test_footprints_equal_per_site_reference(self, drawn):
        grid, (x, y, footprint) = drawn
        centres, _ = pdn_grid._snap_points(grid, x, y)
        counts, nodes = pdn_grid._footprint_contacts(grid, x, y, np.sqrt(footprint) / 2.0,
                                                     centres)
        contacts = [tuple(c.tolist()) for c in np.split(nodes, np.cumsum(counts)[:-1])]
        assert contacts == [
            _footprint_reference(grid, a, b, f, c)
            for a, b, f, c in zip(x.tolist(), y.tolist(), footprint.tolist(), centres.tolist())]

    def test_cell_centre_is_ambiguous_and_node_is_not(self):
        grid = ResistiveGrid(4, 4, 1.0, 1e-3)
        nodes, ambiguous = pdn_grid._snap_points(grid, np.array([1.5, 1.0, 1.5, -7.5]),
                                                 np.array([1.5, 2.0, 1.0, 1.5]))
        # centre of cell (1, 1); node (1, 2); edge midpoint (two-way tie,
        # lower index); outside the lattice (clipped to column 0, row tie).
        assert nodes.tolist() == [5, 9, 5, 4]
        assert ambiguous.tolist() == [True, False, False, False]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([-4.5, -2.25, 0.0, 1.5, 2.25, 4.0]),
                              st.sampled_from([-4.5, -2.25, 0.0, 2.25, 3.0]),
                              st.sampled_from([0.01, 1.0, 4.0, 9.0])),
                    min_size=1, max_size=4),
           st.sampled_from([2, 3, 4, 5, 8, 9, 16, 17]))
    def test_build_problem_follows_the_reference(self, sites, resolution):
        # Sites on nodes, cell centres and edges, some colliding: build_problem
        # keeps a lattice exactly when the per-site reference snaps every
        # site to its own node and a node under the die is left to draw
        # demand, and refines once otherwise.
        plan = DieFloorplan(81.0, 8.0)
        placed = [VrSite(x, y, f, 0) for x, y, f in sites]
        rows = np.array(sites, dtype=float).T

        def lattice(r):
            return pdn_grid._build_grid(plan, rows[0], rows[1], np.sqrt(rows[2]) / 2.0, r, 1e-3)

        def clean(grid):
            snapped = [_snap_reference(grid, x, y) for x, y, _ in sites]
            nodes = {idx for idx, _ in snapped}
            shadow = {i for i in range(grid.n_nodes)
                      if max(map(abs, grid.node_xy(i))) <= 4.5 + 1e-6}
            return (not any(tied for _, tied in snapped) and len(nodes) == len(sites)
                    and bool(shadow - nodes))

        try:
            problem = build_problem(plan, placed, 50.0, 1e-3, resolution,
                                    droop_resistance_ohm=1e-3)
        except DegenerateGrid:
            assert not clean(lattice(resolution))
            assert not clean(lattice(2 * resolution - 1))
            return
        refined = problem.grid != lattice(resolution)
        assert problem.grid == lattice(2 * resolution - 1 if refined else resolution)
        assert clean(problem.grid)
        assert refined == (not clean(lattice(resolution)))
        nodes = [_snap_reference(problem.grid, x, y)[0] for x, y, _ in sites]
        assert list(problem.source_nodes) == nodes
        assert _fanout(problem) == {
            idx: _footprint_reference(problem.grid, x, y, f, idx)
            for idx, (x, y, f) in zip(nodes, sites)}

    def test_even_resolution_refines_to_two_r_minus_one(self):
        # A centred under-die grid puts sites at cell centres of an even
        # lattice; the refined lattice has a node under each.
        plan = DieFloorplan(500.0, 8.0)
        sites = list(place_under_die(plan, 48, 5 / 0.69).sites)
        assert build_problem(plan, sites, 1000.0, 5e-4, 32).grid.nx == 63
        assert build_problem(plan, sites, 1000.0, 5e-4, 33).grid.nx == 33

    def test_explicit_sink_on_a_source_node_refines(self):
        # Within half a pitch of the centre site the sink snaps onto its
        # node; at half the pitch it has a node of its own.
        plan = DieFloorplan(1024.0, 8.0)
        site = VrSite(0.0, 0.0, 0.01, 0)
        pitch = 32.0 / 32
        problem = build_problem(plan, [site], 10.0, 1e-3, 33,
                                explicit_sinks=[(0.4 * pitch, 0.0, 1.0)])
        assert problem.grid.nx == 65
        [sink] = _sinks(problem)
        assert sink not in problem.source_nodes
        assert problem.grid.node_xy(sink) == (pytest.approx(0.5 * pitch), pytest.approx(0.0))
        with pytest.raises(DegenerateGrid):
            build_problem(plan, [site], 10.0, 1e-3, 33, explicit_sinks=[(0.0, 0.0, 1.0)])

    def test_repeated_explicit_sinks_accumulate_in_order(self):
        plan = DieFloorplan(100.0, 8.0)
        site = VrSite(-4.0, -4.0, 0.01, 0)
        sinks = [(1.0, 1.0, 0.1), (3.0, 3.0, 0.7), (1.0, 1.0, 0.2)]
        problem = build_problem(plan, [site], 2.0, 1e-3, 11, explicit_sinks=sinks)
        grid = problem.grid
        first, second = (grid.node_index(6, 6), grid.node_index(8, 8))
        assert list(_sinks(problem)) == [first, second]
        total = (0.0 + 0.1 + 0.2) + 0.7
        assert _sinks(problem)[first] == (0.0 + 0.1 + 0.2) * (2.0 / total)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_site_or_sink_rejected(self, bad):
        plan = DieFloorplan(100.0, 8.0)
        site = VrSite(0.0, 0.0, 1.0, 0)
        with pytest.raises(ValueError, match="finite"):
            build_problem(plan, [VrSite(bad, 0.0, 1.0, 0)], 1.0, 1e-3, 9)
        with pytest.raises(ValueError, match="finite"):
            build_problem(plan, [site], 1.0, 1e-3, 9, explicit_sinks=[(1.0, bad, 1.0)])

    @pytest.mark.parametrize("resolution", [33.0, 2.5, True])
    def test_non_integer_resolution_rejected(self, resolution):
        # 33.0 once died in numpy's arange, 2.5 as a DegenerateGrid. The
        # refusal comes before the last placement's discretisation is touched.
        plan = DieFloorplan(100.0, 8.0)
        sites = [VrSite(0.0, 0.0, 1.0, 0)]
        build_problem(plan, sites, 1.0, 1e-3, 33)
        kept = pdn_grid._discretisation
        with pytest.raises(ValueError, match=f"must be an integer >= 2, got {resolution!r}$"):
            build_problem(plan, sites, 1.0, 1e-3, resolution)
        assert pdn_grid._discretisation is kept


# Positions on nodes, edge midpoints and cell centres of the 9 mm die's
# lattices, inside and just outside its shadow.
_SLOT_XY = st.sampled_from([-4.5, -2.25, 0.0, 1.125, 1.5, 2.25, 3.0, 4.5, 5.0])
# Demand weights below -1 draw negative currents, which GridProblem refuses,
# and below about -1.5 a profile whose weights sum to <= 0, which
# build_problem refuses on the lattice the placement took, unrefined.
_SLOT_VALUES = {
    "demand": st.sampled_from([50.0, 88.4, 1000.0]),
    "sheet": st.sampled_from([1e-3, 5e-4, 0.24]),
    "weight": st.sampled_from([0.0, 2.0, -1.0]) | st.floats(-2.0, -1.2),
    "droop": st.sampled_from([0.0, 1e-3, 2.7e-3]),
    "rail": st.sampled_from([1.0, 6.0, 12.0]),
}


@st.composite
def _slot_calls(draw):
    """A sequence of build_problem calls, each changing one input of the
    last: a value (sheet, demand, weight, droop, rail, the explicit sinks'
    currents) or the geometry (the sites, the resolution, the sinks'
    positions). A call may instead refuse one input (a non-finite site or
    a sheet, droop or demand out of range), and the next changes the last
    call that did not."""
    site = st.tuples(_SLOT_XY, _SLOT_XY, st.sampled_from([0.01, 1.0, 4.0, 9.0]))
    sites = st.lists(site, min_size=1, max_size=4)
    resolution = st.sampled_from([2, 3, 4, 5, 8, 9, 16, 17])
    positions = st.none() | st.lists(st.tuples(_SLOT_XY, _SLOT_XY), max_size=4)

    def currents(count):
        return st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5]), min_size=count,
                        max_size=count)

    call = {name: draw(values) for name, values in _SLOT_VALUES.items()}
    call.update(sites=draw(sites), resolution=draw(resolution), positions=draw(positions))
    call["currents"] = draw(currents(len(call["positions"] or [])))
    calls = [call]
    for _ in range(draw(st.integers(1, 7))):
        change = draw(st.sampled_from([*_SLOT_VALUES, "currents", "sites", "resolution",
                                       "positions", "refused"]))
        changed = dict(call)
        if change in _SLOT_VALUES:
            changed[change] = draw(_SLOT_VALUES[change])
        elif change == "currents":
            changed["currents"] = draw(currents(len(call["positions"] or [])))
        elif change == "positions":
            changed["positions"] = draw(positions)
            changed["currents"] = draw(currents(len(changed["positions"] or [])))
        elif change == "refused":
            bad_site = [(math.nan, *call["sites"][0][1:]), *call["sites"][1:]]
            name, value = draw(st.sampled_from([("sites", bad_site), ("sheet", -1.0),
                                                ("droop", -1.0), ("demand", 0.0)]))
            calls.append({**call, name: value})
            continue
        else:
            changed[change] = draw(sites if change == "sites" else resolution)
        calls.append(call := changed)
    return calls


def _slot_build(call: dict):
    """A call's problem as its fields' bits, or its error's type and message."""
    sinks = None
    if call["positions"] is not None:
        sinks = [(x, y, a) for (x, y), a in zip(call["positions"], call["currents"])]
    try:
        problem = build_problem(
            DieFloorplan(81.0, 8.0), [VrSite(x, y, f, 0) for x, y, f in call["sites"]],
            call["demand"], call["sheet"], call["resolution"], rail_voltage_v=call["rail"],
            demand_weight=call["weight"], explicit_sinks=sinks,
            droop_resistance_ohm=call["droop"])
    except Exception as exc:
        return type(exc), str(exc)
    arrays = (problem.sink_nodes, problem.contact_counts, problem.contact_nodes)
    assert not any(a.flags.writeable for a in arrays), "a shared array is writeable"
    return (problem.grid, list(problem.source_nodes.items()), problem.droop_resistance_ohm,
            *((a.dtype, a.shape, a.tobytes()) for a in (*arrays, problem.sink_currents)))


class TestDiscretisationSlot:
    """build_problem keeps the last placement's discretisation; any sequence
    of builds gives what builds from an empty slot give."""

    @settings(max_examples=150, deadline=None)
    @given(_slot_calls())
    def test_a_build_equals_one_from_an_empty_slot(self, calls):
        # A 25x25 cap: resolutions 16 and 17 are refused on the refinement
        # only, and some extended lattices at 8 and 9 as well.
        with mock.patch.object(pdn_grid, "_MAX_NODES", 25 * 25), \
                mock.patch.object(pdn_grid, "_discretisation", None):
            for call in calls:
                before = pdn_grid._discretisation
                got = _slot_build(call)
                after = pdn_grid._discretisation
                pdn_grid._discretisation = None
                assert got == _slot_build(call)
                if isinstance(got[0], type):
                    # A failing build raises again, and holds no new placement.
                    assert after is None or after is before
                    pdn_grid._discretisation = after
                    assert _slot_build(call) == got
                pdn_grid._discretisation = after

    def test_a_value_change_reuses_the_discretisation(self, monkeypatch):
        from dataclasses import replace
        plan = DieFloorplan(500.0, 8.0)
        sites = list(place_under_die(plan, 48, 5 / 0.69).sites)
        discretised = []
        discretise = pdn_grid._discretise
        monkeypatch.setattr(pdn_grid, "_discretise",
                            lambda *a: discretised.append(a[-1]) or discretise(*a))
        monkeypatch.setattr(pdn_grid, "_discretisation", None)
        first = build_problem(plan, sites, 1000.0, 5e-4, 32, droop_resistance_ohm=1e-3)
        second = build_problem(plan, sites, 900.0, 0.24, 32, rail_voltage_v=6.0,
                               demand_weight=2.0, droop_resistance_ohm=2e-3)
        # The even lattice is refined in the one discretisation, for both.
        assert discretised == [32]
        assert first.grid.nx == 63
        assert second.grid == replace(first.grid, sheet_resistance_ohm_sq=0.24)
        assert second.sink_nodes is first.sink_nodes
        assert second.contact_nodes is first.contact_nodes
        build_problem(plan, sites, 1000.0, 5e-4, 33)
        assert discretised == [32, 33]

    def test_a_zero_total_profile_is_refused_unrefined(self, monkeypatch):
        # Eight sites on the die's 3-across lattice (4.5 mm pitch) leave the
        # centre node alone to draw demand, and its radial part equals its
        # uniform part: at weight -1 the profile sums to 0. That is the
        # demand weight's doing, not the placement's, so the 2.25 mm
        # refinement is never built.
        plan = DieFloorplan(81.0, 8.0)
        sites = [VrSite(x, y, 0.01, 0) for y in (-4.5, 0.0, 4.5) for x in (-4.5, 0.0, 4.5)
                 if (x, y) != (0.0, 0.0)]
        built = []
        build_grid = pdn_grid._build_grid
        monkeypatch.setattr(pdn_grid, "_build_grid",
                            lambda *a: built.append(a[-2]) or build_grid(*a))
        monkeypatch.setattr(pdn_grid, "_discretisation", None)
        with pytest.raises(DegenerateGrid, match=r"^demand_weight -1\.0 leaves the die "
                                                 "profile no positive total weight$"):
            build_problem(plan, sites, 50.0, 1e-3, 3, demand_weight=-1.0)
        assert built == [3]
        assert pdn_grid._discretisation is None
        problem = build_problem(plan, sites, 50.0, 1e-3, 3)
        centre = problem.grid.n_nodes // 2
        assert (problem.grid.cell_pitch_mm, _sinks(problem)) == (4.5, {centre: 50.0})
        assert built == [3, 3]


class TestGridProblemValidation:
    def test_negative_sink_anywhere_rejected(self):
        grid = ResistiveGrid(4, 1, 1.0, 1e-3)
        for sinks in ({1: 1.0, 2: -1.0}, {1: math.nan, 2: -1.0}, {1: -1.0, 2: math.nan}):
            with pytest.raises(ValueError, match=">= 0"):
                GridProblem(grid, {0: 1.0}, sinks)

    def test_overlap_names_the_shared_nodes(self):
        grid = ResistiveGrid(4, 1, 1.0, 1e-3)
        with pytest.raises(ValueError, match=r"\[1, 3\]"):
            GridProblem(grid, {3: 1.0, 1: 1.0, 0: 1.0}, {3: 1.0, 2: 1.0, 1: 1.0})

    def test_repeated_or_outside_sink_nodes_rejected(self):
        grid = ResistiveGrid(4, 1, 1.0, 1e-3)
        with pytest.raises(ValueError, match="distinct"):
            GridProblem(grid, {0: 1.0}, np.array([1.0, 1.0]), np.array([2, 2]))
        for nodes in ([1, 4], [-1, 2]):
            with pytest.raises(ValueError, match="4-node lattice"):
                GridProblem(grid, {0: 1.0}, np.array([1.0, 1.0]), np.array(nodes))
        with pytest.raises(ValueError, match="one sink current per sink node"):
            GridProblem(grid, {0: 1.0}, np.array([1.0, 1.0]), np.array([1]))
        with pytest.raises(TypeError, match="sink_nodes"):
            GridProblem(grid, {0: 1.0}, np.array([1.0]))

    def test_contacts_must_cover_every_vr(self):
        grid = ResistiveGrid(4, 1, 1.0, 1e-3)
        for counts, nodes in (([1], [0, 3]), ([2, 0], [0, 3]), ([1, 1], [0, 3])):
            with pytest.raises(ValueError, match="contact_counts"):
                GridProblem(grid, {0: 1.0}, {2: 1.0}, droop_resistance_ohm=1e-3,
                            contact_counts=counts, contact_nodes=nodes)
        problem = GridProblem(grid, {0: 1.0}, {2: 1.0}, droop_resistance_ohm=1e-3,
                              contact_counts=[2], contact_nodes=[1, 1])
        with pytest.raises(ValueError, match="distinct"):
            solve_dc(problem)


def _wavefront_band(block: sp.csc_matrix, i: np.ndarray, j: np.ndarray,
                    lower: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """A symmetric block's upper triangle, or its lower one if lower,
    scattered from CSC into LAPACK's band storage, its unknowns taken by
    wavefront (i + j, then i, of each one's lattice node), and that order:
    the reference for the bands _factor_block assembles from the stencil.
    Entry (r, c) goes to [w + r - c, c] in the upper band and to [r - c, c]
    in the lower one."""
    order = np.lexsort((i, i + j))
    position = np.empty(order.size, dtype=np.int64)
    position[order] = np.arange(order.size)
    col = np.repeat(position, np.diff(block.indptr))
    offset = col - position[block.indices]
    width = int(offset.max(initial=0))
    band = np.zeros((width + 1, order.size), order="F")
    if lower:
        kept = offset <= 0
        band[-offset[kept], col[kept]] = block.data[kept]
    else:
        kept = offset >= 0
        band[width - offset[kept], col[kept]] = block.data[kept]
    return band, order


def _dense_free_block(problem: GridProblem) -> np.ndarray:
    """The free block of a problem's nodal system, from the dense loop
    assembly: the plane nodes with droop, else the nodes no VR pins."""
    n = problem.grid.n_nodes
    if problem.droop_resistance_ohm > 0.0:
        return _droop_laplacian(problem.grid, problem.source_nodes, _fanout(problem),
                                problem.droop_resistance_ohm)[:n, :n]
    free = [node for node in range(n) if node not in problem.source_nodes]
    return _droop_laplacian(problem.grid, {}, {}, 0.0)[np.ix_(free, free)]


def _operator_block(op) -> np.ndarray:
    """A plane operator's free block, column by column from its products."""
    size = np.arange(op.diag.size)[op.free].size
    return np.column_stack([op.product(unit) for unit in np.eye(size)])


def _coo_reference(grid: ResistiveGrid, sources: dict, sinks: dict, droop: float,
                   fanout: dict):
    """The COO assembly and dict-sink solve the stencil assembly replaced,
    kept as its reference: every entry four times in COO, duplicates summed
    by scipy, the free block split off by fancy indexing. The free block is
    factorised by band Cholesky in wavefront order, as the plane solver
    factorises a narrow sector, so the two assemblies are compared, not two
    sets of factor settings.

    Returns the free block and the VR currents, plane-side VR voltages, node
    voltages and horizontal loss.
    """
    n = grid.n_nodes
    source_nodes = tuple(sources)
    k = len(source_nodes)
    edge_a, edge_b = _edges(grid)
    if droop > 0.0:
        contacts = [tuple(fanout.get(i, (i,))) for i in source_nodes]
        counts = np.array([len(c) for c in contacts])
        br_vr = np.repeat(np.arange(k), counts)
        br_node = np.fromiter((c for cs in contacts for c in cs), dtype=np.int64)
        br_g = (1.0 / droop) / counts[br_vr]
        pinned = n + np.arange(k)
        n_all = n + k
    else:
        br_vr = br_node = np.zeros(0, dtype=np.int64)
        br_g = np.zeros(0)
        pinned = np.array(source_nodes, dtype=np.int64)
        n_all = n
    a = np.concatenate([edge_a, n + br_vr])
    b = np.concatenate([edge_b, br_node])
    g = np.concatenate([np.full(edge_a.shape[0], 1.0 / grid.sheet_resistance_ohm_sq), br_g])
    lap = sp.csr_matrix((np.concatenate([g, g, -g, -g]),
                         (np.concatenate([a, b, a, b]), np.concatenate([a, b, b, a]))),
                        shape=(n_all, n_all))
    is_pinned = np.zeros(n_all, dtype=bool)
    is_pinned[pinned] = True
    free = np.flatnonzero(~is_pinned)
    lap_free = lap[free]
    lap_ff = lap_free[:, free].tocsc()
    band, order = _wavefront_band(lap_ff, free % grid.nx, free // grid.nx)
    band, info = dpbtrf(band, overwrite_ab=1)
    assert info == 0
    lu = pdn_grid._BandCholesky(band, order, False)

    source_v = np.fromiter(sources.values(), dtype=float, count=k)
    v_ref = source_v[0]
    u_pinned = source_v - v_ref
    injections = np.zeros(n_all)
    injections[np.fromiter(sinks.keys(), dtype=np.int64, count=len(sinks))] = \
        -np.fromiter(sinks.values(), dtype=float, count=len(sinks))
    rhs = injections[free] - lap_free[:, pinned] @ u_pinned
    u = np.empty(n_all)
    if droop > 0.0:
        # The drops below the plane's level are solved for, as solve_dc
        # solves for them.
        to_vrs = -(lap_free[:, pinned] @ np.ones(k))
        level = float(np.sum(rhs)) / float(np.sum(to_vrs))
        w = lu.solve(rhs - level * to_vrs)
        u[free] = w + level
        drawn = np.bincount(br_vr, weights=br_g * ((u_pinned - level)[br_vr] - w[br_node]))
        if (np.abs(drawn) < pdn_grid._IDLE_DROP * np.abs(w).max()
                * np.bincount(br_vr, weights=br_g)).any():
            u[free] = lu.solve(rhs)
    else:
        u[free] = w = lu.solve(rhs)
    u[pinned] = u_pinned
    vr = lap[pinned] @ u
    du_br = u[n + br_vr] - u[br_node]
    branch_loss = np.bincount(br_vr, weights=br_g * du_br * du_br, minlength=k)
    plane_voltages = source_v - np.divide(branch_loss, vr, out=np.zeros_like(vr),
                                          where=vr != 0.0)
    sheet = w if droop > 0.0 else u
    du = sheet[edge_a] - sheet[edge_b]
    g_sheet = 1.0 / grid.sheet_resistance_ohm_sq
    voltages = u + v_ref
    voltages[pinned] = source_v
    return (lap_ff, vr, plane_voltages, voltages[:n],
            2.0 * float(np.sum(du * du * g_sheet)))


def _same(got, want) -> bool:
    """Equal by ==, element by element, with NaN equal to NaN."""
    return np.array_equal(got, want, equal_nan=True)


def _coo_rows_keep_their_order(grid: ResistiveGrid, droop: float, fanout: dict) -> bool:
    """Whether scipy sums every diagonal of the COO assembly in input order.

    A row of it holds two entries per lattice edge and per VR branch at the
    node. scipy sorts a row's column indices with std::sort, which is an
    insertion sort, stable, on up to 16 entries; beyond that equal columns
    may be summed in any order.
    """
    edge_a, edge_b = _edges(grid)
    per_node = np.bincount(np.concatenate([edge_a, edge_b]), minlength=grid.n_nodes)
    if droop > 0.0:
        branches = [c for contacts in fanout.values() for c in contacts]
        per_node += np.bincount(branches, minlength=grid.n_nodes)
    return 2 * per_node.max() <= 16


@st.composite
def _stencil_problems(draw):
    """Random lattices (nx != ny too) with sources on one rail in shuffled
    order, pinned or drooped, and footprints that overlap: boxes or
    scattered nodes."""
    nx, ny = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    n = nx * ny
    assume(n >= 2)
    grid = ResistiveGrid(nx, ny, draw(st.floats(0.1, 2.0)), draw(st.floats(1e-5, 1e-2)))
    nodes = draw(st.permutations(range(n)))
    n_src = draw(st.integers(1, n - 1))
    sources = dict.fromkeys(nodes[:n_src], draw(st.floats(0.9, 12.0)))
    sinks = {node: draw(st.floats(0.0, 10.0)) for node in nodes[n_src:]}
    assume(sum(sinks.values()) > 0)
    droop = draw(st.sampled_from([0.0, 1e-4, 3e-3]) | st.floats(1e-5, 1e-2))

    def box(node):
        j, i = divmod(node, nx)
        di, dj = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        return tuple(jj * nx + ii for jj in range(max(j - dj, 0), min(j + dj, ny - 1) + 1)
                     for ii in range(max(i - di, 0), min(i + di, nx - 1) + 1))

    scattered = st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True)
    fanout = {node: box(node) if draw(st.booleans()) else tuple(draw(scattered))
              for node in sources}
    return grid, sources, sinks, droop, fanout


def _close_to_reference(sol, sources: dict, vr, plane_v, node_v, loss) -> None:
    """The deep-row tolerances: VR currents and the plane loss to 1e-9, node
    voltages to 1e-12. A VR's plane-side voltage is its source voltage less
    a drop, branch loss over VR current, which carries the current's
    relative error: it is held to 1e-12 of itself plus 1e-9 of that drop."""
    assert sol.vr_currents == pytest.approx(vr, rel=1e-9, abs=1e-9)
    drop = np.array(list(sources.values())) - plane_v
    assert (np.abs(sol.vr_plane_voltages - plane_v)
            <= 1e-12 * np.abs(plane_v) + 1e-9 * np.abs(drop)).all()
    assert sol.node_voltages == pytest.approx(node_v, rel=1e-12)
    assert sol.horizontal_loss_w == pytest.approx(loss, rel=1e-9)


class TestStencilAssembly:
    """The 5-point stencil assembly and the array sinks against the COO
    assembly and the dict sinks they replaced."""

    @settings(max_examples=150, deadline=None)
    @given(_stencil_problems())
    def test_equals_the_coo_assembly(self, drawn):
        grid, sources, sinks, droop, fanout = drawn
        problem = GridProblem(grid, sources, sinks, droop_resistance_ohm=droop,
                              **_contacts(sources, fanout))
        pdn_grid._operator = None
        sol = solve_dc(problem)
        op = pdn_grid._operator
        want_csc, vr, plane_v, node_v, loss = _coo_reference(grid, sources, sinks, droop, fanout)
        got_ff, want_ff = _operator_block(op), want_csc.toarray()
        if not _coo_rows_keep_their_order(grid, droop, fanout):
            # A node under five or more footprints: the reference's sum of
            # its branches runs in an order std::sort leaves unspecified.
            assert got_ff == pytest.approx(want_ff, rel=1e-15)
            _close_to_reference(sol, sources, vr, plane_v, node_v, loss)
            return
        assert _same(got_ff, want_ff)
        # The stencil product sums each row as the sparse product does.
        x = np.random.default_rng(grid.n_nodes).standard_normal(want_ff.shape[0])
        assert _same(op.product(x), want_csc @ x)
        if len(op.sectors) > 1:
            # A mirror-symmetric plane is solved on its sector factors, not
            # on the reference's whole-block factor.
            _close_to_reference(sol, sources, vr, plane_v, node_v, loss)
            return
        assert _same(sol.vr_currents, vr)
        assert _same(sol.vr_plane_voltages, plane_v)
        assert _same(sol.node_voltages, node_v)
        assert _same(sol.horizontal_loss_w, loss)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([-3.0, -1.0, 0.5, 2.0, 3.5]),
                              st.sampled_from([-3.5, -1.0, 1.0, 2.5]),
                              st.floats(0.0, 5.0)), min_size=1, max_size=8),
           st.permutations(range(4)), st.sampled_from([0.0, 2e-3]),
           st.sampled_from([9, 11, 17]))
    def test_repeated_explicit_sinks_equal_the_dict_path(self, sinks, order, droop,
                                                         resolution):
        # Sinks drawn from a few points repeat; sites in shuffled order with
        # footprints that overlap their neighbours'.
        plan = DieFloorplan(100.0, 8.0)
        corners = [(-4.0, -4.0), (4.0, -4.0), (-4.0, 4.0), (4.0, 4.0)]
        sites = [VrSite(*corners[k], 9.0, 0) for k in order]
        assume(sum(a for _, _, a in sinks) > 0)
        try:
            problem = build_problem(plan, sites, 20.0, 1e-3, resolution,
                                    explicit_sinks=sinks, droop_resistance_ohm=droop)
        except DegenerateGrid:
            assume(False)
        grid = problem.grid
        want: dict[int, float] = {}
        for x, y, cur in sinks:
            idx = _snap_reference(grid, x, y)[0]
            want[idx] = want.get(idx, 0.0) + cur
        total = sum(want.values())
        want = {idx: cur / total * 20.0 for idx, cur in want.items()}
        assert _same(problem.sink_nodes, list(want))
        assert _same(problem.sink_currents, list(want.values()))
        # Normalised before scaling, a subnormal total leaves them finite.
        assert np.isfinite(problem.sink_currents).all()

        pdn_grid._operator = None
        sol = solve_dc(problem)
        fanout = _fanout(problem)
        want_ff, vr, plane_v, node_v, loss = _coo_reference(grid, problem.source_nodes, want,
                                                            droop, fanout)
        assert _same(_operator_block(pdn_grid._operator), want_ff.toarray())
        _close_to_reference(sol, problem.source_nodes, vr, plane_v, node_v, loss)
        drops, currents = _dense_drops(grid, problem.source_nodes, fanout, droop, want)
        _close_to_dense(sol, problem, drops, currents)

    def test_a3_pol_problem_stores_sinks_in_under_100_kb(self, monkeypatch):
        # The POL plane of A3@12V+DSCH draws at 3,921 nodes; as {node: amps}
        # those sinks took about 0.5 MB per problem.
        from pdnx.architecture import build_architecture, evaluate
        from pdnx.datasets import load_datasets

        solves, solve = [], pdn_grid.solve_dc
        monkeypatch.setattr(pdn_grid, "solve_dc",
                            lambda problem: solves.append(problem) or solve(problem))
        ds = load_datasets()
        evaluate(build_architecture("A3@12V", "DSCH", ds), ds)
        pol = solves[0]
        assert pol.sink_nodes.size == 3921
        stored = (pol.sink_nodes.nbytes + pol.sink_currents.nbytes
                  + pol.contact_counts.nbytes + pol.contact_nodes.nbytes)
        assert stored <= 100_000

    def test_a_mapping_is_split_into_the_sink_arrays(self):
        grid = ResistiveGrid(4, 2, 1.0, 1e-3)
        from_mapping = GridProblem(grid, {0: 1.0}, {5: 2.0, 3: 1.0})
        assert from_mapping.sink_nodes.tolist() == [5, 3]
        assert from_mapping.sink_currents.tolist() == [2.0, 1.0]
        from_arrays = GridProblem(grid, {0: 1.0}, np.array([2.0, 1.0]), np.array([5, 3]))
        assert (solve_dc(from_mapping).node_voltages.tolist()
                == solve_dc(from_arrays).node_voltages.tolist())


def _mirror(node: int, nx: int) -> int:
    """Node (i, j)'s image (j, i) under the diagonal mirror."""
    j, i = divmod(node, nx)
    return i * nx + j


@st.composite
def _mirror_problems(draw):
    """Square lattices whose VR set and footprints the diagonal mirror maps
    onto themselves, pinned or drooped, VRs in shuffled order on one rail;
    sinks mirror-symmetric or drawn node by node.

    Returns grid, sources, sinks, droop, fanout and whether the sinks were
    drawn symmetric.
    """
    nx = draw(st.integers(2, 8))
    n = nx * nx
    grid = ResistiveGrid(nx, nx, draw(st.floats(0.1, 2.0)), draw(st.floats(1e-4, 1e-2)))
    picked = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
    nodes = draw(st.permutations(sorted({m for p in picked for m in (p, _mirror(p, nx))})))
    assume(len(nodes) < n)
    symmetric = draw(st.booleans())

    def drawn(strategy, keys):
        """One value per orbit when symmetric, else one per node."""
        values = {}
        for key in keys:
            orbit = min(key, _mirror(key, nx)) if symmetric else key
            if orbit not in values:
                values[orbit] = draw(strategy)
        return {key: values[min(key, _mirror(key, nx)) if symmetric else key] for key in keys}

    sources = dict.fromkeys(nodes, draw(st.floats(0.9, 1.1)))
    sinks = drawn(st.just(0.0) | st.floats(0.1, 10.0), [i for i in range(n) if i not in sources])
    assume(sum(sinks.values()) > 0)
    droop = draw(st.sampled_from([0.0, 1e-4, 3e-3]) | st.floats(1e-5, 1e-2))
    fanout = {}
    for node in nodes:
        low = min(node, _mirror(node, nx))
        if low not in fanout:
            j, i = divmod(low, nx)
            di = draw(st.integers(0, 2))
            dj = di if i == j else draw(st.integers(0, 2))
            fanout[low] = tuple(jj * nx + ii
                                for jj in range(max(j - dj, 0), min(j + dj, nx - 1) + 1)
                                for ii in range(max(i - di, 0), min(i + di, nx - 1) + 1))
        fanout[node] = tuple(sorted(c if node == low else _mirror(c, nx) for c in fanout[low]))
    return grid, sources, sinks, droop, fanout, symmetric


class TestMirrorSectors:
    """A plane the diagonal mirror maps onto itself is solved on its
    symmetric and antisymmetric sectors."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_mirror_problems())
    def test_agrees_with_the_dense_nodal_solve(self, factorisations, drawn):
        grid, sources, sinks, droop, fanout, symmetric_rhs = drawn
        problem = GridProblem(grid, sources, sinks, droop_resistance_ohm=droop,
                              **_contacts(sources, fanout))
        pdn_grid._operator = None
        factorisations.sectors.clear()
        sol = solve_dc(problem)
        drops, currents = _dense_drops(grid, sources, fanout, droop, sinks)
        _close_to_dense(sol, problem, drops, currents)
        # Pinned, or with no node under two footprints, a node's diagonal
        # is its edges plus at most one branch, so mirror images have equal
        # diagonals and the plane splits; the antisymmetric sector needs a
        # free node off the mirror axis.
        under = np.bincount([c for contacts in fanout.values() for c in contacts],
                            minlength=grid.n_nodes)
        if droop == 0.0 or under.max() <= 1:
            free = range(grid.n_nodes) if droop > 0.0 else set(range(grid.n_nodes)) - set(sources)
            off_axis = any(_mirror(f, grid.nx) != f for f in free)
            assert len(pdn_grid._operator.sectors) == 1 + off_axis
            if symmetric_rhs:
                assert len(factorisations.sectors) == 1

    @staticmethod
    def _mirrored_fanout_problem(sinks) -> GridProblem:
        # VR 35's contacts (34, 29) are each other's mirror images.
        sources = {0: 1.0, 35: 1.0}
        fanout = {0: (0, 1, 6), 35: (29, 34, 35)}
        return GridProblem(ResistiveGrid(6, 6, 1.0, 1e-3), sources, sinks,
                           droop_resistance_ohm=2e-3, **_contacts(sources, fanout))

    def test_symmetric_sinks_factor_one_sector(self, factorisations):
        sinks = {i: 1.0 + 0.1 * min(i, _mirror(i, 6)) for i in range(1, 35)}
        problem = self._mirrored_fanout_problem(sinks)
        sol = solve_dc(problem)
        # 36 nodes: 21 orbits, 15 pairs.
        assert factorisations.sectors == [(21, 21)]
        drops, currents = _dense_drops(problem.grid, problem.source_nodes, _fanout(problem),
                                       2e-3, sinks)
        _close_to_dense(sol, problem, drops, currents)
        # The drops are the symmetric sector's lifted back: mirror images
        # of each other bit for bit.
        voltages = sol.node_voltages.reshape(6, 6)
        assert (voltages == voltages.T).all()

    def test_asymmetric_sinks_factor_both_sectors(self, factorisations):
        sinks = {i: 1.0 + 0.1 * i for i in range(1, 35)}
        problem = self._mirrored_fanout_problem(sinks)
        sol = solve_dc(problem)
        assert factorisations.sectors == [(21, 21), (15, 15)]
        drops, currents = _dense_drops(problem.grid, problem.source_nodes, _fanout(problem),
                                       2e-3, sinks)
        _close_to_dense(sol, problem, drops, currents)
        # A second solve finds both factors built.
        solve_dc(self._mirrored_fanout_problem({i: 2.0 for i in range(1, 35)}))
        assert len(factorisations.sectors) == 2

    @pytest.mark.parametrize("skew,sectors", [
        (0.0, [(21, 21)]), (math.ulp(1.1), [(21, 21)]), (1e-6, [(21, 21), (15, 15)])],
        ids=["exact", "one_ulp", "1e-6"])
    def test_rounding_level_skew_factors_one_sector(self, factorisations, skew, sectors):
        # Node 1's sink exceeds its mirror image's by skew. A one-ulp
        # antisymmetric share is far below 1e-13 of the right-hand side, so
        # its sector is neither factorised nor solved; a 1e-6 share is.
        sinks = {i: 1.0 + 0.1 * min(i, _mirror(i, 6)) for i in range(1, 35)}
        sinks[1] += skew
        assert (sinks[1] - sinks[6] > 0) == (skew > 0)
        problem = self._mirrored_fanout_problem(sinks)
        sol = solve_dc(problem)
        assert factorisations.sectors == sectors
        _, vr, plane_v, node_v, loss = _coo_reference(problem.grid, problem.source_nodes,
                                                      sinks, 2e-3, _fanout(problem))
        _close_to_reference(sol, problem.source_nodes, vr, plane_v, node_v, loss)

    def test_non_square_lattice_is_one_sector(self, factorisations):
        problem = GridProblem(ResistiveGrid(6, 5, 1.0, 1e-3), {0: 1.0, 29: 1.0},
                              {i: 1.0 for i in range(1, 29)})
        solve_dc(problem)
        assert len(pdn_grid._operator.sectors) == 1
        assert factorisations.sectors == [(28, 28)]

    @pytest.mark.parametrize("sink", [2.4920711131914822e-281, 1e-300])
    def test_a_demand_whose_squares_underflow_is_solved(self, factorisations, sink):
        # The squares in the 2-norm of a demand this small underflow to 0, so
        # the share test used to skip the one sector and report no current.
        problem = GridProblem(ResistiveGrid(1, 2, 1.0, 0.0078125), {0: 1.0}, {1: sink})
        # Band Cholesky divides by sqrt(a) twice, so the current may be an
        # ulp or two off the sink.
        assert solve_dc(problem).vr_currents == pytest.approx([sink], rel=1e-15)
        assert factorisations.sectors == [(1, 1)]

    @pytest.mark.parametrize("order,sectors", [((3, 5, 12), [(16, 16)]),
                                               ((5, 3, 12), [(10, 10), (6, 6)])])
    def test_a_diagonal_one_ulp_off_is_one_sector(self, factorisations, order, sectors):
        # On a 4x4 lattice, VR 5 on the mirror axis contacts (2, 0) and its
        # image (0, 2) among six nodes; VRs 3 and 12 each contact one of
        # them. A node's diagonal adds its branches in VR order: with VR 3
        # first, (2, 0) sums 3 g + g_3 + g_5 and (0, 2) sums 3 g + g_5 +
        # g_12, one ulp apart. With VR 5 first both sum 3 g + g_5 + g_3,
        # and the plane splits.
        g, g_one, g_six = 1.0 / 1e-3, 1.0 / 1e-3, (1.0 / 1e-3) / 6
        sum_a, sum_b = (g + g + g + g_one) + g_six, (g + g + g + g_six) + g_one
        assert abs(sum_a - sum_b) == math.ulp(sum_a)
        fanout = {3: (2,), 5: (0, 2, 5, 8, 10, 15), 12: (8,)}
        sources = dict.fromkeys(order, 1.0)
        sinks = {i: 1.0 + 0.1 * i for i in range(16) if i not in sources}
        problem = GridProblem(ResistiveGrid(4, 4, 1.0, 1e-3), sources, sinks,
                              droop_resistance_ohm=1e-3, **_contacts(sources, fanout))
        sol = solve_dc(problem)
        diagonal = pdn_grid._operator.diag
        assert abs(diagonal[2] - diagonal[8]) == (math.ulp(sum_a) if order[0] == 3 else 0.0)
        assert factorisations.sectors == sectors
        drops, currents = _dense_drops(problem.grid, sources, fanout, 1e-3, sinks)
        _close_to_dense(sol, problem, drops, currents)

    @pytest.mark.parametrize("arch,topo,sectors", [
        ("A1", "DSCH", [1]), ("A2", "DSCH", [2]), ("A3@12V", "DSCH", [2, 2]),
        ("A3@6V", "DSCH", [2, 2])])
    def test_shipped_planes(self, monkeypatch, arch, topo, sectors):
        # The under-die DSCH grid and the A3 intermediate planes are their
        # own mirror images; A1's periphery ring is not.
        from pdnx.architecture import build_architecture, evaluate
        from pdnx.datasets import load_datasets

        built, factor = [], pdn_grid._factor_plane
        monkeypatch.setattr(pdn_grid, "_factor_plane",
                            lambda key: built.append(factor(key)) or built[-1])
        monkeypatch.setattr(pdn_grid, "_operator", None)
        ds = load_datasets()
        evaluate(build_architecture(arch, topo, ds), ds)
        assert [len(op.sectors) for op in built] == sectors


def _reference_sector_block(grid: ResistiveGrid, free: np.ndarray, lap_ff: sp.csc_matrix,
                            parity: float | None) -> tuple[sp.csc_matrix, np.ndarray]:
    """P^T A P of a sector by sparse products, and the lower lattice node of
    each of its unknowns. parity None is the whole free block (P = I);
    otherwise P has one column per orbit of the free nodes under the
    diagonal mirror (parity +1) or per off-axis pair (parity -1), by lower
    node, with 1 on that node and parity on its image."""
    if parity is None:
        return lap_ff, free
    index = {node: k for k, node in enumerate(free.tolist())}
    orbits = [(node, _mirror(node, grid.nx)) for node in free.tolist()
              if node <= _mirror(node, grid.nx) and (parity > 0 or node != _mirror(node, grid.nx))]
    entries = []
    for column, (lo, hi) in enumerate(orbits):
        entries.append((index[lo], column, 1.0))
        if hi != lo:
            entries.append((index[hi], column, parity))
    rows, cols, vals = zip(*entries)
    basis = sp.csr_matrix((vals, (rows, cols)), shape=(free.size, len(orbits)))
    return (basis.T @ (lap_ff @ basis)).tocsc(), np.array([lo for lo, _ in orbits])


def _reduced_reference(block: sp.csc_matrix, lo: np.ndarray,
                       nx: int) -> tuple[sp.csc_matrix, np.ndarray]:
    """S = B_EE - B_EO D_O^-1 B_OE of a sector block B by sparse products,
    E and O its unknowns on even and odd wavefronts (i + j of the lattice
    node lo), and the lattice nodes lo of E. B_OO must be diagonal."""
    odd = (lo % nx + lo // nx) % 2 == 1
    even_k, odd_k = np.flatnonzero(~odd), np.flatnonzero(odd)
    b_oo = block[odd_k][:, odd_k]
    d_o = b_oo.diagonal()
    assert (b_oo - sp.diags(d_o)).count_nonzero() == 0
    b_eo = block[even_k][:, odd_k]
    schur = block[even_k][:, even_k] - b_eo @ sp.diags(1.0 / d_o) @ b_eo.T
    return schur.tocsc(), lo[even_k]


# Two 3x3 planes pinned on one colour of the checkerboard: every unknown of
# both sectors is on the other colour.
_ONE_COLOUR_PLANES = [
    (ResistiveGrid(3, 3, 1.0, 1e-3), dict.fromkeys(pinned, 1.0),
     {k: 1.0 for k in range(9) if k not in pinned}, 0.0, {k: (k,) for k in pinned})
    for pinned in ((1, 3, 5, 7), (0, 2, 4, 6, 8))]


class TestBandAssembly:
    """Each sector block, assembled from the stencil, against P^T A P of the
    COO assembly, built here by sparse products: the upper band dpbtrf
    receives and its wavefront order. A block above the band cut is reduced
    to its even wavefronts: its Schur complement, in the lower band dpbtrf
    receives and the CSC block SuperLU receives, against S formed here from
    P^T A P by sparse products."""

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.one_of(_stencil_problems(), _mirror_problems().map(lambda drawn: drawn[:5])))
    @example(_ONE_COLOUR_PLANES[0])
    @example(_ONE_COLOUR_PLANES[1])
    def test_equals_the_sparse_projection(self, monkeypatch, drawn):
        grid, sources, sinks, droop, fanout = drawn
        problem = GridProblem(grid, sources, sinks, droop_resistance_ohm=droop,
                              **_contacts(sources, fanout))
        op = pdn_grid._factor_plane(pdn_grid.plane_key(problem))
        lap_ff = _coo_reference(grid, sources, sinks, droop, fanout)[0]
        free = np.arange(grid.n_nodes)[op.free]
        bands, blocks = [], []
        monkeypatch.setattr(lapack, "dpbtrf",
                            lambda band, **kw: bands.append(band.copy()) or dpbtrf(band, **kw))
        monkeypatch.setattr(spla, "splu", lambda block, **kw: blocks.append(block))
        args = (op.grid, op.diag, op.shunt, op.free)
        for sector in op.sectors:
            want, lo = _reference_sector_block(grid, free, lap_ff,
                                               None if sector.hi is None else sector.parity)
            assert (free[sector.lo] == lo).all()
            want_band, want_order = _wavefront_band(want, lo % grid.nx, lo // grid.nx)
            monkeypatch.setattr(pdn_grid, "_BAND_MAX_WIDTH", math.inf)
            lu = pdn_grid._factor_block(*args, sector)
            got_band = bands[-1]
            assert not lu.lower
            assert (lu.order == want_order).all()
            assert got_band.shape == want_band.shape
            if _coo_rows_keep_their_order(grid, droop, fanout):
                assert _same(got_band, want_band)
            else:
                # A node under five or more footprints: the reference sums
                # its branches in an order std::sort leaves unspecified.
                assert got_band == pytest.approx(want_band, rel=1e-15)

            want_s, lo_even = _reduced_reference(want, lo, grid.nx)
            want_band, want_order = _wavefront_band(want_s, lo_even % grid.nx,
                                                    lo_even // grid.nx, lower=True)
            monkeypatch.setattr(pdn_grid, "_BAND_MAX_WIDTH", -1)
            monkeypatch.setattr(pdn_grid, "_REDUCED_MAX_WIDTH", math.inf)
            reduced = pdn_grid._factor_block(*args, sector)
            got_band = bands[-1]
            monkeypatch.setattr(pdn_grid, "_REDUCED_MAX_WIDTH", -1)
            pdn_grid._factor_block(*args, sector)
            got_block = blocks[-1]
            assert (lo[reduced.even] == lo_even).all()
            assert reduced.schur.lower
            assert (reduced.schur.order == want_order).all()
            assert got_band.shape == want_band.shape
            assert got_block.has_canonical_format and got_block.nnz == want_s.nnz
            # S's diagonal is summed from non-negative terms, the reference's
            # by subtracting: they agree to rounding at B's diagonal.
            scale = 1e-14 * np.abs(want.diagonal()).max(initial=0.0)
            assert got_band == pytest.approx(want_band, rel=1e-14, abs=scale)
            assert got_block.toarray() == pytest.approx(want_s.toarray(), rel=1e-14, abs=scale)


@pytest.fixture
def recorded_solves(monkeypatch):
    """Empty operator slot; every plane solve is logged as (op, b, x), op the
    plane operator that solved A x = b on its whole free block A (with
    droop, b is the level-shifted right-hand side and x the drops w below
    the plane's level), and x is scaled by 1 + perturb[0] before it is
    returned."""
    log, perturb = [], [0.0]
    solve = pdn_grid._PlaneOperator.solve

    def recorded(op, rhs):
        x = solve(op, rhs) * (1.0 + perturb[0])
        log.append((op, rhs, x))
        return x

    monkeypatch.setattr(pdn_grid._PlaneOperator, "solve", recorded)
    monkeypatch.setattr(pdn_grid, "_operator", None)
    return log, perturb


class TestBackwardError:
    """solve_dc bounds ||r|| / (||A||_inf ||x|| + ||b||), which does not grow
    with the plane's conductance scale, at 1e-10."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_random_problems())
    def test_accepts_every_solve_the_relative_residual_accepted(self, recorded_solves,
                                                               problem):
        # The denominator is at least ||b||, so every solve that passed the
        # bound on ||r|| / ||b|| passes. ||A||_inf of the symmetric free
        # block is never below its 2-norm.
        log, _ = recorded_solves
        first = len(log)
        sol = solve_dc(problem)
        op, shifted, w = log[first]
        assert op is pdn_grid._operator
        dense = _operator_block(op)
        # The loop assembly takes a branch's conductance as 1 / (droop * m),
        # not (1 / droop) / m: an ulp apart at most.
        assert dense == pytest.approx(_dense_free_block(problem), rel=1e-15)
        norm_inf = np.abs(dense).sum(axis=1).max()
        assert pdn_grid._operator.norm_inf == pytest.approx(norm_inf, rel=1e-14)
        assert np.linalg.norm(dense, 2) <= norm_inf * (1.0 + 1e-12)
        # The bound is on the drops u = w + c that solve A u = b, b minus
        # the sinks at the free nodes and c the plane's level with droop (0
        # without), whose shifted system A w = b - c d, d = A 1, was the one
        # solved.
        injections = np.zeros(problem.grid.n_nodes)
        injections[problem.sink_nodes] = -problem.sink_currents
        rhs = injections[op.free]
        level = 0.0
        if problem.droop_resistance_ohm > 0.0:
            d = dense.sum(axis=1)
            assert op.shunt == pytest.approx(d, rel=1e-12, abs=1e-12 * norm_inf)
            level = float(np.sum(rhs)) / float(np.sum(op.shunt))
        assert _same(shifted, rhs - level * op.shunt[op.free])
        x = w + level
        if len(log) > first + 1:
            # A drooped plane with an idle VR is solved for u as well.
            assert len(log) == first + 2 and level != 0.0
            _, unshifted, x = log[-1]
            assert _same(unshifted, rhs)
        r = np.linalg.norm(op.product(x) - rhs)
        want = r / (norm_inf * np.linalg.norm(x) + np.linalg.norm(rhs))
        assert sol.residual == pytest.approx(want, rel=1e-12, abs=0.0)
        assert sol.residual <= r / np.linalg.norm(rhs)
        assert sol.residual <= 1e-10

    def test_stiff_a3_plane_is_solved(self, recorded_solves):
        # A3@12V+DSCH at 1e-5 ohm/sq, droop scale 2 and resolution 33: the
        # relative residual of one of its solves came in at 1.25e-10, over
        # the 1e-10 bound, and made the cell an error.
        from dataclasses import replace

        from pdnx.architecture import compare
        from pdnx.datasets import load_datasets

        log, _ = recorded_solves
        ds = load_datasets()
        cal = replace(ds.calibration, sheet_resistance_ohm_sq=1e-5,
                      droop_share_resistance_scale=2.0, grid_resolution=33)
        [cell] = compare(["A3@12V"], ["DSCH"], replace(ds, calibration=cal)).cells
        assert cell.status == "ok", cell.reason
        # Solved for its drops below the plane's level, each shifted system
        # comes in at a relative residual far below the bound.
        relative = [np.linalg.norm(op.product(x) - b) / np.linalg.norm(b) for op, b, x in log]
        assert max(relative) <= 1e-12

    def test_infinite_sink_is_an_overflow(self):
        # Its backward error is NaN, which the bound's comparison alone
        # lets through as NaN node voltages.
        problem = GridProblem(ResistiveGrid(3, 3, 1.0, 1e-3), {0: 1.0}, {4: math.inf})
        with pytest.raises(OverflowError, match="not finite"):
            solve_dc(problem)

    def test_perturbed_solution_raises(self, recorded_solves):
        # The message names the sheet conductance, 1000 S, over the weakest
        # VR branch, 1 / (2e-3 ohm * 3 contacts).
        _, perturb = recorded_solves
        perturb[0] = 1e-6
        with pytest.raises(SingularSystem, match="backward error .* exceeds 1e-10; the sheet "
                           "conductance is 6 times the smallest VR branch conductance$"):
            solve_dc(_fanout_problem())


@pytest.fixture
def every_block_reduced(monkeypatch):
    """A band cut of -1: every sector block is reduced to its even
    wavefronts, however narrow."""
    monkeypatch.setattr(pdn_grid, "_BAND_MAX_WIDTH", -1)


@pytest.mark.usefixtures("every_block_reduced")
class TestEveryBlockReduced:
    """The dense oracles and the backward-error bound, unchanged, with every
    sector block reduced to its even wavefronts."""

    test_matches_dense_elimination = TestDenseOracle.test_matches_dense_elimination

    # A hypothesis test runs its own draws; the body is the original's.
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_mirror_problems())
    def test_agrees_with_the_dense_nodal_solve(self, factorisations, drawn):
        TestMirrorSectors.test_agrees_with_the_dense_nodal_solve.hypothesis.inner_test(
            self, factorisations, drawn)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_random_problems())
    def test_accepts_every_solve_the_relative_residual_accepted(self, recorded_solves,
                                                               problem):
        TestBackwardError.test_accepts_every_solve_the_relative_residual_accepted \
            .hypothesis.inner_test(self, recorded_solves, problem)

    test_stiff_a3_plane_is_solved = TestBackwardError.test_stiff_a3_plane_is_solved
    test_infinite_sink_is_an_overflow = TestBackwardError.test_infinite_sink_is_an_overflow
    test_perturbed_solution_raises = TestBackwardError.test_perturbed_solution_raises
