"""DC current sharing on a horizontal power plane.

The plane is a uniform resistive lattice: one conductance of 1/R_sheet per
cell edge (square cells). Point-of-load demand is drawn as current sinks
spread over the nodes under the die shadow. Every VR is one Dirichlet node
held at its source voltage. With pinned outputs that node is the plane node
the VR snapped to; with output droop it is a virtual node behind one branch
per footprint contact, the branches together carrying the droop resistance.
One Laplacian covers the plane edges and the branches. Eliminating the
Dirichlet nodes leaves a symmetric positive definite system for the free
node voltages. Its factor depends only on the lattice, the Dirichlet nodes
and the branches, so the last one is kept and reused while problems on the
same plane differ only in sinks and source voltages. Each VR's current is
the net current out of its Dirichlet node; edge currents and the plane's
ohmic loss (doubled for the mirrored ground plane) follow from the solved
voltages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DegenerateGrid, SingularSystem
from .placement import DieFloorplan, VrSite

_RESIDUAL_TOL = 1e-10
# Largest lattice build_problem will discretise; checked before allocation.
_MAX_NODES = 1_000_000


@dataclass(frozen=True)
class ResistiveGrid:
    """Uniform rectangular node lattice over the plane."""

    nx: int
    ny: int
    cell_pitch_mm: float
    sheet_resistance_ohm_sq: float
    x0_mm: float = 0.0    # coordinates of node (0, 0)
    y0_mm: float = 0.0

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1 or self.nx * self.ny < 2:
            raise ValueError("grid needs at least two nodes")
        if self.cell_pitch_mm <= 0:
            raise ValueError("cell_pitch_mm must be > 0")
        if self.sheet_resistance_ohm_sq <= 0:
            raise ValueError("sheet_resistance_ohm_sq must be > 0")

    @property
    def n_nodes(self) -> int:
        return self.nx * self.ny

    def node_index(self, i: int, j: int) -> int:
        return j * self.nx + i

    def node_xy(self, index: int) -> tuple[float, float]:
        j, i = divmod(index, self.nx)
        return (self.x0_mm + i * self.cell_pitch_mm, self.y0_mm + j * self.cell_pitch_mm)

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Endpoint index arrays of all horizontal and vertical lattice edges."""
        idx = np.arange(self.n_nodes).reshape(self.ny, self.nx)
        h_a = idx[:, :-1].ravel()
        h_b = idx[:, 1:].ravel()
        v_a = idx[:-1, :].ravel()
        v_b = idx[1:, :].ravel()
        return np.concatenate([h_a, v_a]), np.concatenate([h_b, v_b])


@dataclass(frozen=True)
class GridProblem:
    """A grid plus fixed-voltage source nodes and current-sink nodes.

    With droop_resistance_ohm > 0, each source pins a virtual node behind a
    series resistance instead of the plane node itself: that is how parallel
    VRs actually share current (output droop). The series element models the
    converter's internal series resistance, so its dissipation belongs to the
    converter loss model, not to the plane.
    """

    grid: ResistiveGrid
    source_nodes: dict[int, float]      # node index -> fixed voltage, insertion-ordered
    sink_currents: dict[int, float]     # node index -> drawn current (>= 0)
    droop_resistance_ohm: float = 0.0   # 0 = ideal pinned sources
    # In droop mode a VR couples over its whole footprint pad field rather
    # than one node; maps each source node to its plane contact nodes.
    source_fanout: dict[int, tuple[int, ...]] | None = None

    def __post_init__(self):
        if not self.source_nodes:
            raise ValueError("need at least one source node")
        overlap = set(self.source_nodes) & set(self.sink_currents)
        if overlap:
            raise ValueError(f"sink and source nodes must be disjoint: {sorted(overlap)}")
        if any(i < 0 for i in self.sink_currents.values()):
            raise ValueError("sink currents must be >= 0")
        if sum(self.sink_currents.values()) <= 0:
            raise ValueError("total sink current must be > 0")
        if self.droop_resistance_ohm < 0:
            raise ValueError("droop_resistance_ohm must be >= 0")


@dataclass
class GridSolution:
    """Solved node voltages and the derived current/loss quantities."""

    node_voltages: np.ndarray           # per node, V
    vr_currents: np.ndarray             # per source node, source order, A
    source_nodes: tuple[int, ...]
    edge_a: np.ndarray
    edge_b: np.ndarray
    edge_currents: np.ndarray           # positive from edge_a toward edge_b, A
    horizontal_loss_w: float            # both planes (power + ground return)
    vr_plane_voltages: np.ndarray       # plane-side terminal voltage per VR
    residual: float = 0.0


def _snap_site(grid: ResistiveGrid, x: float, y: float) -> tuple[int, bool]:
    """Nearest node to (x, y), ties toward the lower index.

    Also flags a fully ambiguous snap (equidistant to all four surrounding
    nodes, i.e. the site sits at a cell center); the caller refines the
    lattice once in that case because no node represents the site at all.
    """
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


def _build_grid(plan: DieFloorplan, sites: list[VrSite] | tuple[VrSite, ...],
                resolution: int, sheet_resistance: float) -> ResistiveGrid:
    side = plan.side_mm
    half = side / 2.0
    pitch = side / (resolution - 1)
    needed_half = half
    for s in sites:
        w = math.sqrt(s.footprint_mm2)
        needed_half = max(needed_half, abs(s.x_mm) + w / 2.0, abs(s.y_mm) + w / 2.0)
    n_ext = math.ceil((needed_half - half) / pitch - 1e-12) if needed_half > half else 0
    n = resolution + 2 * n_ext
    if n * n > _MAX_NODES:
        raise ValueError(
            f"a {n}x{n} lattice ({n * n} nodes at grid_resolution {resolution}) "
            f"exceeds the {_MAX_NODES} node limit"
        )
    origin = -half - n_ext * pitch
    return ResistiveGrid(n, n, pitch, sheet_resistance, origin, origin)


def build_problem(
    plan: DieFloorplan,
    sites: list[VrSite] | tuple[VrSite, ...],
    demand_a: float,
    sheet_resistance_ohm_sq: float,
    grid_resolution: int = 32,
    rail_voltage_v: float = 1.0,
    demand_weight: float = 0.0,
    explicit_sinks: list[tuple[float, float, float]] | None = None,
    droop_resistance_ohm: float = 0.0,
) -> GridProblem:
    """Discretize a placement into a grid problem.

    The lattice spans the die shadow at grid_resolution nodes across and is
    extended outward to cover any periphery sites. Every site pins its
    nearest node to the rail voltage. Demand is drawn at the nodes under the
    die shadow, weighted by a radial profile (weight 1 + w*(1 - (r/r0)^2)
    with r0 the die half-diagonal; w = 0 is uniform), unless explicit sinks
    (x, y, current) are given. Snapping collisions trigger one automatic
    lattice refinement before raising DegenerateGrid. A lattice above
    _MAX_NODES nodes, after extension or refinement, raises ValueError
    before it is allocated.
    """
    if demand_a <= 0:
        raise ValueError("demand_a must be > 0")
    if not sites:
        raise ValueError("need at least one VR site")
    if grid_resolution < 2:
        raise ValueError("grid_resolution must be >= 2")

    resolution = grid_resolution
    for attempt in range(2):
        grid = _build_grid(plan, sites, resolution, sheet_resistance_ohm_sq)
        source_nodes: dict[int, float] = {}
        fanout: dict[int, tuple[int, ...]] = {}
        degenerate = False
        for s in sites:
            idx, tied = _snap_site(grid, s.x_mm, s.y_mm)
            if tied or idx in source_nodes:
                degenerate = True
                break
            source_nodes[idx] = rail_voltage_v
            fanout[idx] = _footprint_nodes(grid, s, idx)

        # A lattice the sites do not snap to cleanly is refined without
        # drawing any demand on it.
        sink_currents: dict[int, float] = {}
        if not degenerate:
            if explicit_sinks is not None:
                for (sx, sy, cur) in explicit_sinks:
                    idx, tied = _snap_site(grid, sx, sy)
                    if tied or idx in source_nodes:
                        degenerate = True
                        break
                    sink_currents[idx] = sink_currents.get(idx, 0.0) + cur
                total = sum(sink_currents.values())
                if not degenerate and total > 0:
                    scale = demand_a / total
                    sink_currents = {k: v * scale for k, v in sink_currents.items()}
            else:
                sink_currents = _profile_sinks(plan, grid, source_nodes, demand_a, demand_weight)

        if not degenerate and sink_currents:
            return GridProblem(grid, source_nodes, sink_currents,
                               droop_resistance_ohm=droop_resistance_ohm,
                               source_fanout=fanout)
        if attempt == 0:
            # One refinement keeps the old nodes and adds the midpoints.
            resolution = 2 * resolution - 1
            continue
        raise DegenerateGrid(
            "VR sites collapse onto shared or ambiguous grid nodes even after refinement"
        )
    raise AssertionError("unreachable")


def _footprint_nodes(grid: ResistiveGrid, site: VrSite, center_idx: int) -> tuple[int, ...]:
    """Plane nodes covered by the site's square footprint (at least the center)."""
    w2 = math.sqrt(site.footprint_mm2) / 2.0
    i_lo = math.ceil((site.x_mm - w2 - grid.x0_mm) / grid.cell_pitch_mm - 1e-12)
    i_hi = math.floor((site.x_mm + w2 - grid.x0_mm) / grid.cell_pitch_mm + 1e-12)
    j_lo = math.ceil((site.y_mm - w2 - grid.y0_mm) / grid.cell_pitch_mm - 1e-12)
    j_hi = math.floor((site.y_mm + w2 - grid.y0_mm) / grid.cell_pitch_mm + 1e-12)
    nodes = [
        grid.node_index(i, j)
        for j in range(max(j_lo, 0), min(j_hi, grid.ny - 1) + 1)
        for i in range(max(i_lo, 0), min(i_hi, grid.nx - 1) + 1)
    ]
    if not nodes:
        nodes = [center_idx]
    return tuple(nodes)


def _profile_sinks(plan: DieFloorplan, grid: ResistiveGrid, source_nodes: dict[int, float],
                   demand_a: float, demand_weight: float) -> dict[int, float]:
    half = plan.side_mm / 2.0
    r0_sq = 2.0 * half * half   # squared distance to a die corner
    eps = 1e-9 * plan.side_mm
    x = np.tile(grid.x0_mm + np.arange(grid.nx) * grid.cell_pitch_mm, grid.ny)
    y = np.repeat(grid.y0_mm + np.arange(grid.ny) * grid.cell_pitch_mm, grid.nx)
    drawn = (np.abs(x) <= half + eps) & (np.abs(y) <= half + eps)
    drawn[list(source_nodes)] = False
    idx = np.flatnonzero(drawn)
    x, y = x[idx], y[idx]
    w = 1.0 + demand_weight * np.maximum(0.0, 1.0 - (x * x + y * y) / r0_sq)
    # Nodes on the die outline own only half (corners: a quarter) of a
    # cell; trapezoidal coverage keeps the drawn area resolution-stable.
    w[np.abs(np.abs(x) - half) <= eps] *= 0.5
    w[np.abs(np.abs(y) - half) <= eps] *= 0.5
    # Summed in node order, as a Python float sum, so the total does not
    # depend on numpy's pairwise blocking.
    total_w = sum(w.tolist())
    if total_w <= 0:
        return {}
    return dict(zip(idx.tolist(), (demand_a * w / total_w).tolist()))


@dataclass(frozen=True)
class _PlaneOperator:
    """A plane's nodal system with its free block factorised.

    It depends only on the lattice, the Dirichlet nodes and the VR branches
    (`key`); sinks and source voltages enter each solve as a right-hand side.
    """

    key: tuple
    source_nodes: tuple[int, ...]
    n_all: int                     # plane nodes plus virtual VR nodes
    free: np.ndarray
    pinned: np.ndarray
    lap_ff: sp.csc_matrix          # free rows, free columns
    lap_fp: sp.csr_matrix          # free rows, Dirichlet columns
    lap_p: sp.csr_matrix           # Dirichlet rows, all columns
    lu: spla.SuperLU
    edge_a: np.ndarray
    edge_b: np.ndarray
    br_vr: np.ndarray              # per VR branch: its VR, plane node, conductance
    br_node: np.ndarray
    br_g: np.ndarray


# The most recently factorised operator. A problem with the same key reuses
# it; any other problem replaces it, so at most one factor is alive.
_operator: _PlaneOperator | None = None


def _plane_operator(problem: GridProblem) -> _PlaneOperator:
    """The operator of problem's plane: the one in the slot or a new one."""
    global _operator
    source_nodes = tuple(int(i) for i in problem.source_nodes)
    droop = problem.droop_resistance_ohm
    contacts = None
    if droop > 0.0:
        fanout = problem.source_fanout or {}
        contacts = tuple(tuple(fanout.get(i, (i,))) for i in source_nodes)
    key = (problem.grid, source_nodes, droop, contacts)
    if _operator is None or _operator.key != key:
        _operator = None    # release the old factor before building the next
        _operator = _factor_plane(key)
    return _operator


def _factor_plane(key: tuple) -> _PlaneOperator:
    """Assemble the Laplacian, split it at the Dirichlet nodes, factor the rest.

    Every VR is a Dirichlet node: the plane node it snapped to when sources
    are pinned, or a virtual node n + k joined to each of its contacts by a
    branch of conductance 1/(droop * contacts) with droop. The free block is
    symmetric positive definite; it is factorised with a minimum-degree
    ordering on A^T + A, which suits a lattice Laplacian.
    """
    grid, source_nodes, droop, contacts = key
    n = grid.n_nodes
    k = len(source_nodes)
    edge_a, edge_b = grid.edges()
    edge_a.flags.writeable = edge_b.flags.writeable = False
    if contacts is not None:
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
    return _PlaneOperator(
        key=key, source_nodes=source_nodes, n_all=n_all, free=free, pinned=pinned,
        lap_ff=lap_ff, lap_fp=lap_free[:, pinned], lap_p=lap[pinned],
        lu=spla.splu(lap_ff, permc_spec="MMD_AT_PLUS_A"),
        edge_a=edge_a, edge_b=edge_b, br_vr=br_vr, br_node=br_node, br_g=br_g,
    )


def solve_dc(problem: GridProblem) -> GridSolution:
    """Solve the nodal system and derive currents and the plane loss.

    The factorised operator of the plane is reused while the lattice, the
    source nodes and the droop branches stay the same; only the sinks and
    the source voltages change the right-hand side. The unknowns are the
    drops u = v - v_ref below the first source voltage: Laplacian rows sum
    to zero, so this is exact, and it keeps the rail voltage out of the
    differences the currents are computed from. The relative residual must
    come in at or below 1e-10. Each VR's current is the net current out of
    its Dirichlet node.
    """
    op = _plane_operator(problem)
    n = problem.grid.n_nodes
    source_v = np.fromiter(problem.source_nodes.values(), dtype=float,
                           count=len(problem.source_nodes))
    v_ref = source_v[0]
    u_pinned = source_v - v_ref

    sinks = problem.sink_currents
    injections = np.zeros(op.n_all)
    injections[np.fromiter(sinks.keys(), dtype=np.int64, count=len(sinks))] = \
        -np.fromiter(sinks.values(), dtype=float, count=len(sinks))
    rhs = injections[op.free] - op.lap_fp @ u_pinned
    u_free = op.lu.solve(rhs)
    rel_residual = float(np.linalg.norm(op.lap_ff @ u_free - rhs)
                         / max(float(np.linalg.norm(rhs)), np.finfo(float).tiny))
    if rel_residual > _RESIDUAL_TOL:
        raise SingularSystem(
            f"nodal solve residual {rel_residual:.2e} exceeds {_RESIDUAL_TOL:.0e}"
        )
    u = np.empty(op.n_all)
    u[op.free] = u_free
    u[op.pinned] = u_pinned

    vr = op.lap_p @ u
    # Plane-side terminal voltage: the source voltage less the power the
    # VR's branches dissipate per ampere it delivers (v_src when pinned).
    du_br = u[n + op.br_vr] - u[op.br_node]
    branch_loss = np.bincount(op.br_vr, weights=op.br_g * du_br * du_br,
                              minlength=source_v.size)
    plane_voltages = source_v - np.divide(branch_loss, vr, out=np.zeros_like(vr),
                                          where=vr != 0.0)

    g_sheet = 1.0 / problem.grid.sheet_resistance_ohm_sq
    du = u[op.edge_a] - u[op.edge_b]
    voltages = u + v_ref
    voltages[op.pinned] = source_v
    return GridSolution(
        node_voltages=voltages[:n],
        vr_currents=vr,
        source_nodes=op.source_nodes,
        edge_a=op.edge_a,
        edge_b=op.edge_b,
        edge_currents=du * g_sheet,
        horizontal_loss_w=2.0 * float(np.sum(du * du * g_sheet)),
        vr_plane_voltages=plane_voltages,
        residual=rel_residual,
    )
