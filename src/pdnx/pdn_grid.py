"""DC current sharing on a horizontal power plane.

The plane is a uniform resistive lattice: one conductance of 1/R_sheet per
cell edge (square cells). A placement is discretised in array operations:
one vectorised snap puts every VR site (and every explicit sink) on its
nearest node, ties toward the lower node index, and one pass lists each
VR's footprint contacts, the nodes inside its square. A site at a cell
centre, which no node represents, or two sites on one node refine the
lattice once. Point-of-load demand is drawn as current sinks spread over
the nodes under the die shadow; a problem keeps them as one node-index
array and one current array, and each VR's contacts as a count per VR and
one flat node array. That discretisation depends only on the floorplan, the
sites, the resolution and the explicit sinks' positions, so the last one is
kept and reused while problems on one placement differ only in conductances
and currents. Every VR on a plane regulates one rail, at one
voltage, and the unknowns are the drops u = v - rail below it on the plane
nodes. With pinned outputs a VR holds the plane node it snapped to at the
rail; with output droop it feeds each of its footprint contacts through one
branch from the rail, the branches together carrying the droop resistance.
The plane operator is never formed as a sparse matrix: it is the lattice's
5-point stencil, a diagonal (g_sheet per lattice neighbour, then the
branches) and -1/R_sheet on every edge, and its products are taken from the
stencil arrays. With droop every plane node is free, so the stencil is the free
block; with pinned sources the free block is the stencil at the free
nodes. The free block is symmetric positive definite. Sectors, factors and
solves address nodes by their lattice index alone: a right-hand side or a
solution is one value per lattice node, 0 at the pinned ones. A square
plane that the diagonal mirror (i, j) -> (j, i) maps onto itself, diagonal
and free nodes bit for bit, splits into a symmetric and an antisymmetric
sector of about half the nodes each, kept as lattice-node arrays (each
orbit's lower node and its mirror image), and each sector is factorised the
first time a right-hand side has more than a rounding-level component in
it; any other plane is one sector, the whole free block. A sector block
taken in wavefront order over its lattice nodes is banded about as wide as
the lattice: up to a bandwidth of _BAND_MAX_WIDTH its band is assembled
straight from the stencil, in LAPACK's upper band storage, and is one
LAPACK band Cholesky factor. A wider block is reduced exactly to its even
wavefronts, half its unknowns at the same bandwidth, since the stencil
joins each wavefront only to its two neighbours; that Schur complement is
one band Cholesky factor in LAPACK's lower band storage up to
_REDUCED_MAX_WIDTH, and above it is built in CSC and is one SuperLU factor
with a minimum-degree ordering, the one place the solver uses scipy.sparse.
scipy is imported where it runs, scipy.sparse there and scipy.linalg where a
band factor is made or solved, so a run that solves no plane never loads it.
The factors depend only on the lattice, the VR nodes and the branches, so
the last plane's are kept and reused while problems on the same plane differ
only in sinks and rail voltage. Each VR's current is what its node or its
branches feed into the plane; the plane's ohmic loss (doubled for the
mirrored ground plane) follows from the solved drops.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateGrid, SingularSystem
from .floats import ordered_sum
from .placement import DieFloorplan, VrSite

if TYPE_CHECKING:
    from scipy.sparse.linalg import SuperLU

_RESIDUAL_TOL = 1e-10
# A sector whose share of the right-hand side is at most this fraction of it
# is neither factorised nor solved: dropping that share raises the backward
# error by at most this much, far below _RESIDUAL_TOL.
_SECTOR_SHARE_TOL = 1e-3 * _RESIDUAL_TOL
# A drooped plane with a VR whose mean branch drop is below this fraction of
# max |w| is solved for u as well (see solve_dc). In 600 random A1, A2 and
# A3 POL planes, currents from w moved by at most 6e-14 of themselves under
# linear changes of the sinks above 1e-5, and by up to 1.5e-6 below 1e-6.
_IDLE_DROP = 1e-4
# Largest lattice build_problem will discretise; checked before allocation.
_MAX_NODES = 1_000_000
# Widest wavefront bandwidth at which a sector block is factored whole by
# band Cholesky, in the upper band; a wider block is reduced to its even
# wavefronts and S is factored in the lower band, whose dpbtrf is faster
# than the upper one only above w = 64. Per block, median of 9 (one CPU,
# BLAS on one thread, OpenBLAS's SkylakeX kernel), whole against reduced:
# 1.8 against 2.1 ms at w = 48, 7.2 against 4.5 ms at w = 72 and 34 against
# 19 ms at w = 96. At w = 64, mesh_ladder's A2/64 symmetric sector (8,128
# unknowns), reduced was faster in each of five runs (median of 15 each,
# OpenBLAS 0.3.31): factored in 3.8-4.8 against 4.2-5.5 ms, factored and
# solved once in 4.4-5.5 against 4.6-5.9 ms. compare10's and
# calib_a1_spread's blocks (w <= 53) stay whole, bit for bit.
_BAND_MAX_WIDTH = 63
# Widest bandwidth at which a reduced block's Schur complement S is factored
# by band Cholesky; a wider one goes to SuperLU, which needs less memory.
# Measured on the S of n x (n + 1) lattices pinned along one side (same
# host, median of 7), the lower band saves 25-44 % of SuperLU's time up to
# w = 300 (w = 199: 67 against 105 ms), at 1.3 times its peak memory at
# w = 200 (39 against 30 MB) and 1.75 times at w = 301 (123 against 70 MB).
_REDUCED_MAX_WIDTH = 200


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


@dataclass(frozen=True)
class GridProblem:
    """A grid plus the VR nodes of one rail and current-sink nodes.

    Every VR sits at one rail voltage, rail_voltage_v: source_nodes maps
    each VR's node to it, and any other value (unequal, NaN or infinite
    ones) is a ValueError. With droop_resistance_ohm > 0 a VR feeds the
    plane through a series resistance instead of holding its node at the
    rail: that is how parallel VRs actually share current (output droop).
    The series element models the converter's internal series resistance,
    so its dissipation belongs to the converter loss model, not to the
    plane.
    """

    grid: ResistiveGrid
    source_nodes: dict[int, float]      # VR node index -> the rail voltage, insertion-ordered
    # Drawn current per sink (>= 0), A. A {node: amps} mapping is accepted
    # and split once into sink_nodes and this array.
    sink_currents: np.ndarray
    sink_nodes: np.ndarray | None = None    # node index per sink, distinct
    droop_resistance_ohm: float = 0.0   # 0 = ideal pinned sources
    # In droop mode a VR couples over its whole footprint pad field rather
    # than one node: VR k (source order) has contact_counts[k] plane contacts,
    # listed VR after VR in contact_nodes. Default: each VR its own node.
    contact_counts: np.ndarray | None = None
    contact_nodes: np.ndarray | None = None

    def __post_init__(self):
        set_field = functools.partial(object.__setattr__, self)
        if isinstance(self.sink_currents, Mapping):
            if self.sink_nodes is not None:
                raise TypeError("sink_nodes goes with a current array, not a mapping")
            set_field("sink_nodes", np.array(list(self.sink_currents.keys()), dtype=np.int64))
            set_field("sink_currents", np.array(list(self.sink_currents.values()), dtype=float))
        if self.sink_nodes is None:
            raise TypeError("sink_nodes is required with a current array")
        nodes = np.asarray(self.sink_nodes, dtype=np.int64)
        amps = np.asarray(self.sink_currents, dtype=float)
        set_field("sink_nodes", nodes)
        set_field("sink_currents", amps)
        if nodes.ndim != 1 or nodes.shape != amps.shape:
            raise ValueError("need one sink current per sink node")
        if not self.source_nodes:
            raise ValueError("need at least one source node")
        volts = np.array(list(self.source_nodes.values()), dtype=float)
        if not (np.isfinite(volts).all() and (volts == volts[0]).all()):
            raise ValueError("every VR on a plane sits at one finite rail voltage")
        sources = np.array(list(self.source_nodes), dtype=np.int64)
        if self.contact_counts is None and self.contact_nodes is None:
            counts, contacts = np.ones(sources.size, dtype=np.int64), sources
        else:
            counts = np.asarray(self.contact_counts, dtype=np.int64)
            contacts = np.asarray(self.contact_nodes, dtype=np.int64)
        set_field("contact_counts", counts)
        set_field("contact_nodes", contacts)
        if (counts.shape != sources.shape or not (counts >= 1).all()
                or contacts.shape != (int(counts.sum()),)):
            raise ValueError("contact_counts must give every VR one or more of contact_nodes")
        n = self.grid.n_nodes
        for idx in (sources, nodes, contacts):
            if idx.size and not (idx.min() >= 0 and idx.max() < n):
                raise ValueError(f"node indices must lie in the {n}-node lattice")
        sinks_at = np.bincount(nodes, minlength=n)
        if sinks_at.max(initial=0) > 1:
            raise ValueError("sink nodes must be distinct")
        overlap = np.sort(sources[sinks_at[sources] > 0])
        if overlap.size:
            raise ValueError(f"sink and source nodes must be disjoint: {overlap.tolist()}")
        if not (amps >= 0).all():
            raise ValueError("sink currents must be >= 0")
        if not (amps > 0).any():
            raise ValueError("total sink current must be > 0")
        if self.droop_resistance_ohm < 0:
            raise ValueError("droop_resistance_ohm must be >= 0")

    @property
    def rail_voltage_v(self) -> float:
        return float(next(iter(self.source_nodes.values())))


@dataclass
class GridSolution:
    """Solved node voltages and the derived current/loss quantities."""

    node_voltages: np.ndarray           # per node, V
    vr_currents: np.ndarray             # per source node, source order, A
    horizontal_loss_w: float            # both planes (power + ground return)
    vr_plane_voltages: np.ndarray       # plane-side terminal voltage per VR
    rail_voltage_v: float               # the VRs' one voltage, V
    residual: float = 0.0               # normwise backward error of the solve

    def scaled(self, k: float) -> GridSolution:
        """The solution of the same plane with every sink current times k.

        Every VR sits at the rail v, so the drops below v are linear in the
        sinks: currents scale by k, the plane loss by k^2, and every voltage
        v - d becomes v - k*d, terminal voltages included (a VR's drop there
        is its branch loss per ampere, which scales by k as well). The
        backward error is scale-invariant and is kept.
        """
        rail = self.rail_voltage_v
        return replace(
            self,
            node_voltages=rail - k * (rail - self.node_voltages),
            vr_currents=k * self.vr_currents,
            horizontal_loss_w=k * k * self.horizontal_loss_w,
            vr_plane_voltages=rail - k * (rail - self.vr_plane_voltages),
        )


def _snap_points(grid: ResistiveGrid, x: np.ndarray,
                 y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest node to each point (x[k], y[k]), ties toward the lower index.

    A point is compared with the four corners of the lattice cell around it,
    clipped to the lattice, so a point outside snaps to the boundary. A
    corner within max(best * 1e-9, (pitch * 1e-7)^2) of the best squared
    distance ties with it. The second array flags a fully ambiguous snap:
    four distinct tied corners, a point at a cell centre that no node
    represents; the caller refines the lattice once in that case.
    """
    pitch = grid.cell_pitch_mm
    fi = (x - grid.x0_mm) / pitch
    fj = (y - grid.y0_mm) / pitch
    i = np.clip([np.floor(fi), np.ceil(fi)], 0, grid.nx - 1).astype(np.int64)
    j = np.clip([np.floor(fj), np.ceil(fj)], 0, grid.ny - 1).astype(np.int64)
    ic = i[[0, 1, 0, 1]]     # corners j-major, as node indices run
    jc = j[[0, 0, 1, 1]]
    dx = x - (grid.x0_mm + ic * pitch)
    dy = y - (grid.y0_mm + jc * pitch)
    d2 = dx * dx + dy * dy
    best = d2.min(axis=0)
    tied = d2 <= best + np.maximum(best * 1e-9, (pitch * 1e-7) ** 2)
    nodes = np.where(tied, jc * grid.nx + ic, grid.n_nodes).min(axis=0)
    return nodes, tied.all(axis=0) & (i[0] != i[1]) & (j[0] != j[1])


def _footprint_contacts(grid: ResistiveGrid, x: np.ndarray, y: np.ndarray,
                        half_width: np.ndarray,
                        centres: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per site, the plane nodes its square footprint covers, j-major then i.

    Returns the count per site and every site's nodes in turn. A footprint
    that covers no node contacts its site's centre node.
    """
    pitch = grid.cell_pitch_mm
    i_lo = np.maximum(np.ceil((x - half_width - grid.x0_mm) / pitch - 1e-12), 0)
    i_hi = np.minimum(np.floor((x + half_width - grid.x0_mm) / pitch + 1e-12), grid.nx - 1)
    j_lo = np.maximum(np.ceil((y - half_width - grid.y0_mm) / pitch - 1e-12), 0)
    j_hi = np.minimum(np.floor((y + half_width - grid.y0_mm) / pitch + 1e-12), grid.ny - 1)
    empty = (i_hi < i_lo) | (j_hi < j_lo)
    # An empty footprint becomes the one-node box at its centre.
    i_lo = np.where(empty, centres % grid.nx, i_lo).astype(np.int64)
    j_lo = np.where(empty, centres // grid.nx, j_lo).astype(np.int64)
    ni = np.where(empty, 1, i_hi - i_lo + 1).astype(np.int64)
    counts = ni * np.where(empty, 1, j_hi - j_lo + 1).astype(np.int64)
    ends = np.cumsum(counts)
    site = np.repeat(np.arange(counts.size), counts)
    offset = np.arange(ends[-1]) - (ends - counts)[site]
    nodes = (j_lo[site] + offset // ni[site]) * grid.nx + i_lo[site] + offset % ni[site]
    return counts, nodes


def _build_grid(plan: DieFloorplan, x: np.ndarray, y: np.ndarray, half_width: np.ndarray,
                resolution: int, sheet_resistance: float) -> ResistiveGrid:
    side = plan.side_mm
    half = side / 2.0
    pitch = side / (resolution - 1)
    needed_half = max(half, float(np.max(np.abs(x) + half_width)),
                      float(np.max(np.abs(y) + half_width)))
    n_ext = math.ceil((needed_half - half) / pitch - 1e-12) if needed_half > half else 0
    n = resolution + 2 * n_ext
    if n * n > _MAX_NODES:
        raise ValueError(
            f"a {n}x{n} lattice ({n * n} nodes at grid_resolution {resolution}) "
            f"exceeds the {_MAX_NODES} node limit"
        )
    origin = -half - n_ext * pitch
    return ResistiveGrid(n, n, pitch, sheet_resistance, origin, origin)


@dataclass(frozen=True)
class _Lattice:
    """A placement discretised on one lattice: all that build_problem draws
    from the floorplan, the sites, the resolution and the explicit sinks'
    positions, and nothing it draws from a current, conductance or voltage.
    demand lists the sink nodes and parts what weighs them: without explicit
    sinks, the drawn nodes' uniform and radial weights (profile_parts); with
    them, each sink's index among the merged nodes and the merged nodes'
    order of first occurrence. The arrays problems share are read-only.
    """

    grid: ResistiveGrid
    sources: tuple[int, ...]
    contact_counts: np.ndarray
    contact_nodes: np.ndarray
    demand: np.ndarray
    parts: tuple[np.ndarray, np.ndarray]

    def sink_currents(self, demand_a: float, demand_weight: float,
                      sink_a: np.ndarray | None) -> np.ndarray:
        """The current at each demand node.

        Explicit sinks on one node accumulate in the order given, and the
        total adds the merged currents left to right in first-occurrence
        order. A profile's total is summed left to right in node order, so
        it depends neither on numpy's pairwise blocking nor on the Python
        version; a profile whose weights sum to <= 0 raises DegenerateGrid.
        """
        if sink_a is not None:
            inverse, order = self.parts
            summed = np.bincount(inverse, weights=sink_a, minlength=order.size)[order]
            total = ordered_sum(summed)
            # Normalised first: demand_a / total is inf for a subnormal total.
            return summed / total * demand_a if total > 0 else summed
        uniform, radial = self.parts
        w = uniform + demand_weight * radial
        total_w = ordered_sum(w)
        if not total_w > 0:
            raise DegenerateGrid(f"demand_weight {demand_weight!r} leaves the die "
                                 "profile no positive total weight")
        return demand_a * w / total_w


def _discretise(plan: DieFloorplan, x: np.ndarray, y: np.ndarray, half_width: np.ndarray,
                sink_xy: np.ndarray | None, resolution: int) -> _Lattice:
    """The placement on the lattice at resolution, or else at 2r-1 (the old
    nodes and the midpoints): the first on which every site and explicit
    sink snaps cleanly, the sites to distinct nodes and no sink to a site's,
    and a node is left to draw demand; else DegenerateGrid. Its
    sheet resistance is a placeholder, 1, that each problem replaces."""
    for r in (resolution, 2 * resolution - 1):
        grid = _build_grid(plan, x, y, half_width, r, 1.0)
        nodes, ambiguous = _snap_points(grid, x, y)
        if ambiguous.any() or np.unique(nodes).size < nodes.size:
            continue
        if sink_xy is None:
            demand, *parts = profile_parts(plan, grid, nodes)
        else:
            snapped, ambiguous = _snap_points(grid, sink_xy[:, 0], sink_xy[:, 1])
            if ambiguous.any() or np.isin(snapped, nodes).any():
                continue
            merged, first, inverse = np.unique(snapped, return_index=True, return_inverse=True)
            order = np.argsort(first)
            demand, parts = merged[order], (inverse, order)
        if not demand.size:
            continue
        counts, contacts = _footprint_contacts(grid, x, y, half_width, nodes)
        for shared in (demand, counts, contacts):
            shared.flags.writeable = False
        return _Lattice(grid, tuple(nodes.tolist()), counts, contacts, demand, tuple(parts))
    raise DegenerateGrid("VR sites collapse onto shared or ambiguous grid nodes even "
                         "after refinement")


# The last problem's placement: its key, the bytes of what _discretise reads,
# and its lattice. A build with another key releases it first, so at most one
# placement's lattice is alive, and keeps its own only if it returns a problem.
_discretisation: tuple[tuple, _Lattice] | None = None


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
    extended outward to cover any periphery sites. All sites are snapped to
    their nearest nodes in one array pass, and every site pins its node to
    the rail voltage; its footprint contacts are the nodes inside its
    square. Demand is drawn at the nodes under the die shadow, weighted by a
    radial profile (weight 1 + w*(1 - (r/r0)^2) with r0 the die
    half-diagonal; w = 0 is uniform), unless explicit sinks (x, y, current)
    are given; those go through the same snap. A site or sink at a cell
    centre, two sites on one node, a sink on a site's node or a lattice with
    no node left to draw demand refine the lattice once, to 2r-1 nodes
    across, before DegenerateGrid is raised; a demand weight at which the
    profile's weights sum to <= 0 raises it unrefined. A lattice above
    _MAX_NODES nodes, after extension or refinement, raises ValueError
    before it is allocated.

    The discretisation depends only on the floorplan, the sites, the
    resolution and the explicit sinks' positions, and the last one is kept:
    a problem that differs from the last one built only in its sheet
    resistance, currents, demand weight, rail or droop reuses its lattice,
    snapped nodes, contacts and demand nodes. A build that raises on a new
    placement keeps nothing.
    """
    global _discretisation
    if demand_a <= 0:
        raise ValueError("demand_a must be > 0")
    if not sites:
        raise ValueError("need at least one VR site")
    if type(grid_resolution) is not int or grid_resolution < 2:   # no bool, no float
        raise ValueError(f"grid_resolution must be an integer >= 2, got {grid_resolution!r}")

    site_rows = np.array([(s.x_mm, s.y_mm, s.footprint_mm2) for s in sites], dtype=float)
    if not np.isfinite(site_rows).all():
        raise ValueError("VR site positions and footprints must be finite")
    sink_xy = sink_a = None
    if explicit_sinks is not None:
        sink_rows = np.array(explicit_sinks, dtype=float).reshape(-1, 3)
        if not np.isfinite(sink_rows).all():
            raise ValueError("explicit sink positions and currents must be finite")
        sink_xy, sink_a = sink_rows[:, :2], sink_rows[:, 2]

    key = (plan.side_mm, grid_resolution, site_rows.tobytes(),
           None if sink_xy is None else sink_xy.tobytes())
    if _discretisation is not None and _discretisation[0] == key:
        lattice = _discretisation[1]
    else:
        _discretisation = None      # release the old lattice before computing the next
        x, y, footprint = site_rows.T
        lattice = _discretise(plan, x, y, np.sqrt(footprint) / 2.0, sink_xy, grid_resolution)
    problem = GridProblem(replace(lattice.grid, sheet_resistance_ohm_sq=sheet_resistance_ohm_sq),
                          dict.fromkeys(lattice.sources, rail_voltage_v),
                          lattice.sink_currents(demand_a, demand_weight, sink_a), lattice.demand,
                          droop_resistance_ohm=droop_resistance_ohm,
                          contact_counts=lattice.contact_counts,
                          contact_nodes=lattice.contact_nodes)
    _discretisation = (key, lattice)
    return problem


def profile_parts(plan: DieFloorplan, grid: ResistiveGrid, source_nodes: np.ndarray | list[int]
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The demand nodes under the die shadow and the two parts of their weight.

    A node's weight at demand weight w is uniform + w * radial. The uniform
    part is the node's share of a cell: nodes on the die outline own only
    half (corners: a quarter) of one, and that trapezoidal coverage keeps
    the drawn area resolution-stable. The radial part is the uniform part
    times max(0, 1 - (r/r0)^2), r0 the die half-diagonal. The shares are
    powers of two, so the sum is bit for bit uniform * (1 + w * profile).
    Source nodes draw no demand.
    """
    half = plan.side_mm / 2.0
    r0_sq = 2.0 * half * half   # squared distance to a die corner
    eps = 1e-9 * plan.side_mm
    x = np.tile(grid.x0_mm + np.arange(grid.nx) * grid.cell_pitch_mm, grid.ny)
    y = np.repeat(grid.y0_mm + np.arange(grid.ny) * grid.cell_pitch_mm, grid.nx)
    drawn = (np.abs(x) <= half + eps) & (np.abs(y) <= half + eps)
    drawn[source_nodes] = False
    idx = np.flatnonzero(drawn)
    x, y = x[idx], y[idx]
    uniform = np.ones(idx.size)
    uniform[np.abs(np.abs(x) - half) <= eps] *= 0.5
    uniform[np.abs(np.abs(y) - half) <= eps] *= 0.5
    return idx, uniform, uniform * np.maximum(0.0, 1.0 - (x * x + y * y) / r0_sq)


@dataclass(frozen=True)
class _BandCholesky:
    """The Cholesky factor of a block whose unknowns are taken in `order`,
    kept in LAPACK's band storage (w + 1 rows, one column per unknown): L L^T
    in its lower storage if `lower`, U^T U in its upper one if not.

    Which triangle is a matter of speed, and the two give one solution to
    rounding. A whole block keeps the upper band, as its solve is the
    faster; a reduced block's S is kept in the lower band, as its factor
    is (see _reduce_block).
    """

    band: np.ndarray
    order: np.ndarray
    lower: bool

    def solve(self, b: np.ndarray) -> np.ndarray:
        from scipy.linalg.lapack import dpbtrs
        y, _ = dpbtrs(self.band, b[self.order], lower=self.lower, overwrite_b=1)
        x = np.empty_like(y)
        x[self.order] = y
        return x


@dataclass
class _Sector:
    """One symmetry sector of a plane's free block, as lattice-node arrays.

    Unknown k is the orbit of free node lo[k] and its mirror image hi[k],
    lo[k] the lower: the symmetric sector (parity +1) has one unknown per
    orbit, hi[k] == lo[k] on the mirror axis, and the antisymmetric one
    (parity -1) one per off-axis pair. The whole free block is the sector
    hi = lo, parity +1: one unknown per free node. Basis column P_k is 1 at
    lo[k] and parity at hi[k], so restrict (P^T x) and lift (P y) are
    gathers and scatters over lattice-length vectors that sum at most two
    entries. The block P^T A P is assembled from the stencil and factorised
    by _factor_block the first time a right-hand side has more than a
    rounding-level component P^T b in it (see _PlaneOperator.solve), and
    kept in lu.
    """

    lo: np.ndarray
    hi: np.ndarray
    parity: float = 1.0
    lu: _BandCholesky | _OddEven | None = None

    @functools.cached_property
    def paired(self) -> np.ndarray:
        """The unknowns whose orbit is two nodes: lo[k] != hi[k]."""
        return np.flatnonzero(self.lo != self.hi)

    def restrict(self, x: np.ndarray) -> np.ndarray:
        """P^T x: at most two entries of x summed per unknown."""
        y = x[self.lo]
        y[self.paired] += self.parity * x[self.hi[self.paired]]
        return y

    def lift(self, y: np.ndarray, out: np.ndarray) -> None:
        """out += P y."""
        np.add.at(out, self.lo, y)
        np.add.at(out, self.hi[self.paired], self.parity * y[self.paired])

    def factor(self, op: _PlaneOperator) -> _BandCholesky | _OddEven:
        if self.lu is None:
            self.lu = _factor_block(op.grid, op.diag, op.shunt, self)
        return self.lu


def _factor_block(grid: ResistiveGrid, diag: np.ndarray, shunt: np.ndarray,
                  sector: _Sector) -> _BandCholesky | _OddEven:
    """A factor of a sector's block P^T A P, with .solve(b), assembled
    straight from the plane's 5-point stencil: diag per lattice node and
    -g_sheet on every lattice edge; shunt is each lattice node's VR branch
    conductance.

    The unknowns are taken by wavefront, i + j then i over the lattice node
    (i, j) of lo[k]. The mirror keeps i + j, so the entries above the
    diagonal in column k are lo[k]'s neighbours at i - 1 and j - 1, and
    every nonzero lies within a band of about the lattice's width (A.
    George and J. W. H. Liu, Computer Solution of Large Sparse Positive
    Definite Systems, 1981).

    By the mirror, the row of hi[k] is the row of lo[k] mirrored, so row k
    is lo[k]'s stencil row, folded onto the orbits, times the number of
    nodes in lo[k]'s orbit (A. Bossavit, Comput. Methods Appl. Mech. Eng.
    56, 1986): diag or 2 diag on the diagonal. Above it, the whole block has
    -g_sheet per neighbour. In a mirror sector lo[k] = (i, j) has j <= i:
    off the mirror axis both neighbours are lower nodes of their orbits, so
    each entry is -2 g_sheet with no sign from the basis; on the axis they
    are each other's images and fold onto one entry, -g_sheet twice. An
    entry sums at most two equal terms, so it is P^T A P bit for bit.

    Up to _BAND_MAX_WIDTH the entries are summed into LAPACK's (w + 1) x m
    upper band, with no sparse matrix, and factored by dpbtrf (see
    _band_factor). compare10's 5,565-unknown sector (w = 53) is assembled
    and factored in 2.5 ms, where the sparse projection and scatter took
    3.5 ms (one CPU, warm caches). A wider block is reduced to its even
    wavefronts by _reduce_block.
    """
    nx = grid.nx
    lo = sector.lo
    m = lo.size
    unknowns = np.arange(m)
    unknown = np.full(grid.n_nodes, -1)     # per lattice node, -1: none
    unknown[sector.hi] = unknowns
    unknown[lo] = unknowns
    weight = np.where(lo == sector.hi, 1.0, 2.0)   # nodes per orbit
    j, i = np.divmod(lo, nx)
    order = np.argsort((i + j) * nx + i, kind="stable")    # by i + j, then i
    position = np.empty(m, dtype=np.int64)
    position[order] = unknowns
    # Column k's entries above the diagonal: row[e] of col[e], at lo[k]'s
    # neighbours j - 1, then i - 1, that are unknowns of the block.
    below, left = np.flatnonzero(j > 0), np.flatnonzero(i > 0)
    col = np.concatenate([below, left])
    row = unknown[lo[col] - np.repeat([nx, 1], [below.size, left.size])]
    kept = row >= 0
    row, col = row[kept], col[kept]
    col_position = position[col]
    offset = col_position - position[row]
    width = int(offset.max(initial=0))
    if width > _BAND_MAX_WIDTH:
        # Freed first: the reduced block's band is its peak of memory.
        del unknowns, position, below, left, row, col, kept, col_position, offset
        return _reduce_block(grid, diag, shunt, lo, i, j, unknown, weight, order)
    g_sheet = 1.0 / grid.sheet_resistance_ohm_sq
    band = np.bincount(np.concatenate([position * (width + 1) + width,
                                       col_position * (width + 1) + width - offset]),
                       weights=np.concatenate([weight * diag[lo], -g_sheet * weight[col]]),
                       minlength=(width + 1) * m)
    return _BandCholesky(_band_factor(band, width, m, False, g_sheet, shunt), order, False)


def _band_factor(band: np.ndarray, width: int, m: int, lower: bool, g_sheet: float,
                 shunt: np.ndarray) -> np.ndarray:
    """dpbtrf of a band summed flat, w + 1 rows by m columns in Fortran
    order: LAPACK's lower band storage if lower, entry (r, c), r >= c, at
    [r - c, c], and its upper one if not, entry (r, c), r <= c, at
    [w + r - c, c].

    A pivot that is not positive raises OverflowError if the band holds a
    value that is not finite, and SingularSystem otherwise. The blocks are
    positive definite in exact arithmetic, so that is rounding: a sheet
    conductance g_sheet more than about 1/eps times the smallest VR branch
    conductance in shunt leaves no trace of the branches in the diagonal,
    and the block is singular to working precision. The message names the
    ratio, and the pivot only by its step in the factor: in a reduced block
    it is no lattice node.
    """
    from scipy.linalg.lapack import dpbtrf
    band, info = dpbtrf(band.reshape(width + 1, m, order="F"), lower=lower, overwrite_ab=1)
    if info:
        if not np.isfinite(band).all():
            raise OverflowError("sector block overflowed in its band Cholesky factor")
        raise SingularSystem("sector block is numerically singular (not positive definite "
                             f"at step {info} of {m} of its band Cholesky)"
                             + _stiffness(g_sheet, shunt))
    return band


def _stiffness(g_sheet: float, shunt: np.ndarray) -> str:
    """The ratio of the sheet conductance to the smallest VR branch
    conductance at a node, as a clause of an error message; none without
    branches."""
    branches = shunt[shunt > 0.0]
    if not branches.size:
        return ""
    return (f"; the sheet conductance is {g_sheet / branches.min():.2g} times the smallest "
            "VR branch conductance")


def _reduce_block(grid: ResistiveGrid, diag: np.ndarray, shunt: np.ndarray, lo: np.ndarray,
                  i: np.ndarray, j: np.ndarray, unknown: np.ndarray, weight: np.ndarray,
                  order: np.ndarray) -> _OddEven:
    """A wide sector block B reduced exactly to its even wavefronts.

    The stencil joins wavefront i + j = d only to d - 1 and d + 1, and the
    mirror keeps i + j, so B is bipartite by the parity of d: its odd block
    D_O is diagonal. Eliminating it leaves S = B_EE - B_EO D_O^-1 B_OE on
    the even unknowns, half of B's at B's bandwidth (B. L. Buzbee, G. H.
    Golub and C. W. Nielson, SIAM J. Numer. Anal. 7, 1970). Each odd
    unknown o couples the even unknowns in its row, at most four, with
    entries b = -w_o g_sheet each; it adds -b^2 / D_o to S between every
    pair of them, six pairs at most, so S is summed from O(m) products in
    one bincount with no sort.

    B's rows are diagonally dominant: a row's excess x, its diagonal less
    its off-diagonal magnitudes, is its VR branch conductance and g_sheet
    per lattice neighbour outside the block (a pinned node, or the mirror
    axis in the antisymmetric sector), times the orbit's nodes. S's
    diagonal is formed from x as the Grassmann-Taksar-Heyman elimination
    forms it (W. K. Grassmann, M. I. Taksar and D. P. Heyman, Oper. Res.
    33, 1985), from non-negative terms only: x_e plus, per odd neighbour o,
    |b| (x_o + |b| (n_o - 1)) / D_o, n_o the even unknowns in o's row. So
    a row whose excess is tiny next to its diagonal keeps it to rounding,
    where B_ee - sum b^2 / D_o would cancel it away.

    S is factored by band Cholesky in B's wavefront order up to
    _REDUCED_MAX_WIDTH, kept in LAPACK's lower band storage (E. Anderson et
    al., LAPACK Users' Guide, 3rd ed., 1999, section 5.3.3): OpenBLAS's
    dpbtrf factors the lower triangle about a third faster than the upper
    one above w = 64 (10.8 against 15.9 ms at m = 10,082, w = 142) and at
    the same speed up to it, while S's solve costs about the same in
    either. Above the cut S is built in CSC and factored by SuperLU.
    """
    nx, ny = grid.nx, grid.ny
    g = 1.0 / grid.sheet_resistance_ohm_sq
    m = lo.size
    # Per unknown, the unknown at each lattice neighbour, -1 for none, and
    # how many neighbours lie outside the block.
    slots = np.full((m, 4), -1, dtype=np.int32)
    outside = np.zeros(m, dtype=np.int64)
    for s, (has, step) in enumerate(((j > 0, -nx), (i > 0, -1), (i < nx - 1, 1),
                                     (j < ny - 1, nx))):
        slots[has, s] = unknown[lo[has] + step]
        outside += has & (slots[:, s] < 0)
    excess = weight * (shunt[lo] + g * outside)
    odd = ((i + j) & 1).astype(bool)
    even_k, odd_k = np.flatnonzero(~odd), np.flatnonzero(odd)
    m_e, m_o = even_k.size, odd_k.size
    # Each unknown's index among its colour; index m (read as -1) is the
    # sentinel an empty slot points to: one past the other colour's last.
    colour = np.empty(m + 1, dtype=np.int32)
    colour[even_k] = np.arange(m_e, dtype=np.int32)
    colour[odd_k] = np.arange(m_o, dtype=np.int32)
    colour[m] = m_o
    even_slots = colour[slots[even_k]]
    colour[m] = m_e
    odd_slots = colour[slots[odd_k]]
    even_order = colour[order[~odd[order]]]     # S's unknowns by wavefront
    del slots, colour
    link = g * weight               # |b|, each row's off-diagonal magnitude
    odd_diag = weight[odd_k] * diag[lo[odd_k]]
    ratio = link[odd_k] / odd_diag
    filled = odd_slots < m_e
    n_even = np.full(m_o, -1, dtype=np.int64)    # even unknowns in each odd row, less 1
    for s in range(4):
        n_even += filled[:, s]
    through = ratio * (excess[odd_k] + link[odd_k] * n_even)
    diag_s = excess[even_k] + np.bincount(odd_slots[filled], weights=np.broadcast_to(
        through[:, None], filled.shape)[filled], minlength=m_e)
    pair_a, pair_b = np.triu_indices(4, 1)
    a, b = odd_slots[:, pair_a], odd_slots[:, pair_b]
    paired = (a < m_e) & (b < m_e)
    a, b = a[paired], b[paired]
    pair_value = np.broadcast_to((-link[odd_k] * ratio)[:, None], paired.shape)[paired]
    del excess, ratio, filled, through, paired
    position = np.empty(m_e, dtype=np.int32)
    position[even_order] = np.arange(m_e, dtype=np.int32)
    position_a, position_b = position[a], position[b]
    first, gap = np.minimum(position_a, position_b), np.abs(position_a - position_b)
    del position_a, position_b
    width = int(gap.max(initial=0))
    if width > _REDUCED_MAX_WIDTH:
        from scipy.sparse import csc_matrix
        from scipy.sparse.linalg import splu

        block = csc_matrix((np.concatenate([diag_s, pair_value, pair_value]),
                            (np.concatenate([np.arange(m_e), a, b]),
                             np.concatenate([np.arange(m_e), b, a]))), shape=(m_e, m_e))
        del a, b, first, gap, pair_value
        schur = splu(block, permc_spec="MMD_AT_PLUS_A", panel_size=1)
    else:
        del a, b
        band = np.bincount(np.concatenate([position * (width + 1), first * (width + 1) + gap]),
                           weights=np.concatenate([diag_s, pair_value]),
                           minlength=(width + 1) * m_e)
        del first, gap, pair_value
        schur = _BandCholesky(_band_factor(band, width, m_e, True, g, shunt), even_order, True)
    return _OddEven(even_k, odd_k, odd_diag, even_slots, odd_slots, link[even_k],
                    link[odd_k], schur)


@dataclass(frozen=True)
class _OddEven:
    """A block's solve through its even-wavefront Schur complement S:
    y_E = S^-1 (b_E - B_EO D_O^-1 b_O), then y_O = D_O^-1 (b_O - B_OE y_E).

    Row by row, B_EO and B_OE are one entry, -link, at each stencil slot:
    even_slots and odd_slots list the other colour's unknown per slot, one
    past its last for none. An axis row names one odd orbit twice, and its
    two slots sum."""

    even: np.ndarray           # the block's unknowns on even, and on odd, wavefronts
    odd: np.ndarray
    odd_diag: np.ndarray       # D_O
    even_slots: np.ndarray
    odd_slots: np.ndarray
    even_link: np.ndarray
    odd_link: np.ndarray
    schur: _BandCholesky | SuperLU

    def solve(self, b: np.ndarray) -> np.ndarray:
        b_odd = b[self.odd]
        t = np.append(b_odd / self.odd_diag, 0.0)
        y = self.schur.solve(b[self.even] + self.even_link * _row_sums(t[self.even_slots]))
        x = np.empty(b.size)
        x[self.even] = y
        x[self.odd] = (b_odd + self.odd_link * _row_sums(np.append(y, 0.0)[self.odd_slots])
                       ) / self.odd_diag
        return x


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """Each row of an (m, 4) array summed left to right, as sum(axis=1) sums
    it from +0.0, bit for bit, but about three times as fast: a column at a
    time."""
    total = terms[:, 0] + terms[:, 1]
    total += terms[:, 2]
    total += terms[:, 3]
    total += 0.0        # from +0.0: a row of -0.0 sums to +0.0
    return total


@dataclass(frozen=True)
class _PlaneOperator:
    """A plane's nodal system with its free block split into sectors.

    It depends only on the lattice, the VR nodes and the VR branches
    (`key`); sinks enter each solve as a right-hand side. free lists the
    free nodes in both modes, every lattice node with droop; solve and
    product take and return one value per lattice node.
    A plane that its diagonal mirror maps onto itself has two sectors, the
    mirror-symmetric and the antisymmetric drops, each about half the free
    nodes (no antisymmetric one if every free node is on the mirror axis);
    any other plane has one, the whole free block. Each sector is
    factorised on first use. The free block A is never formed: its products
    and each sector's block come from the stencil, diag and g_sheet.
    """

    key: tuple
    free: np.ndarray               # the plane nodes no VR pins, ascending
    diag: np.ndarray               # the stencil's diagonal, per plane node
    shunt: np.ndarray              # its VR branches' conductance, per plane node
    g_sheet: float
    norm_inf: float                # ||A||_inf, never below ||A||_2
    sectors: tuple[_Sector, ...]
    outflow: Callable[[np.ndarray], np.ndarray]   # plane drops u -> each VR's current
    br_vr: np.ndarray              # per VR branch: its VR, plane node, conductance
    br_node: np.ndarray
    br_g: np.ndarray
    to_vr: np.ndarray              # per VR, its branches' conductance (0 when pinned)

    @property
    def grid(self) -> ResistiveGrid:
        return self.key[0]

    def product(self, u: np.ndarray) -> np.ndarray:
        """The stencil's product with u, per lattice node: A u at the free
        nodes when u is 0 at the pinned ones."""
        return _stencil_product(self.grid, self.diag, -self.g_sheet, u)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """u = sum over sectors of P_k (P_k^T A P_k)^-1 P_k^T rhs, per lattice
        node, 0 at the pinned ones.

        The sectors span the free nodes and A maps each into itself, so the
        sum solves A u = rhs on the free nodes for any rhs that is 0 at the
        pinned ones. solve_dc calls it once per plane solve: on b for a
        pinned plane, and on b - c d, the drops below the plane's level, for
        a drooped one (then on b as well if a VR is idle, see _IDLE_DROP). A
        sector with ||P_k^T rhs|| <= _SECTOR_SHARE_TOL * ||rhs|| is neither
        factorised nor solved: rhs's component in it, at most that large, is
        left as residual (a mirror-symmetric demand has rounding-level
        antisymmetric parts). The norms are BLAS nrm2's, which scales its sum
        of squares so that a tiny rhs does not underflow to a zero norm.
        """
        from scipy.linalg.blas import dnrm2
        u = np.zeros(rhs.size)
        cutoff = _SECTOR_SHARE_TOL * dnrm2(rhs)
        for sector in self.sectors:
            part = sector.restrict(rhs)
            if dnrm2(part) > cutoff:
                sector.lift(sector.factor(self).solve(part), u)
        return u


# The most recently built operator. A problem with the same key reuses it and
# its sector factors; any other problem replaces it, so at most one plane's
# factors are alive.
_operator: _PlaneOperator | None = None


def plane_key(problem: GridProblem) -> tuple:
    """What a plane's factor depends on: the lattice, the VR nodes in order
    and, with droop, the droop resistance and each VR's contacts (the bytes
    of the contact arrays).

    Problems with equal keys differ only in sinks and rail voltage, so they
    are solved on one factor.
    """
    source_nodes = tuple(problem.source_nodes)
    droop = problem.droop_resistance_ohm
    contacts = None
    if droop > 0.0:
        contacts = (problem.contact_counts.tobytes(), problem.contact_nodes.tobytes())
    return (problem.grid, source_nodes, droop, contacts)


def _plane_operator(problem: GridProblem) -> _PlaneOperator:
    """The operator of problem's plane: the one in the slot or a new one."""
    global _operator
    key = plane_key(problem)
    if _operator is None or _operator.key != key:
        _operator = None    # release the old factor before building the next
        _operator = _factor_plane(key)
    return _operator


def _stencil_product(grid: ResistiveGrid, diag: np.ndarray, off: float,
                     x: np.ndarray) -> np.ndarray:
    """diag * x plus off times x at each lattice neighbour, per plane node.

    Each node sums its terms from zero in the column order r - nx, r - 1, r,
    r + 1, r + nx, as a sparse product of the 5-point stencil does, so the
    result is that product's bit for bit. A row's end nodes add +0.0 for
    the neighbour they lack, which changes no sum: a sum started from +0.0
    is never -0.0.
    """
    nx = grid.nx
    y = np.zeros(x.size)
    y[nx:] += off * x[:-nx]
    left = off * x[:-1]
    left[nx - 1::nx] = 0.0
    y[1:] += left
    y += diag * x
    right = off * x[1:]
    right[nx - 1::nx] = 0.0
    y[:-1] += right
    y[:-nx] += off * x[nx:]
    return y


def _branch_outflow(k: int, br_vr: np.ndarray, br_node: np.ndarray,
                    br_g: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Each of the k drooped VRs' current, -sum g u over its branches, from
    the plane drops u.

    Each VR's sum runs over its contacts by node index, the order of a
    sorted CSR product. A VR's contacts must be distinct.
    """
    order = np.lexsort((br_node, br_vr))
    by_vr, by_node = br_vr[order], br_node[order]
    if ((np.diff(by_vr) == 0) & (np.diff(by_node) == 0)).any():
        raise ValueError("a VR's contact nodes must be distinct")
    by_g = -br_g[order]
    return lambda u: np.bincount(by_vr, weights=by_g * u[by_node], minlength=k)


def _sectors(grid: ResistiveGrid, diag: np.ndarray, free: np.ndarray) -> tuple[_Sector, ...]:
    """The free block's sectors under the diagonal mirror (i, j) -> (j, i),
    as lattice nodes; free lists the free nodes, ascending.

    Off the diagonal the lattice operator is a uniform -g_sheet on the
    lattice edges, which a square lattice's mirror maps onto each other. So
    when the mirror maps the diagonal diag onto itself, bit for bit, and
    free nodes to free nodes, the free block commutes with it and splits
    into the symmetric sector, one unknown per orbit (ones on the orbit's
    nodes), and the antisymmetric one, one unknown per node pair (+1 on the
    lower index, -1 on the higher). Either block is symmetric positive
    definite. Otherwise the whole free block is the one sector, (free,
    free). Mirror closure is read from a mask over the lattice.
    (A. Bossavit, Comput. Methods Appl. Mech. Eng. 56, 1986.)
    """
    nx = grid.nx
    whole = (_Sector(free, free),)
    if nx != grid.ny:
        return whole
    square = diag.reshape(nx, nx)
    if not (square == square.T).all():
        return whole
    mirror = free % nx * nx + free // nx     # each free node's mirror image
    is_free = np.zeros(grid.n_nodes, dtype=bool)
    is_free[free] = True
    if not is_free[mirror].all():
        return whole
    lower = free <= mirror
    lo, hi = free[lower], mirror[lower]     # each orbit's lower node, ascending
    paired = lo != hi
    return tuple(sector for sector in (_Sector(lo, hi), _Sector(lo[paired], hi[paired], -1.0))
                 if sector.lo.size)


def _factor_plane(key: tuple) -> _PlaneOperator:
    """The plane's operator: its stencil's diagonal, each VR's current from
    the drops, and the free block's symmetry sectors, each factorised on
    first use.

    A node's diagonal is g_sheet added left to right once per lattice
    neighbour, read from a table by the neighbour count, then its VR
    branches of conductance 1/(droop * contacts) in contact order: the order
    in which scipy sums the duplicates of the COO assembly with one virtual
    node per VR, wherever that order is defined (a node under at most four
    footprints), so the factor is the same bit for bit. With droop the whole
    stencil is the free block and a VR's current is what its branches
    carry; with pinned sources the free block is the stencil at the free
    nodes and a VR's current is its node's stencil row times the drops. The
    free block is symmetric positive definite, and so is each sector's
    block; _factor_block factors it.
    """
    grid, source_nodes, droop, contacts = key
    n = grid.n_nodes
    k = len(source_nodes)
    g_sheet = 1.0 / grid.sheet_resistance_ohm_sq
    if contacts is not None:
        counts, br_node = (np.frombuffer(c, dtype=np.int64) for c in contacts)
        br_vr = np.repeat(np.arange(k), counts)
        br_g = (1.0 / droop) / counts[br_vr]
    else:
        br_vr = br_node = np.zeros(0, dtype=np.int64)
        br_g = np.zeros(0)
    to_vr = np.bincount(br_vr, weights=br_g, minlength=k)
    neighbours = np.full((grid.ny, grid.nx), 4, dtype=np.intp)
    for side in (neighbours[0], neighbours[-1], neighbours[:, 0], neighbours[:, -1]):
        side -= 1       # a node lacks one neighbour per lattice side it lies on
    by_count = list(itertools.accumulate([g_sheet] * 4, initial=0.0))    # 0, g, g + g, ...
    diag = np.take(by_count, neighbours.ravel())
    np.add.at(diag, br_node, br_g)
    pinned = np.array(source_nodes if contacts is None else (), dtype=np.int64)
    if contacts is not None:
        outflow = _branch_outflow(k, br_vr, br_node, br_g)
    else:
        def outflow(u: np.ndarray) -> np.ndarray:
            return _stencil_product(grid, diag, -g_sheet, u)[pinned]
    free = np.delete(np.arange(n), pinned)
    on_free = np.zeros(n)
    on_free[free] = 1.0
    return _PlaneOperator(
        key=key, free=free, diag=diag, g_sheet=g_sheet,
        shunt=np.bincount(br_node, weights=br_g, minlength=n),
        # |A| 1, summed as the rows of A are.
        norm_inf=float(_stencil_product(grid, diag, g_sheet, on_free)[free].max()),
        sectors=_sectors(grid, diag, free), outflow=outflow,
        br_vr=br_vr, br_node=br_node, br_g=br_g, to_vr=to_vr,
    )


# A solve out of the float range is judged by its backward error, not warned
# of by numpy.
@np.errstate(over="ignore", invalid="ignore")
def solve_dc(problem: GridProblem) -> GridSolution:
    """Solve the nodal system and derive currents and the plane loss.

    The plane's operator and its sector factors are reused while the
    lattice, the VR nodes and the droop branches stay the same; only the
    sinks change the right-hand side. The unknowns are the drops u = v - rail
    of the plane nodes below the rail every VR sits at, so the right-hand
    side b is minus the sinks, per lattice node (no sink is on a VR's
    node, so b is 0 at the pinned ones), and the rail is added back
    only for the node voltages: on a 12 V plane it stays out of the small
    differences the currents are computed from. A pinned VR's node has
    u = 0 and its current is its stencil row times u; a drooped VR's
    current is -sum g u over its branches, which dissipate sum g u^2.
    Behind droop branches the plane sits at a level c = sum(b) / sum(d)
    below its VRs, d = A 1 its conductance to them, often far below the
    drops across it, so the one solve is for w = u - c from A w = b - c d,
    rounded at w's own scale, and u = w + c. Against a long-double refined
    reference on 18 drooped planes (the shipped DSCH cells, A1 and A2 at
    resolutions 16 to 96) the VR currents come in within 2.8e-14 relative
    (up to 7.4e-13 when u was solved) and the sheet loss, from w, within
    6.4e-14. A VR that draws next to nothing sits where w is about -c, and
    w's rounding swamps its current: a plane with one (_IDLE_DROP) is solved
    for u as well, and its currents and voltages come from u. A pinned
    plane has no level: u = w. The normwise backward error of u on the
    whole free block, ||A u - b||_2 / (||A||_inf ||u||_2 + ||b||_2) over the
    free nodes, must come in at or below 1e-10 (J. L. Rigal and J. Gaches,
    J. ACM 14, 1967); unlike ||r|| / ||b|| it does not grow with the
    conductance scale of the plane; above it the solve raises
    SingularSystem, and a backward error that is not finite (sinks or
    conductances out of the float range) raises OverflowError, as does a
    plane whose conductances are not finite, before it is factored.
    """
    op = _plane_operator(problem)
    if not math.isfinite(op.norm_inf):
        raise OverflowError(f"plane conductance {op.norm_inf} is not finite")
    b = np.zeros(problem.grid.n_nodes)
    b[problem.sink_nodes] = -problem.sink_currents
    if op.br_g.size:
        # The drops w = u - c below the plane's level c: A maps 1 to d, the
        # branch conductance per node, so A w = b - c d.
        level = float(np.sum(b)) / float(np.sum(op.shunt))
        w = op.solve(b - level * op.shunt)
        u = w + level
        vr = op.outflow(u)
        # An idle VR's current is lost to w's rounding (_IDLE_DROP).
        if (np.abs(vr) < _IDLE_DROP * np.abs(w).max() * op.to_vr).any():
            u = op.solve(b)
            vr = op.outflow(u)
    else:
        u = w = op.solve(b)
        vr = op.outflow(u)
    u_free, b_free = u[op.free], b[op.free]
    scale = op.norm_inf * float(np.linalg.norm(u_free)) + float(np.linalg.norm(b_free))
    backward_error = float(np.linalg.norm(op.product(u)[op.free] - b_free)
                           / max(scale, np.finfo(float).tiny))
    if not math.isfinite(backward_error):
        # The sinks or the plane left the float range; verdict makes this
        # an overflow error, as it does any non-finite figure.
        raise OverflowError(f"nodal solve backward error {backward_error} is not finite")
    if backward_error > _RESIDUAL_TOL:
        raise SingularSystem(
            f"nodal solve backward error {backward_error:.2e} exceeds {_RESIDUAL_TOL:.0e}"
            + _stiffness(op.g_sheet, op.shunt)
        )

    # Plane-side terminal voltage: the rail less the power the VR's branches
    # dissipate per ampere it delivers (the rail when pinned).
    u_br = u[op.br_node]
    branch_loss = np.bincount(op.br_vr, weights=op.br_g * u_br * u_br, minlength=vr.size)
    rail = problem.rail_voltage_v
    plane_voltages = rail - np.divide(branch_loss, vr, out=np.zeros_like(vr), where=vr != 0.0)

    # The sheet loss is taken from w, whose differences, with droop, carry no
    # rounding at the plane's level. Each edge's drop, the horizontal edges
    # row by row, then the vertical ones: the order the sheet loss is summed in.
    sheet = w.reshape(problem.grid.ny, problem.grid.nx)
    du = np.concatenate([(sheet[:, :-1] - sheet[:, 1:]).ravel(), (sheet[:-1] - sheet[1:]).ravel()])
    return GridSolution(
        node_voltages=u + rail,
        vr_currents=vr,
        horizontal_loss_w=2.0 * float(np.sum(du * du * op.g_sheet)),
        vr_plane_voltages=plane_voltages,
        rail_voltage_v=rail,
        residual=backward_error,
    )
