"""Deterministic VR site placement: periphery rings and under-die grids.

The die is a square centered at the origin. Periphery sites sit on square
ring contours just outside the die edge; under-die sites sit on a centered
uniform grid over the die shadow. Identical inputs always produce identical
site lists, so downstream grid problems are reproducible byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import AreaExceeded, MarginExceeded


@dataclass(frozen=True)
class DieFloorplan:
    """Square die plus the interposer band available for periphery rings."""

    die_area_mm2: float
    interposer_margin_mm: float = 8.0

    def __post_init__(self):
        if not 0 < self.die_area_mm2 < math.inf:
            raise ValueError("die_area_mm2 must be > 0 and finite")
        if not 0 <= self.interposer_margin_mm < math.inf:
            raise ValueError("interposer_margin_mm must be >= 0 and finite")

    @property
    def side_mm(self) -> float:
        return math.sqrt(self.die_area_mm2)


@dataclass(frozen=True)
class VrSite:
    """One placed VR footprint (square, side sqrt(footprint))."""

    x_mm: float
    y_mm: float
    footprint_mm2: float
    ring_index: int      # 0 = innermost periphery row; 0 for under-die sites


def _ring_contour_point(half_extent: float, t: float) -> tuple[float, float, float, float]:
    """Point at arc length t along a square contour, clockwise from the
    bottom-left corner (up the left edge first), plus the outward edge
    normal. Corner points belong to the horizontal edges by the fixed
    tie-break (t = 0 is the bottom edge's corner)."""
    h = half_extent
    p = 8.0 * h
    t = t % p
    if t == 0.0:
        return (-h, -h, 0.0, -1.0)
    if t < 2.0 * h:
        return (-h, -h + t, -1.0, 0.0)
    if t < 4.0 * h:
        return (-h + (t - 2.0 * h), h, 0.0, 1.0)
    if t < 6.0 * h:
        return (h, h - (t - 4.0 * h), 1.0, 0.0)
    return (h - (t - 6.0 * h), -h, 0.0, -1.0)


def ring_capacity(plan: DieFloorplan, ring_index: int, site_width_mm: float) -> int:
    """Sites that fit on one ring: ring perimeter over site width.

    Ring 0 packs against the die outline itself; each further ring is offset
    outward by one site width.
    """
    perimeter = 4.0 * (plan.side_mm + 2.0 * ring_index * site_width_mm)
    return int(math.floor(perimeter / site_width_mm))


def place_periphery(plan: DieFloorplan, n: int, footprint_mm2: float) -> list[VrSite]:
    """Distribute n sites evenly around the die, overflowing to outer rings.

    Each ring is filled to capacity before the next opens; sites on a ring
    are spaced evenly around its contour, offset half a step from the
    bottom-left corner so multiples of four sit symmetrically on the edges.
    Raises MarginExceeded if the rings needed run past the interposer band.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return []
    if footprint_mm2 <= 0:
        raise ValueError("footprint_mm2 must be > 0")
    width = math.sqrt(footprint_mm2)

    counts: list[int] = []
    remaining = n
    ring = 0
    while remaining > 0:
        cap = ring_capacity(plan, ring, width)
        if cap < 1:
            raise MarginExceeded(
                f"ring {ring} cannot hold any site of width {width:.3g} mm"
            )
        counts.append(min(cap, remaining))
        remaining -= counts[-1]
        ring += 1

    band_mm = len(counts) * width
    if band_mm > plan.interposer_margin_mm:
        raise MarginExceeded(
            f"{len(counts)} periphery ring(s) need {band_mm:.2f} mm of margin, "
            f"only {plan.interposer_margin_mm:.2f} mm available"
        )

    sites: list[VrSite] = []
    for ring, n_ring in enumerate(counts):
        # Sites are spaced along the ring's inner contour (the die outline
        # grown by the rings already filled) and pushed outward by half a
        # site width along their edge normal. Offsetting after spacing keeps
        # corner-straddling neighbors from overlapping.
        inner_half = plan.side_mm / 2.0 + ring * width
        perimeter = 8.0 * inner_half
        step = perimeter / n_ring
        offset = width / 2.0
        for i in range(n_ring):
            x, y, nx_, ny_ = _ring_contour_point(inner_half, (i + 0.5) * step)
            sites.append(VrSite(x + nx_ * offset, y + ny_ * offset, footprint_mm2, ring))
    return sites


@dataclass(frozen=True)
class UnderDiePlacement:
    sites: tuple[VrSite, ...]
    occupancy_fraction: float
    over_half_occupancy: bool    # descriptive warning, not an error
    sites_overlap: bool          # site width exceeds the grid cell


def place_under_die(plan: DieFloorplan, n: int, footprint_mm2: float) -> UnderDiePlacement:
    """Place n sites on a ceil(sqrt(n))-square centered grid over the die shadow.

    Cells fill row-major from the bottom-left; extra cells stay empty.
    Occupancy above 100% of the die area raises AreaExceeded; above 50% it is
    flagged but allowed.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return UnderDiePlacement((), 0.0, False, False)
    if footprint_mm2 <= 0:
        raise ValueError("footprint_mm2 must be > 0")

    occupancy = n * footprint_mm2 / plan.die_area_mm2
    if occupancy > 1.0:
        raise AreaExceeded(
            f"{n} sites of {footprint_mm2:.3g} mm2 occupy {occupancy:.1%} "
            f"of the {plan.die_area_mm2:.5g} mm2 die shadow"
        )

    g = math.ceil(math.sqrt(n))
    cell = plan.side_mm / g
    width = math.sqrt(footprint_mm2)
    half = plan.side_mm / 2.0

    sites: list[VrSite] = []
    for idx in range(n):
        row, col = divmod(idx, g)
        x = -half + (col + 0.5) * cell
        y = -half + (row + 0.5) * cell
        sites.append(VrSite(x, y, footprint_mm2, 0))

    return UnderDiePlacement(
        tuple(sites),
        occupancy,
        over_half_occupancy=occupancy > 0.5,
        sites_overlap=width > cell + 1e-12,
    )
