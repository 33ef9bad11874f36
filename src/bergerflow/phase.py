"""Trapping regions and phase-portrait tooling for the collapse flow.

Four families of compact trapping regions certify that trajectories stay
boxed in: one for the negative-product case and three covering the
positive-product case depending on where the initial condition sits
relative to the lines y = x and y = 3x/2.  Region boundaries are sampled
to verify the inward-pointing flux, and trajectories are measured against
the region they were assigned at start.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .dynamics import vector_field
from .model import FlowKind, FlowParams, State


@dataclass(frozen=True)
class Region:
    """One of the trapping regions; all four are closed triangles.

    K(v, w):  0 <= x <= v,  w <= y <= w + v - x           (v, w > 0)
    K1(v, w): 0 <= x <= v,  3x/2 + w - 3v/2 <= y <= w     (0 < v < 2w/3)
    K2(v):    0 <= x <= v,  x <= y <= 3x/2                (v > 0)
    K3(v, w): 0 <= x <= v,  (w/v) x <= y <= x             (0 < w < v)
    """

    tag: str  # "K" | "K1" | "K2" | "K3"
    v: float
    w: float | None = None

    def __post_init__(self):
        if self.tag == "K":
            if not (self.v > 0 and self.w is not None and self.w > 0):
                raise ValueError("K requires v > 0 and w > 0")
        elif self.tag == "K1":
            if not (self.w is not None and 0 < self.v < 2.0 / 3.0 * self.w):
                raise ValueError("K1 requires 0 < v < 2w/3")
        elif self.tag == "K2":
            if not self.v > 0:
                raise ValueError("K2 requires v > 0")
            if self.w is not None:
                raise ValueError("K2 takes no second parameter")
        elif self.tag == "K3":
            if not (self.w is not None and 0 < self.w < self.v):
                raise ValueError("K3 requires 0 < w < v")
        else:
            raise ValueError(f"unknown region tag {self.tag!r}")

    def vertices(self) -> list[tuple[float, float]]:
        """The corners in counter-clockwise order, so the interior lies left
        of each side: membership, flux edges, inward normals, the axis
        bracket and distances are all derived from this list and rely on it."""
        v, w = self.v, self.w
        if self.tag == "K":
            return [(0.0, w), (v, w), (0.0, w + v)]
        if self.tag == "K1":
            return [(0.0, w - 1.5 * v), (v, w), (0.0, w)]
        if self.tag == "K2":
            return [(0.0, 0.0), (v, v), (v, 1.5 * v)]
        return [(0.0, 0.0), (v, w), (v, v)]


def _sides(region: Region):
    """The boundary as cyclic (p, q) vertex pairs, interior on the left."""
    verts = region.vertices()
    return zip(verts, verts[1:] + verts[:1])


def region_contains(region: Region, point) -> bool:
    """Closed-set membership: on or to the left of every side."""
    x, y = point
    return all(
        (q[0] - p[0]) * (y - p[1]) - (q[1] - p[1]) * (x - p[0]) >= 0.0
        for p, q in _sides(region)
    )


def region_for_initial(params: FlowParams, state: State) -> Region | None:
    """The trapping region assigned to a collapse-flow initial condition.

    Returns None on the separating lines y = 3x/2, y = x and x = 2y/3,
    where no region applies (the explicit solutions cover the meaningful
    boundary cases).
    """
    if params.kind is not FlowKind.COLLAPSE:
        raise ValueError("trapping regions apply to the collapse flow only")
    x, y = state.alpha, state.beta
    if params.product == -2.0:
        return Region("K", x, y)
    if x < 2.0 / 3.0 * y:
        return Region("K1", x, y)
    if x < y < 1.5 * x:
        return Region("K2", x)
    if y < x:
        return Region("K3", x, y)
    return None


def _edges(region: Region):
    """Boundary edges with x > 0 in the interior, as (p0, p1, inward normal).

    Each edge runs from its lexicographically smaller endpoint, which fixes
    where the flux samples fall along it.
    """
    return [
        (*sorted((p, q)), _unit((p[1] - q[1], q[0] - p[0])))
        for p, q in _sides(region)
        if not p[0] == q[0] == 0.0
    ]


def _unit(n):
    norm = math.hypot(*n)
    return (n[0] / norm, n[1] / norm)


def inward_flux_check(region: Region, params: FlowParams, n_samples: int = 1000):
    """Sample boundary points with x > 0 and return those where the field
    has a strictly outward component (beyond a 1e-12 rounding allowance).

    Corners are excluded by offsetting samples from the edge endpoints.
    """
    if params.kind is not FlowKind.COLLAPSE:
        raise ValueError("inward flux certification applies to the collapse flow only")
    violations = []
    for p0, p1, normal in _edges(region):
        for i in range(1, n_samples + 1):
            s = i / (n_samples + 1)
            x = p0[0] + s * (p1[0] - p0[0])
            y = p0[1] + s * (p1[1] - p0[1])
            if x <= 0.0 or y <= 0.0:
                continue
            fx, fy = vector_field(params, (x, y))
            if fx * normal[0] + fy * normal[1] < -1e-12:
                violations.append((x, y))
    return violations


def _distance_outside(region: Region, point) -> float:
    if region_contains(region, point):
        return 0.0
    return min(_segment_distance(point, p, q) for p, q in _sides(region))


def _segment_distance(p, a, b):
    px, py = p[0] - a[0], p[1] - a[1]
    dx, dy = b[0] - a[0], b[1] - a[1]
    denom = dx * dx + dy * dy
    s = 0.0 if denom == 0.0 else max(0.0, min(1.0, (px * dx + py * dy) / denom))
    return math.hypot(px - s * dx, py - s * dy)


def containment_report(trajectory, region: Region) -> float:
    """Maximum distance by which any trajectory sample leaves the region."""
    return max(
        _distance_outside(region, (state.alpha, state.beta))
        for state, _ in trajectory.samples
    )


def axis_extent(region: Region) -> tuple[float, float] | None:
    """The y-interval the region meets on the x = 0 axis, or None if the
    region touches the axis only at the origin.

    For a trapped fiber-collapse trajectory this brackets the limiting
    base scale.
    """
    ys = sorted(y for x, y in region.vertices() if x == 0.0)
    return tuple(ys) if len(ys) == 2 else None


def _axis(lo: float, hi: float, n: int) -> list[float]:
    """n points from lo to hi as np.linspace places them, bit for bit: lo
    plus i steps, the last point exactly hi, and [lo] alone when n == 1."""
    if n == 1:
        return [lo]
    delta = hi - lo
    step = delta / (n - 1)
    if step == 0.0:
        # a step that underflows to zero: linspace scales i / (n - 1) instead
        return [lo + i / (n - 1) * delta for i in range(n - 1)] + [hi]
    return [lo + i * step for i in range(n - 1)] + [hi]


def portrait_rows(params: FlowParams, x_range, y_range, nx: int, ny: int):
    """The field on an nx-by-ny grid, as a list of float tuples
    (x, y, ux, uy, mag), x outermost and y innermost.

    Each range is (lo, hi) with 0 < lo <= hi < inf and each count a
    positive integer; the axes are placed as np.linspace places them.
    (ux, uy) is the unit direction of the field and mag its length, kept
    separate so that plots can use a log scale; the direction is (0, 0)
    where the field vanishes.  Everything is computed on Python floats, and
    a field that divides by zero or overflows at an extreme grid point
    raises ZeroDivisionError or OverflowError instead of yielding nan/inf.
    """
    for name, (lo, hi) in (("x_range", x_range), ("y_range", y_range)):
        if not 0 < lo <= hi < math.inf:
            raise ValueError(f"{name} must satisfy 0 < lo <= hi < inf, got ({lo}, {hi})")
    try:
        nx, ny = operator.index(nx), operator.index(ny)
    except TypeError:
        nx = ny = 0
    if nx < 1 or ny < 1:
        raise ValueError("grid counts must be positive integers")
    xs = _axis(float(x_range[0]), float(x_range[1]), nx)
    ys = _axis(float(y_range[0]), float(y_range[1]), ny)
    rows = []
    for x in xs:
        for y in ys:
            fx, fy = vector_field(params, (x, y))
            mag = math.hypot(fx, fy)
            if not mag < math.inf:
                # a product overflowed to inf without raising
                raise OverflowError(f"field is not finite at ({x!r}, {y!r})")
            ux, uy = (fx / mag, fy / mag) if mag != 0.0 else (0.0, 0.0)
            rows.append((x, y, ux, uy, mag))
    return rows


def sample_portrait(params: FlowParams, x_range, y_range, nx: int, ny: int):
    """:func:`portrait_rows` as numpy arrays: grid points (nx*ny, 2), unit
    directions (nx*ny, 2) and field magnitudes (nx*ny,), in the same order
    and with the same values.  The package's one numpy user; the arrays are
    column views of one (nx*ny, 5) table.
    """
    rows = portrait_rows(params, x_range, y_range, nx, ny)
    # imported here because only this function's return contract is arrays
    import numpy as np

    table = np.array(rows)
    return table[:, 0:2], table[:, 2:4], table[:, 4]
