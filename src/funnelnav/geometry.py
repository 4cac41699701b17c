"""Convex polygon obstacles, Minkowski inflation, and linear separation.

Everything works on planar convex sets: obstacles are strictly convex CCW
polygons, spline-segment hulls are arbitrary (possibly degenerate) sets of
four control points. Separating lines come from the closest pair between
the two convex hulls, in one box-screened numpy pass over a batch of
(hull, polygon) pairs; a line is returned only where it separates strictly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np


@dataclass(frozen=True)
class ConvexPolygon:
    """Strictly convex polygon with counterclockwise vertex order."""

    vertices: np.ndarray  # (n, 2)

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=float)
        object.__setattr__(self, "vertices", verts)
        if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 3:
            raise ValueError(f"need an (n>=3, 2) vertex array, got shape {verts.shape}")
        n = len(verts)
        for i in range(n):
            a, b, c = verts[i], verts[(i + 1) % n], verts[(i + 2) % n]
            cross = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
            if cross <= 0.0:
                raise ValueError(
                    f"vertices not strictly convex CCW at index {i} (cross={cross:.3e})"
                )

    def __len__(self) -> int:
        return len(self.vertices)

    def contains(self, p, include_boundary: bool = True, tol: float = 0.0) -> bool:
        """Point membership; the boundary counts as inside by default.

        `tol` loosens the half-plane tests for queries on numerically noisy
        polygons (e.g. Minkowski sums); the default is exact.
        """
        side = _orient(self.vertices, np.roll(self.vertices, -1, axis=0), np.asarray(p, dtype=float))
        return bool(np.all(side >= -tol) if include_boundary else np.all(side > tol))

    def centroid(self) -> np.ndarray:
        return self.vertices.mean(axis=0)

    def area(self) -> float:
        """Shoelace area (positive for CCW)."""
        v = self.vertices
        x, y = v[:, 0], v[:, 1]
        return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Andrew monotone chain; returns CCW hull vertices, collinear points dropped.

    Degenerate inputs (all points equal or collinear) return the 1- or
    2-point "hull" rather than raising.
    """
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    if len(pts) <= 2:
        return pts
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                if (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0]) <= 0.0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    hull = np.array(lower[:-1] + upper[:-1])
    if len(hull) < 3:
        return np.unique(hull, axis=0)
    return _prune_collinear(hull)


def _prune_collinear(hull: np.ndarray) -> np.ndarray:
    """Drop hull vertices whose turn is collinear up to float noise.

    Minkowski sums produce vertex clusters along one edge that differ only
    in the last few ulps; keeping them would make downstream strict-convexity
    checks fragile.
    """
    scale = float(np.max(np.abs(hull))) or 1.0
    eps = 1e-9 * scale * scale
    keep = []
    n = len(hull)
    for i in range(n):
        a, b, c = hull[(i - 1) % n], hull[i], hull[(i + 1) % n]
        cross = (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])
        if cross > eps:
            keep.append(i)
    if len(keep) < 3:
        return hull
    return hull[keep]


def inflate(poly: ConvexPolygon, rho_bar: float, k_gon: int = 16) -> ConvexPolygon:
    """Minkowski sum of poly with a regular k-gon circumscribing the rho_bar disk.

    The circumscribed polygon contains the disk, so the result conservatively
    over-approximates the true disk inflation. Memoized on the inputs'
    values, so copies of one obstacle set share one result: do not edit it.
    """
    return _inflate(poly.vertices.tobytes(), rho_bar, k_gon)


@functools.lru_cache(maxsize=256)
def _inflate(vertex_bytes: bytes, rho_bar: float, k_gon: int) -> ConvexPolygon:
    if rho_bar <= 0.0:
        raise ValueError(f"clearance must be positive, got {rho_bar}")
    if k_gon < 8 and k_gon != 4:
        raise ValueError(f"k_gon must be >= 8 (or 4 for the square case), got {k_gon}")
    radius = rho_bar / math.cos(math.pi / k_gon)
    angles = np.arange(k_gon) * (2.0 * math.pi / k_gon) + math.pi / k_gon
    disk = np.column_stack((radius * np.cos(angles), radius * np.sin(angles)))
    sums = (np.frombuffer(vertex_bytes).reshape(-1, 2)[:, None, :] + disk[None, :, :]).reshape(-1, 2)
    return ConvexPolygon(convex_hull(sums))


class EdgeTable:
    """Every edge of a list of CCW polygons, stacked for one-pass tests.

    Edge k runs from ends[0, k] to ends[1, k], with bounding box lo[k]..hi[k];
    polygon m owns the edges first[m] up to first[m + 1].
    """

    def __init__(self, polys: list[ConvexPolygon]):
        self.ends = np.stack((np.concatenate([p.vertices for p in polys]),
                              np.concatenate([np.roll(p.vertices, -1, axis=0) for p in polys])))
        self.first = np.cumsum([0] + [len(p) for p in polys[:-1]])
        self.lo = self.ends.min(axis=0)
        self.hi = self.ends.max(axis=0)

    def sides(self, points: np.ndarray) -> np.ndarray:
        """(..., E) orientation of each point against each edge: >= 0 on its inner side."""
        return _orient(self.ends[0], self.ends[1], points[..., None, :])

    def inside(self, sides: np.ndarray) -> np.ndarray:
        """Per row of sides, whether some polygon holds the point, boundary included."""
        return np.logical_and.reduceat(sides >= 0.0, self.first, axis=-1).any(axis=-1)


@dataclass
class Workspace:
    """Rectangular operating area with convex obstacles and a clearance margin."""

    bounds: tuple[float, float, float, float]  # (x_min, y_min, x_max, y_max)
    obstacles: list[ConvexPolygon] = field(default_factory=list)
    clearance: float = 1.0
    inflation_k_gon: int = 16
    _inflated: list[ConvexPolygon] | None = field(default=None, repr=False, compare=False)
    _edges: EdgeTable | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        x0, y0, x1, y1 = self.bounds
        if not (x1 > x0 and y1 > y0):
            raise ValueError(f"degenerate bounds {self.bounds}")
        if self.clearance <= 0.0:
            raise ValueError("clearance must be positive")
        for k, poly in enumerate(self.obstacles):
            for vtx in poly.vertices:
                if not (x0 <= vtx[0] <= x1 and y0 <= vtx[1] <= y1):
                    raise ValueError(f"obstacle {k} vertex {vtx} outside bounds {self.bounds}")

    def inflated_obstacles(self) -> list[ConvexPolygon]:
        if self._inflated is None:
            self._inflated = [inflate(o, self.clearance, self.inflation_k_gon) for o in self.obstacles]
        return self._inflated

    def edges(self, inflated: bool = True) -> EdgeTable | None:
        """The (inflated) obstacles' edge table, None when there are no obstacles.

        The inflated one is built once, like the inflation itself.
        """
        if not self.obstacles:
            return None
        if not inflated:
            return EdgeTable(self.obstacles)
        if self._edges is None:
            self._edges = EdgeTable(self.inflated_obstacles())
        return self._edges

    def in_bounds(self, p) -> bool:
        x0, y0, x1, y1 = self.bounds
        return x0 <= p[0] <= x1 and y0 <= p[1] <= y1

    def diagonal(self) -> float:
        x0, y0, x1, y1 = self.bounds
        return math.hypot(x1 - x0, y1 - y0)


def point_free(p, ws: Workspace, inflated: bool = True) -> bool:
    """True iff p lies in bounds and strictly outside every obstacle.

    A point on an obstacle boundary counts as colliding.
    """
    if not ws.in_bounds(p):
        return False
    edges = ws.edges(inflated)
    return edges is None or not edges.inside(edges.sides(np.asarray(p, dtype=float)))


def segment_free(a, b, ws: Workspace, inflated: bool = True):
    """Exact collision check of segment a-b against the (inflated) obstacles.

    b may also be a (J, 2) array of ends, giving a (J,) array with one
    verdict per segment from a. A segment collides when an endpoint is out
    of bounds or in an obstacle, or when it meets an obstacle edge, touching
    and collinear overlap included. Exactness (orientation predicates, no
    sub-sampling) is what makes arbitrarily fine sampled rechecks of returned
    paths pass by construction.
    """
    edges = ws.edges(inflated)
    if edges is None and np.ndim(b) == 1:
        return bool(ws.in_bounds(a) and ws.in_bounds(b))
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ends = b.reshape(-1, 2)
    x0, y0, x1, y1 = ws.bounds
    free = ((x0 <= ends[:, 0]) & (ends[:, 0] <= x1) & (y0 <= ends[:, 1]) & (ends[:, 1] <= y1)
            & ws.in_bounds(a))
    if edges is not None and free.any():
        points = np.vstack((a, ends))
        sides = edges.sides(points)                               # (J+1, E)
        turns = _orient(a, ends[:, None, None], edges.ends)       # (J, 2, E)
        inside = edges.inside(sides)
        s, t = sides > 0.0, turns > 0.0
        hit = (s[0] != s[1:]) & (t[:, 0] != t[:, 1])
        if not (sides.all() and turns.all()):
            # Collinear cases: a zero orientation counts where the point
            # lies in the other segment's bounding box.
            p = points[:, None]
            on_edge = (sides == 0.0) & ((edges.lo <= p) & (p <= edges.hi)).all(axis=-1)
            lo = np.minimum(a, ends)[:, None, None]
            hi = np.maximum(a, ends)[:, None, None]
            on_seg = (turns == 0.0) & ((lo <= edges.ends) & (edges.ends <= hi)).all(axis=-1)
            hit |= on_edge[0] | on_edge[1:] | on_seg.any(axis=1)
        free &= ~(inside[0] | inside[1:] | hit.any(axis=1))
    return bool(free[0]) if b.ndim == 1 else free


def planar_dot(points: np.ndarray, h: np.ndarray) -> np.ndarray:
    """h.p over the last axis, written out so that every separator test rounds alike."""
    return points[..., 0] * h[..., 0] + points[..., 1] * h[..., 1]


def _orient(a, b, c):
    return ((b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1])
            - (b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0]))


def _closest_points(p1, p2, q1, q2):
    """Closest points between segments [p1,p2] and [q1,q2] (degenerate-safe),
    broadcast over the leading axes. Returns (point_on_p, point_on_q)."""
    d1 = p2 - p1
    d2 = q2 - q1
    r = p1 - q1
    a = planar_dot(d1, d1)
    e = planar_dot(d2, d2)
    f = planar_dot(d2, r)
    c = planar_dot(d1, r)
    b = planar_dot(d1, d2)
    p_point = a <= 1e-30
    q_point = e <= 1e-30
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = a * e - b * b
        s = np.where(denom > 1e-30, np.clip((b * f - c * e) / denom, 0.0, 1.0), 0.0)
        t = (b * s + f) / e
        s = np.where(t < 0.0, np.clip(-c / a, 0.0, 1.0),
                     np.where(t > 1.0, np.clip((b - c) / a, 0.0, 1.0), s))
        # A segment that is a point: project it onto the other one.
        s = np.where(p_point, 0.0, np.where(q_point, np.clip(-c / a, 0.0, 1.0), s))
        t = np.where(q_point, 0.0, np.where(p_point, np.clip(f / e, 0.0, 1.0), np.clip(t, 0.0, 1.0)))
    return p1 + s[..., None] * d1, q1 + t[..., None] * d2


def padded_vertices(polys) -> np.ndarray:
    """(M, K, 2) vertices of M polygons; a shorter polygon repeats its last
    vertex, which adds only zero-length edges at an existing vertex."""
    rows = {id(p): p for p in polys}
    k = max((len(p) for p in rows.values()), default=3)
    table = np.array([np.concatenate([p.vertices, np.repeat(p.vertices[-1:], k - len(p), axis=0)])
                      for p in rows.values()]).reshape(len(rows), k, 2)
    index = {key: m for m, key in enumerate(rows)}
    return table[[index[id(p)] for p in polys]]


_BLOCK = 256  # pairs per numpy pass; a solve's (segment, obstacle) pairs take one


def find_separators(hulls: np.ndarray, polys):
    """Maximum-margin separating lines for M (hull, polygon) pairs at once.

    hulls is (M, P, 2), the points whose convex hull is each segment hull;
    polys holds the M ConvexPolygon. Returns (found (M,), h (M, 2), d (M,)):
    where found, h is unit with h.q > d for every hull point and h.p < d for
    every polygon vertex; elsewhere h and d are NaN. Pairs that cross (by
    orientation signs), contain a point of each other (boundary included) or
    lie within 1e-12 of the coordinate scale (tangency) have no line.
    Overlap is tested only where the boxes (widened by 1e-9 of the scale) meet, closest
    points only where a (chord, edge) box gap is within the nearest point/vertex distance.
    """
    hulls = np.asarray(hulls, dtype=float)
    parts = [_separator_block(hulls[k:k + _BLOCK], padded_vertices(polys[k:k + _BLOCK]))
             for k in range(0, len(hulls), _BLOCK)]
    if not parts:
        return np.zeros(0, dtype=bool), np.zeros((0, 2)), np.zeros(0)
    return tuple(np.concatenate(part) for part in zip(*parts))


def _overlapping(hulls, p1, p2, q1, q2):
    """Per pair, whether a chord crosses an edge or either set holds a point of the other."""
    p1, p2, q1, q2 = p1[:, :, None], p2[:, :, None], q1[:, None], q2[:, None]
    crossing = (((_orient(q1, q2, p1) > 0) != (_orient(q1, q2, p2) > 0))
                & ((_orient(p1, p2, q1) > 0) != (_orient(p1, p2, q2) > 0))).any(axis=(1, 2))
    hull_in_poly = (_orient(q1, q2, hulls[:, :, None]) >= 0.0).all(axis=2).any(axis=1)
    # A polygon vertex lies in the hull iff it lies in a triangle of hull points.
    tri = np.array(list(combinations(range(hulls.shape[1]), 3)), dtype=int).reshape(-1, 3)
    ta, tb, tc = (hulls[:, tri[:, k], None] for k in range(3))   # (M, T, 1, 2)
    turn = _orient(ta, tb, tc)
    sides = np.stack([_orient(ta, tb, q1), _orient(tb, tc, q1), _orient(tc, ta, q1)])
    poly_in_hull = (((turn > 0) & (sides >= 0.0).all(axis=0))
                    | ((turn < 0) & (sides <= 0.0).all(axis=0))).any(axis=(1, 2))
    return crossing | hull_in_poly | poly_in_hull


def _separator_block(hulls: np.ndarray, verts: np.ndarray):
    """find_separators on one block, with the polygons as padded vertices."""
    m, n_pts = hulls.shape[:2]
    q1, q2 = verts, np.roll(verts, -1, axis=1)            # (M, K, 2)
    # Every pair of hull points: the hull edges plus inner chords, which are
    # never closer to a disjoint polygon than the edges are. A pair with a
    # point on its right turns round, so hull edges run CCW.
    i, j = np.triu_indices(n_pts, 1) if n_pts > 1 else (np.zeros(1, int), np.zeros(1, int))
    flip = (_orient(hulls[:, i, None], hulls[:, j, None], hulls[:, None]) < 0.0).any(axis=2)
    p1 = np.where(flip[..., None], hulls[:, j], hulls[:, i])   # (M, S, 2)
    p2 = np.where(flip[..., None], hulls[:, i], hulls[:, j])
    scale = np.maximum(1.0, np.maximum(np.abs(hulls).max(axis=(1, 2)), np.abs(verts).max(axis=(1, 2))))
    pad = 2e-9 * scale   # per coordinate: numpy reduces a (M, K, 2) middle axis slowly
    meet = np.logical_and.reduce([(hulls[..., a].min(1) <= verts[..., a].max(1) + pad)
                                  & (verts[..., a].min(1) <= hulls[..., a].max(1) + pad) for a in (0, 1)])
    blocked = np.zeros(m, dtype=bool)
    blocked[meet] = _overlapping(hulls[meet], p1[meet], p2[meet], q1[meet], q2[meet])
    # Rounding is monotone, so the box gap of the nearest hull point's chord and
    # vertex's edge is within their distance: every pair keeps a candidate.
    apart = hulls[:, :, None] - verts[:, None]
    limit = (np.sqrt(planar_dot(apart, apart).min(axis=(1, 2))) * (1.0 + 1e-6) + 1e-9 * scale) ** 2
    lo, hi = np.minimum(q1, q2)[:, None], np.maximum(q1, q2)[:, None]
    box_gap = np.maximum(0.0, np.maximum(np.minimum(p1, p2)[:, :, None] - hi,
                                         lo - np.maximum(p1, p2)[:, :, None]))
    mi, si, ki = np.nonzero(~(planar_dot(box_gap, box_gap) > limit[:, None, None]))
    cp, cq = _closest_points(p1[mi, si], p2[mi, si], q1[mi, ki], q2[mi, ki])
    gap = cp - cq
    dist = np.sqrt(planar_dot(gap, gap))
    # Per pair the first minimum (or NaN, as argmin): candidates run in (chord, edge) order.
    best = np.lexsort((np.where(np.isnan(dist), -np.inf, dist), mi))[np.searchsorted(mi, np.arange(m))]
    dist, cp, cq = dist[best], cp[best], cq[best]
    found = ~blocked & (dist > 1e-12 * scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = (cp - cq) / dist[:, None]
    d = planar_dot(h, cp + cq) / 2.0
    # Near tangency h's direction is only good to about ulp(scale)/dist, which
    # can tilt the line across far vertices: keep only strict separators.
    found &= ((planar_dot(hulls, h[:, None]) > d[:, None]).all(axis=1)
              & (planar_dot(verts, h[:, None]) < d[:, None]).all(axis=1))
    h[~found], d[~found] = np.nan, np.nan
    return found, h, d


def find_separator(hull_points: np.ndarray, poly: ConvexPolygon):
    """Maximum-margin separating line between a segment hull and an obstacle.

    Returns (h, d) with unit h such that h.q > d on the hull side and
    h.p < d on the polygon side, or None when no such strict line was found:
    the convex hulls intersect or touch, or they are so nearly tangent that
    the closest-pair line does not separate them strictly.
    """
    found, h, d = find_separators(np.asarray(hull_points, dtype=float)[None], [poly])
    return (h[0], float(d[0])) if found[0] else None


def verify_separation(hull_points: np.ndarray, poly: ConvexPolygon,
                      h: np.ndarray, d: float, margin: float = 0.0) -> bool:
    """Check h.q > d + margin for all hull points and h.p < d - margin for the polygon."""
    h = np.asarray(h, dtype=float)
    if float(h @ h) <= 0.0:
        raise ValueError("separator normal must be non-zero")
    hull_points = np.asarray(hull_points, dtype=float)
    if not np.all(planar_dot(hull_points, h) > d + margin):
        return False
    return bool(np.all(planar_dot(poly.vertices, h) < d - margin))


def distances_to_obstacles(points: np.ndarray, obstacles: list[ConvexPolygon]) -> np.ndarray:
    """Distance from each of (n, 2) points to the nearest obstacle, 0 inside one."""
    points = np.asarray(points, dtype=float)
    px, py = points[:, 0], points[:, 1]
    best = np.full(len(points), math.inf)
    for poly in obstacles:
        verts = poly.vertices.tolist()
        inside = np.ones(len(points), dtype=bool)
        for (ax, ay), (bx, by) in zip(verts, verts[1:] + verts[:1]):
            abx, aby = bx - ax, by - ay
            apx, apy = px - ax, py - ay
            inside &= abx * apy - aby * apx >= 0.0
            s = np.clip((apx * abx + apy * aby) / (abx * abx + aby * aby), 0.0, 1.0)
            dx, dy = px - (ax + s * abx), py - (ay + s * aby)
            best = np.minimum(best, dx * dx + dy * dy)
        best[inside] = 0.0
    return np.sqrt(best)
