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
from dataclasses import dataclass
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

    def centroid(self) -> np.ndarray:
        return self.vertices.mean(axis=0)


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

    Edge k runs from vertex ends[0, k] to ends[1, k], which is vertex nxt[k],
    with bounding box lo[k]..hi[k]; polygon m owns the edges first[m] up to
    first[m + 1] and has the bounding box boxes[m], (x_lo, y_lo, x_hi, y_hi)
    as Python floats.
    """

    def __init__(self, polys: list[ConvexPolygon]):
        self.ends = np.stack((np.concatenate([p.vertices for p in polys]),
                              np.concatenate([np.roll(p.vertices, -1, axis=0) for p in polys])))
        self.first = np.cumsum([0] + [len(p) for p in polys[:-1]])
        self.nxt = np.concatenate([f + np.roll(np.arange(len(p)), -1) for f, p in zip(self.first, polys)])
        self.lo = self.ends.min(axis=0)
        self.hi = self.ends.max(axis=0)
        self.boxes = np.hstack((np.minimum.reduceat(self.ends[0], self.first),
                                np.maximum.reduceat(self.ends[0], self.first))).tolist()

    def sides(self, points: np.ndarray) -> np.ndarray:
        """(..., E) orientation of each point against each edge: >= 0 on its inner side."""
        return _orient(self.ends[0], self.ends[1], points[..., None, :])

    def inside(self, sides: np.ndarray) -> np.ndarray:
        """Per row of sides, whether some polygon holds the point, boundary included."""
        return np.logical_and.reduceat(sides >= 0.0, self.first, axis=-1).any(axis=-1)


@dataclass(frozen=True)
class Workspace:
    """Rectangular operating area with convex obstacles and a clearance margin.

    Frozen, so that scenario copies can share it: a changed field takes
    dataclasses.replace, whose copy inflates its obstacles anew.
    """

    bounds: tuple[float, float, float, float]  # (x_min, y_min, x_max, y_max)
    obstacles: tuple[ConvexPolygon, ...] = ()
    clearance: float = 1.0
    inflation_k_gon: int = 16

    def __post_init__(self):
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        x0, y0, x1, y1 = self.bounds
        if not (x1 > x0 and y1 > y0):
            raise ValueError(f"degenerate bounds {self.bounds}")
        if self.clearance <= 0.0:
            raise ValueError("clearance must be positive")
        if self.inflation_k_gon < 8 and self.inflation_k_gon != 4:  # as inflate requires
            raise ValueError(f"inflation_k_gon must be >= 8 (or 4), got {self.inflation_k_gon}")
        for k, poly in enumerate(self.obstacles):
            for vtx in poly.vertices:
                if not (x0 <= vtx[0] <= x1 and y0 <= vtx[1] <= y1):
                    raise ValueError(f"obstacle {k} vertex {vtx} outside bounds {self.bounds}")

    @functools.cached_property
    def _inflated(self) -> tuple[ConvexPolygon, ...]:
        return tuple(inflate(o, self.clearance, self.inflation_k_gon) for o in self.obstacles)

    @functools.cached_property
    def _edges(self) -> EdgeTable:
        return EdgeTable(self._inflated)

    def inflated_obstacles(self) -> tuple[ConvexPolygon, ...]:
        """The obstacles inflated by the clearance, computed once."""
        return self._inflated

    def edges(self) -> EdgeTable | None:
        """The inflated obstacles' edge table, built once like the inflation
        itself; None when there are no obstacles."""
        return self._edges if self.obstacles else None

    def in_bounds(self, p) -> bool:
        x0, y0, x1, y1 = self.bounds
        return x0 <= p[0] <= x1 and y0 <= p[1] <= y1

    def diagonal(self) -> float:
        x0, y0, x1, y1 = self.bounds
        return math.hypot(x1 - x0, y1 - y0)


def point_free(p, ws: Workspace) -> bool:
    """True iff p lies in bounds and strictly outside every inflated obstacle.

    A point on an obstacle boundary counts as colliding.
    """
    if not ws.in_bounds(p):
        return False
    edges = ws.edges()
    return edges is None or not edges.inside(edges.sides(np.asarray(p, dtype=float)))


def segment_free(a, b, ws: Workspace):
    """Exact collision check of segment a-b against the inflated obstacles.

    a and b may also be (J, 2) arrays, giving a (J,) array with one verdict
    per segment a[j]-b[j]; a single point is shared by all J segments, as
    one start against J ends. A segment collides when an endpoint is out of
    bounds or in an obstacle, or when it meets an obstacle edge, touching
    and collinear overlap included. Exactness (orientation predicates, no
    sub-sampling) is what makes arbitrarily fine sampled rechecks of returned
    paths pass by construction. A single segment in bounds whose bounding
    box is strictly apart from every obstacle's is free without the numpy
    edge test; boxes that touch take it.
    """
    edges = ws.edges()
    if np.ndim(a) == 1 and np.ndim(b) == 1:
        (ax, ay), (bx, by) = np.asarray(a, dtype=float).tolist(), np.asarray(b, dtype=float).tolist()
        if not (ws.in_bounds((ax, ay)) and ws.in_bounds((bx, by))):
            return False
        lx, hx, ly, hy = min(ax, bx), max(ax, bx), min(ay, by), max(ay, by)
        if edges is None or all(hx < x_lo or x_hi < lx or hy < y_lo or y_hi < ly
                                for x_lo, y_lo, x_hi, y_hi in edges.boxes):
            return True
        return not bool(_edge_hits(np.array([[ax, ay]]), np.array([[bx, by]]), edges)[0])
    a = np.asarray(a, dtype=float).reshape(-1, 2)
    b = np.asarray(b, dtype=float).reshape(-1, 2)
    bounds = np.array(ws.bounds, dtype=float)
    in_bounds = (np.minimum(a, b) >= bounds[:2]) & (np.maximum(a, b) <= bounds[2:])
    free = in_bounds[:, 0] & in_bounds[:, 1]
    if edges is not None and np.count_nonzero(free):
        free &= ~_edge_hits(a, b, edges)
    return free


def _edge_hits(a: np.ndarray, b: np.ndarray, edges: EdgeTable) -> np.ndarray:
    """Per segment a[j]-b[j] ((1 or J, 2) each), whether an endpoint lies in an
    obstacle or the segment meets an edge, touching and collinear overlap included."""
    n = len(a)
    points = np.concatenate((a, b))
    sides = edges.sides(points)                          # (len(a) + len(b), E)
    turns = _orient(a[:, None], b[:, None], edges.ends[0])  # (J, E): each vertex against each segment
    ahead = turns > 0.0
    above = sides > 0.0
    hit = (above[:n] != above[n:]) & (ahead != ahead[:, edges.nxt])
    if not (sides.all() and turns.all()):
        # Collinear cases: a zero orientation counts where the point lies in
        # the other segment's bounding box. A vertex's column stands for
        # either edge it ends: only the row's any() is read.
        p = points[:, None]
        on_edge = (sides == 0.0) & ((edges.lo <= p) & (p <= edges.hi)).all(axis=-1)
        lo = np.minimum(a, b)[:, None]
        hi = np.maximum(a, b)[:, None]
        on_seg = (turns == 0.0) & ((lo <= edges.ends[0]) & (edges.ends[0] <= hi)).all(axis=-1)
        hit |= on_edge[:n] | on_edge[n:] | on_seg
    inside = edges.inside(sides)
    return inside[:n] | inside[n:] | hit.any(axis=1)


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


def find_separators(hulls: np.ndarray, verts: np.ndarray):
    """Maximum-margin separating lines for M (hull, polygon) pairs at once.

    hulls is (M, P, 2), the points whose convex hull is each segment hull;
    verts is (M, K, 2), the polygons as padded_vertices, which a caller with
    fixed polygons pads once. Returns (found (M,), h (M, 2), d (M,)): where
    found, h is unit with h.q > d for every hull point and h.p < d for every
    polygon vertex; elsewhere h and d are NaN. Pairs that cross (by
    orientation signs), contain a point of each other (boundary included) or
    lie within 1e-12 of the coordinate scale (tangency) have no line.
    Closest points are computed only where a (chord, edge) box gap is within the nearest
    point/vertex distance, and chord boxes only for edges whose box is that near the hull's;
    overlap is tested only where a line was found and the boxes (widened by 1e-9 of the scale) meet.
    Each block of _BLOCK pairs is cut to the width padded_vertices gives it
    alone, so any K from the widest polygon up gives the same result: by
    strict convexity a polygon's last vertex differs from the one before it,
    and padding repeats it.
    """
    hulls = np.asarray(hulls, dtype=float)
    parts = []
    for k in range(0, len(hulls), _BLOCK):
        block = verts[k:k + _BLOCK]
        differs = (block[:, 1:] != block[:, :-1]).any(axis=(0, 2))   # column c + 1 against c
        width = 2 + int(np.flatnonzero(differs)[-1])
        parts.append(_separator_block(hulls[k:k + _BLOCK], block[:, :width]))
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
    n_edges = verts.shape[1]
    edge_rows = verts.reshape(-1, 2), np.roll(verts, -1, axis=1).reshape(-1, 2)   # edge m*K + k
    # Coordinate-major copies: a broadcast over them runs its inner loop along
    # the pairs instead of along the two coordinates. Values are unchanged.
    hulls, verts = np.asfortranarray(hulls), np.asfortranarray(verts)
    q1, q2 = verts, np.roll(verts, -1, axis=1)            # (M, K, 2)
    # Every pair of hull points: the hull edges plus inner chords, which are
    # never closer to a disjoint polygon than the edges are. A pair with a
    # point on its right turns round, so hull edges run CCW.
    i, j = np.array(list(combinations(range(n_pts), 2)) or [(0, 0)]).T
    flip = (_orient(hulls[:, i, None], hulls[:, j, None], hulls[:, None]) < 0.0).any(axis=2)
    p1 = np.where(flip[..., None], hulls[:, j], hulls[:, i])   # (M, S, 2)
    p2 = np.where(flip[..., None], hulls[:, i], hulls[:, j])
    scale = np.maximum(1.0, np.maximum(np.abs(hulls).max(axis=(1, 2)), np.abs(verts).max(axis=(1, 2))))
    # Rounding is monotone, so the box gap of the nearest hull point's chord and
    # vertex's edge is within their distance: every pair keeps a candidate.
    apart = hulls[:, :, None] - verts[:, None]
    limit = (np.sqrt(planar_dot(apart, apart).min(axis=(1, 2))) * (1.0 + 1e-6) + 1e-9 * scale) ** 2
    lo, hi = np.minimum(*edge_rows), np.maximum(*edge_rows)
    # A chord's box lies in its hull's box, so an edge whose box gap to the
    # hull's box is over the limit has no (chord, edge) candidate.
    edge_gap = np.maximum(0.0, np.maximum(hulls.min(axis=1)[:, None] - hi.reshape(m, -1, 2),
                                          lo.reshape(m, -1, 2) - hulls.max(axis=1)[:, None]))
    me, ke = np.nonzero(~(planar_dot(edge_gap, edge_gap) > limit[:, None]))
    kept = me * n_edges + ke
    chord_lo, chord_hi = np.take(np.minimum(p1, p2), me, axis=0), np.take(np.maximum(p1, p2), me, axis=0)
    box_gap = np.maximum(0.0, np.maximum(chord_lo - np.take(hi, kept, axis=0)[:, None],
                                         np.take(lo, kept, axis=0)[:, None] - chord_hi))
    e, si = np.nonzero(~(planar_dot(box_gap, box_gap) > limit[me, None]))
    mi, ki, edge, chord = me[e], ke[e], kept[e], me[e] * len(i) + si
    cp, cq = _closest_points(*(np.take(p.reshape(-1, 2), chord, axis=0) for p in (p1, p2)),
                             *(np.take(q, edge, axis=0) for q in edge_rows))
    gap = cp - cq
    dist = np.sqrt(planar_dot(gap, gap))
    # Per pair the first minimum (or NaN, as argmin) in (chord, edge) order.
    start = np.searchsorted(mi, np.arange(m))
    key = np.where(np.isnan(dist), -np.inf, dist)
    rank = np.where(key == np.minimum.reduceat(key, start)[mi], si * n_edges + ki, len(i) * n_edges)
    best = np.flatnonzero(rank == np.minimum.reduceat(rank, start)[mi])
    dist, cp, cq = dist[best], np.take(cp, best, axis=0), np.take(cq, best, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = (cp - cq) / dist[:, None]
    d = planar_dot(h, cp + cq) / 2.0
    # Near tangency h's direction is only good to about ulp(scale)/dist, which
    # can tilt the line across far vertices: keep only strict separators.
    found = ((dist > 1e-12 * scale)
             & (planar_dot(hulls, h[:, None]) > d[:, None]).all(axis=1)
             & (planar_dot(verts, h[:, None]) < d[:, None]).all(axis=1))
    # Crossing or containment blocks a line; it is tested only where a line
    # was found and the boxes (widened by 1e-9 of the scale) meet.
    pad = 2e-9 * scale   # per coordinate: numpy reduces a (M, K, 2) middle axis slowly
    meet = found & np.logical_and.reduce([(hulls[..., a].min(1) <= verts[..., a].max(1) + pad)
                                          & (verts[..., a].min(1) <= hulls[..., a].max(1) + pad)
                                          for a in (0, 1)])
    found[meet] = ~_overlapping(hulls[meet], p1[meet], p2[meet], q1[meet], q2[meet])
    h[~found], d[~found] = np.nan, np.nan
    return found, h, d


def find_separator(hull_points: np.ndarray, poly: ConvexPolygon):
    """Maximum-margin separating line between a segment hull and an obstacle.

    Returns (h, d) with unit h such that h.q > d on the hull side and
    h.p < d on the polygon side, or None when no such strict line was found:
    the convex hulls intersect or touch, or they are so nearly tangent that
    the closest-pair line does not separate them strictly.
    """
    found, h, d = find_separators(np.asarray(hull_points, dtype=float)[None], padded_vertices([poly]))
    return (h[0], float(d[0])) if found[0] else None


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
