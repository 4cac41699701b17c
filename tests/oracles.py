"""Independent oracles the tests check the library against.

Each oracle implements the quantity a different way than the library does:
de Boor recursion vs the fixed-matrix segment form, combinatorial
segment-intersection vs closest-pair distances, shoelace areas, plain
half-plane membership, and the scalar per-pair closest-pair separator that
the batched library kernel replaced.
"""

from __future__ import annotations

import math

import numpy as np

from funnelnav.geometry import convex_hull


def deboor_eval(ctrl: np.ndarray, dt: float, t: float, degree: int = 3) -> np.ndarray:
    """Textbook de Boor recursion on the uniform knot vector T_k = (k - degree) dt."""
    ctrl = np.asarray(ctrl, dtype=float)
    n = len(ctrl)
    knots = (np.arange(n + degree + 1) - degree) * dt
    span = min(degree + int(t / dt), n - 1)
    while span > degree and t < knots[span]:
        span -= 1
    while span < n - 1 and t >= knots[span + 1]:
        span += 1
    d = [ctrl[j + span - degree].copy() for j in range(degree + 1)]
    for r in range(1, degree + 1):
        for j in range(degree, r - 1, -1):
            i = j + span - degree
            alpha = (t - knots[i]) / (knots[i + degree - r + 1] - knots[i])
            d[j] = (1.0 - alpha) * d[j - 1] + alpha * d[j]
    return d[degree]


def deboor_eval_batch(ctrl: np.ndarray, dt: float, ts: np.ndarray, degree: int = 3) -> np.ndarray:
    """Vectorized de Boor over many parameters (same recursion, array alphas)."""
    ctrl = np.asarray(ctrl, dtype=float)
    ts = np.asarray(ts, dtype=float)
    n = len(ctrl)
    knots = (np.arange(n + degree + 1) - degree) * dt
    spans = np.clip(degree + (ts / dt).astype(int), degree, n - 1)
    spans = np.where(ts >= knots[np.minimum(spans + 1, n)], np.minimum(spans + 1, n - 1), spans)
    spans = np.where(ts < knots[spans], spans - 1, spans)
    d = [ctrl[spans + j - degree] for j in range(degree + 1)]
    for r in range(1, degree + 1):
        for j in range(degree, r - 1, -1):
            i = spans + j - degree
            alpha = (ts - knots[i]) / (knots[i + degree - r + 1] - knots[i])
            d[j] = (1.0 - alpha)[:, None] * d[j - 1] + alpha[:, None] * d[j]
    return d[degree]


def _point_segment_distance(p, a, b) -> float:
    ab = b - a
    denom = float(ab @ ab)
    s = 0.0 if denom == 0.0 else min(max(float((p - a) @ ab) / denom, 0.0), 1.0)
    return float(np.linalg.norm(p - (a + s * ab)))


def point_in_hull(p, hull_points: np.ndarray, tol: float = 1e-12) -> bool:
    """Membership in the convex hull of a point set, via half-plane checks
    against every directed pair of points (no hull construction)."""
    pts = np.unique(np.asarray(hull_points, dtype=float), axis=0)
    p = np.asarray(p, dtype=float)
    n = len(pts)
    scale = max(1.0, float(np.max(np.abs(pts))))
    if n == 1:
        return bool(np.linalg.norm(p - pts[0]) <= tol * scale)
    if n == 2:
        return _point_segment_distance(p, pts[0], pts[1]) <= tol * scale
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            a, b = pts[i], pts[j]
            nrm = np.array([-(b[1] - a[1]), b[0] - a[0]])
            side = float(nrm @ (p - a))
            if side < -tol * scale:
                others = (pts - a) @ nrm
                if np.all(others >= -tol * scale):
                    return False
    return True


def shoelace_area(vertices: np.ndarray) -> float:
    v = np.asarray(vertices, dtype=float)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * abs(float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))


def _orient(a, b, c) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def segments_intersect(p1, p2, q1, q2) -> bool:
    """Segment intersection predicate incl. touching and collinear overlap."""
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return True

    def on_segment(a, b, c):
        return (min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
                and min(a[1], b[1]) <= c[1] <= max(a[1], b[1]))

    if d1 == 0 and on_segment(q1, q2, p1):
        return True
    if d2 == 0 and on_segment(q1, q2, p2):
        return True
    if d3 == 0 and on_segment(p1, p2, q1):
        return True
    if d4 == 0 and on_segment(p1, p2, q2):
        return True
    return False


def hulls_intersect_oracle(points_a: np.ndarray, points_b: np.ndarray) -> bool:
    """Exhaustive convex-set intersection test: every edge pair of the two
    hulls plus containment both ways."""
    a = np.asarray(points_a, dtype=float)
    b = np.asarray(points_b, dtype=float)

    def edges(pts):
        n = len(pts)
        if n == 1:
            return [(pts[0], pts[0])]
        return [(pts[i], pts[j]) for i in range(n) for j in range(i + 1, n)]

    for e1 in edges(a):
        for e2 in edges(b):
            if segments_intersect(e1[0], e1[1], e2[0], e2[1]):
                return True
    if any(point_in_hull(p, b) for p in a):
        return True
    if any(point_in_hull(p, a) for p in b):
        return True
    return False


def _dot(u, v) -> float:
    # Written out: a BLAS dot may fuse the multiply-add and round differently.
    return float(u[0] * v[0] + u[1] * v[1])


def _norm(u) -> float:
    return math.sqrt(_dot(u, u))


def seg_seg_closest(p1, p2, q1, q2):
    """Closest points between segments [p1,p2] and [q1,q2] (degenerate-safe).

    Returns (distance, point_on_p, point_on_q).
    """
    d1 = p2 - p1
    d2 = q2 - q1
    r = p1 - q1
    a = _dot(d1, d1)
    e = _dot(d2, d2)
    f = _dot(d2, r)
    if a <= 1e-30 and e <= 1e-30:
        return _norm(p1 - q1), p1, q1
    if a <= 1e-30:
        t = min(max(f / e, 0.0), 1.0)
        cq = q1 + t * d2
        return _norm(p1 - cq), p1, cq
    c = _dot(d1, r)
    if e <= 1e-30:
        s = min(max(-c / a, 0.0), 1.0)
        cp = p1 + s * d1
        return _norm(cp - q1), cp, q1
    b = _dot(d1, d2)
    denom = a * e - b * b
    s = min(max((b * f - c * e) / denom, 0.0), 1.0) if denom > 1e-30 else 0.0
    t = (b * s + f) / e
    if t < 0.0:
        t = 0.0
        s = min(max(-c / a, 0.0), 1.0)
    elif t > 1.0:
        t = 1.0
        s = min(max((b - c) / a, 0.0), 1.0)
    cp = p1 + s * d1
    cq = q1 + t * d2
    return _norm(cp - cq), cp, cq


def _hull_edges(hull: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Edge list of a hull that may degenerate to a point or a segment."""
    n = len(hull)
    if n == 1:
        return [(hull[0], hull[0])]
    if n == 2:
        return [(hull[0], hull[1])]
    return [(hull[i], hull[(i + 1) % n]) for i in range(n)]


def _point_in_ccw_hull(p, hull: np.ndarray) -> bool:
    n = len(hull)
    if n < 3:
        return False
    return all(_orient(hull[i], hull[(i + 1) % n], p) >= 0.0 for i in range(n))


def _segments_cross(p1, p2, q1, q2) -> bool:
    """Orientation-sign test for segment crossing."""
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


def closest_between_hulls(points_a: np.ndarray, points_b: np.ndarray):
    """Closest pair between the convex hulls of two point sets, one edge pair
    at a time. Returns (distance, point_on_a, point_on_b); distance 0.0 means
    the hulls intersect (containment and tangency included)."""
    ha = convex_hull(points_a)
    hb = convex_hull(points_b)
    if _point_in_ccw_hull(ha[0], hb) or _point_in_ccw_hull(hb[0], ha):
        return 0.0, ha[0], ha[0]
    scale = max(1.0, float(np.max(np.abs(ha))), float(np.max(np.abs(hb))))
    best = (math.inf, None, None)
    for ea in _hull_edges(ha):
        for eb in _hull_edges(hb):
            if _segments_cross(ea[0], ea[1], eb[0], eb[1]):
                return 0.0, ea[0], ea[0]
            d, cp, cq = seg_seg_closest(ea[0], ea[1], eb[0], eb[1])
            if d < best[0]:
                best = (d, cp, cq)
    if best[0] <= 1e-12 * scale:
        return 0.0, best[1], best[2]
    return best


def separator_oracle(hull_points: np.ndarray, poly_vertices: np.ndarray):
    """Scalar closest-pair separating line (h, d), or None when the hulls
    intersect or touch. Unlike the library it does not re-check the line."""
    dist, cp, cq = closest_between_hulls(np.asarray(hull_points, dtype=float), poly_vertices)
    if dist <= 0.0:
        return None
    h = (cp - cq) / dist
    return h, _dot(h, cp + cq) / 2.0
