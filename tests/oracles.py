"""Independent oracles the tests check the library against.

Each oracle implements the quantity a different way than the library does:
de Boor recursion vs the fixed-matrix segment form, the per-float
vector-matrix products and the point-by-point grid scan of time_at_distance
that array evaluation of the spline replaced, combinatorial
segment-intersection vs closest-pair distances, shoelace areas, plain
half-plane membership, the edge-by-edge segment collision check and the
point-by-point obstacle clearance that geometry's one-pass versions
replaced, the scalar per-pair closest-pair separator that the batched
library kernel replaced, the brute-force batched separator kernel (every
chord against every edge) that the screened one replaced, the plane-by-plane cyclic projection
that trajopt's slot-batched one replaced, the every-pair line refit that
the moved-hulls-only one replaced, the one-iteration-at-a-time RRT
loop that the speculative batches replaced and the target-by-target
resampling that the array one replaced, and the sample-by-sample
feasibility audit that the batched estimate_bounds replaced, the
per-float, per-term disturbance that the one array formula replaced, that
formula without its quiet path and its table over a disturbance batch (the
formula the batch's grid is checked against), the
segment-by-segment dense kinodynamic check and the pair-by-pair separation
check of trajopt.validate that their one-pass forms replaced, the
funnel cascade written out on Python floats with math, the point-by-point
strict separation verdict (strictly_separates) that checks every separator
the library returns, and Scenario.with_seed as the schema round trip that
its one replace call replaced. It also holds disturbance_bounds, the
per-axis bound of a disturbance, clamped_spline, the spline through
waypoints, random_polygon, the random convex obstacle the geometry tests draw,
step_state, one RK4 step of a VesselState through dynamics.step, the
row-by-row batch RK4 step that the one-block kinetic derivative replaced,
the float RK4 step with nested stage closures that the one stage loop
replaced, and the cell-by-cell CSV writer that the column-wise one replaced.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations
from types import SimpleNamespace

import numpy as np

from funnelnav import feasibility, trajopt
from funnelnav.bspline import BASIS_M, BASIS_M2, SplineTrajectory, clamped_control_points
from funnelnav.dynamics import (
    _NOISE_FREQ_HI,
    _NOISE_FREQ_LO,
    _NOISE_TERMS,
    TWO_PI,
    VesselState,
    actuator_to_wrench,
    lumped,
    lumped_forces,
    step,
    wrap_angle,
)
from funnelnav.errors import InsufficientSamples, PlanTimeout, StartOrGoalInCollision
from funnelnav.funnels import compute_errors
from funnelnav import geometry, rrt
from funnelnav.geometry import ConvexPolygon, convex_hull, planar_dot
from funnelnav.scenario import Scenario


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


def matrix_form_eval(traj, t: float):
    """(position, velocity, acceleration) at one float time, one vector-matrix
    product of the segment matrix form at a time: the bits that every spline
    artifact was written with before evaluation took arrays of times."""
    dt = traj.dt_knot
    seg = min(int(t / dt), traj.n_segments - 1)
    u = t / dt - seg
    Q = traj.control_points[seg:seg + 4]
    pos = (np.array([1.0, u, u * u, u * u * u]) @ BASIS_M) @ Q
    v_ctrl = np.diff(Q, axis=0) / dt
    vel = (np.array([1.0, u, u * u]) @ BASIS_M2) @ v_ctrl
    a_ctrl = np.diff(v_ctrl, axis=0) / dt
    return pos, vel, (1.0 - u) * a_ctrl[0] + u * a_ctrl[1]


def time_at_distance_oracle(traj, dist: float, grid: int) -> float:
    """SplineTrajectory.time_at_distance with its grid scanned one point at a
    time, the first time whose point is at least dist from the start."""
    start = traj.eval(0.0)
    times = np.linspace(0.0, traj.duration, grid)
    for t in times:
        if float(np.linalg.norm(traj.eval(t) - start)) >= dist:
            break
    else:
        return traj.duration
    lo, hi = max(0.0, t - traj.duration / (grid - 1)), t
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if float(np.linalg.norm(traj.eval(mid) - start)) >= dist:
            hi = mid
        else:
            lo = mid
    return hi


def clamped_spline(waypoints, dt_knot: float) -> SplineTrajectory:
    """The spline of the control polygon [W0 x3, W1, ..., W_{n-2}, Wg x3] of n waypoints."""
    w = np.asarray(waypoints, dtype=float)
    return SplineTrajectory(clamped_control_points(w[0], w[1:-1], w[-1]), dt_knot)


def random_polygon(rng, center, radius, n=None):
    """Strictly convex polygon from sorted points on a noisy circle."""
    n = n or int(rng.integers(3, 8))
    angles = np.sort(rng.uniform(0, 2 * math.pi, n))
    radii = radius * rng.uniform(0.6, 1.0, n)
    pts = np.column_stack([center[0] + radii * np.cos(angles), center[1] + radii * np.sin(angles)])
    hull = convex_hull(pts)
    if len(hull) < 3:
        return random_polygon(rng, center, radius, n)
    return ConvexPolygon(hull)


def _point_segment_distance(p, a, b) -> float:
    ab = b - a
    denom = float(ab @ ab)
    s = 0.0 if denom == 0.0 else min(max(float((p - a) @ ab) / denom, 0.0), 1.0)
    return float(np.linalg.norm(p - (a + s * ab)))


def point_in_hull(p, hull_points: np.ndarray, tol: float = 1e-12) -> bool:
    """Membership in the convex hull of a point set, via half-plane checks
    against every directed pair of points (no hull construction), on Python floats."""
    pts = sorted(set(map(tuple, np.asarray(hull_points, dtype=float).tolist())))
    px, py = np.asarray(p, dtype=float).tolist()
    scale = max(1.0, max(abs(c) for pt in pts for c in pt))
    if len(pts) <= 2:  # a point or a segment
        a, b = np.array(pts[0]), np.array(pts[-1])
        return bool(_point_segment_distance(np.array([px, py]), a, b) <= tol * scale)
    for (ax, ay), (bx, by) in permutations(pts, 2):
        nx, ny = -(by - ay), bx - ax
        if nx * (px - ax) + ny * (py - ay) < -tol * scale:
            if all(nx * (qx - ax) + ny * (qy - ay) >= -tol * scale for qx, qy in pts):
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
    hulls plus containment both ways, on Python floats."""
    a = np.asarray(points_a, dtype=float).tolist()
    b = np.asarray(points_b, dtype=float).tolist()

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


def _sub(u, v) -> tuple[float, float]:
    return (u[0] - v[0], u[1] - v[1])


def _along(p, s, d) -> tuple[float, float]:
    """The point p + s * d."""
    return (p[0] + s * d[0], p[1] + s * d[1])


def seg_seg_closest(p1, p2, q1, q2):
    """Closest points between segments [p1,p2] and [q1,q2] (degenerate-safe), on
    (x, y) pairs of Python floats.

    Returns (distance, point_on_p, point_on_q).
    """
    d1 = _sub(p2, p1)
    d2 = _sub(q2, q1)
    r = _sub(p1, q1)
    a = _dot(d1, d1)
    e = _dot(d2, d2)
    f = _dot(d2, r)
    if a <= 1e-30 and e <= 1e-30:
        return _norm(r), p1, q1
    if a <= 1e-30:
        t = min(max(f / e, 0.0), 1.0)
        cq = _along(q1, t, d2)
        return _norm(_sub(p1, cq)), p1, cq
    c = _dot(d1, r)
    if e <= 1e-30:
        s = min(max(-c / a, 0.0), 1.0)
        cp = _along(p1, s, d1)
        return _norm(_sub(cp, q1)), cp, q1
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
    cp = _along(p1, s, d1)
    cq = _along(q1, t, d2)
    return _norm(_sub(cp, cq)), cp, cq


def _hull_edges(hull) -> list[tuple]:
    """Edge list of a hull that may degenerate to a point or a segment."""
    n = len(hull)
    if n == 1:
        return [(hull[0], hull[0])]
    if n == 2:
        return [(hull[0], hull[1])]
    return [(hull[i], hull[(i + 1) % n]) for i in range(n)]


def _point_in_ccw_hull(p, hull) -> bool:
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


def hull_oracle(points) -> list[tuple[float, float]]:
    """geometry.convex_hull on Python floats: Andrew's monotone chain over the
    sorted distinct points, each turn that is not strictly left dropped, then
    the vertices whose turn is within 1e-9 * scale^2 of collinear dropped
    (unless fewer than three would stay). A point or a segment is its sorted
    distinct points."""
    pts = sorted(set(map(tuple, np.asarray(points, dtype=float).tolist())))
    if len(pts) <= 2:
        return pts

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _orient(out[-2], out[-1], p) <= 0.0:
                out.pop()
            out.append(p)
        return out

    hull = half(pts)[:-1] + half(pts[::-1])[:-1]
    if len(hull) < 3:
        return sorted(set(hull))
    scale = max(abs(c) for p in hull for c in p) or 1.0
    eps = 1e-9 * scale * scale
    keep = [b for a, b, c in zip(hull[-1:] + hull[:-1], hull, hull[1:] + hull[:1])
            if (b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0]) > eps]
    return keep if len(keep) >= 3 else hull


def closest_between_hulls(points_a: np.ndarray, points_b: np.ndarray):
    """Closest pair between the convex hulls of two point sets, one edge pair
    at a time. Returns (distance, point_on_a, point_on_b); distance 0.0 means
    the hulls intersect (containment and tangency included). The points are
    (x, y) pairs of Python floats."""
    ha, hb = hull_oracle(points_a), hull_oracle(points_b)
    if _point_in_ccw_hull(ha[0], hb) or _point_in_ccw_hull(hb[0], ha):
        return 0.0, ha[0], ha[0]
    scale = max(1.0, *(abs(c) for p in ha + hb for c in p))
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


def point_free_oracle(p, ws, inflated: bool = True) -> bool:
    """In bounds and outside every obstacle, checked one polygon at a time;
    a point on a boundary collides."""
    p = np.asarray(p, dtype=float)
    x0, y0, x1, y1 = ws.bounds
    obstacles = ws.inflated_obstacles() if inflated else ws.obstacles
    return (x0 <= p[0] <= x1 and y0 <= p[1] <= y1
            and not any(_point_in_ccw_hull(p, o.vertices) for o in obstacles))


def segment_free_oracle(a, b, ws, inflated: bool = True) -> bool:
    """Segment collision check one obstacle edge at a time: both endpoints
    free, and no edge touching the segment."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not (point_free_oracle(a, ws, inflated) and point_free_oracle(b, ws, inflated)):
        return False
    for poly in ws.inflated_obstacles() if inflated else ws.obstacles:
        for q1, q2 in _hull_edges(poly.vertices):
            if segments_intersect(a, b, q1, q2):
                return False
    return True


def shortcut_oracle(points: list, ws) -> list:
    """rrt._shortcut one candidate at a time: from each kept node, test ends
    from the last one back and jump to the first free one."""
    out = [points[0]]
    i = 0
    while i < len(points) - 1:
        j = len(points) - 1
        while j > i + 1 and not segment_free_oracle(points[i], points[j], ws):
            j -= 1
        out.append(points[j])
        i = j
    return out


def rrt_oracle(ws, start, goal, params=None):
    """rrt.plan one iteration at a time: each draws its sample, finds its
    nearest node and checks its edge on its own. The node table holds one
    row more than the loop first had, for a goal reached on the last
    iteration with every iteration accepted."""
    params = (params or rrt.RrtParams()).resolved(ws)
    start = np.asarray(start, dtype=float)
    goal = np.asarray(goal, dtype=float)
    if not geometry.point_free(start, ws):
        raise StartOrGoalInCollision(f"start {start.tolist()} not in inflated free space")
    if not geometry.point_free(goal, ws):
        raise StartOrGoalInCollision(f"goal {goal.tolist()} not in inflated free space")

    step = params.step_size
    rng = np.random.default_rng(params.seed)
    x0, y0, x1, y1 = ws.bounds

    nodes = np.empty((params.max_iters + 2, 2))
    nodes[0] = start
    parents = [-1]
    n_nodes = 1
    goal_idx = None

    for _ in range(params.max_iters):
        if rng.random() < params.goal_bias:
            sample = goal
        else:
            sample = np.array([rng.uniform(x0, x1), rng.uniform(y0, y1)])
        diffs = nodes[:n_nodes] - sample
        nearest = int(np.argmin(np.einsum("ij,ij->i", diffs, diffs)))
        direction = sample - nodes[nearest]
        dist = float(np.linalg.norm(direction))
        if dist < 1e-12:
            continue
        new = nodes[nearest] + direction * (min(step, dist) / dist)
        # Also rejects a new node out of bounds or in an obstacle.
        if not geometry.segment_free(nodes[nearest], new, ws):
            continue
        nodes[n_nodes] = new
        parents.append(nearest)
        n_nodes += 1
        hop = float(np.linalg.norm(goal - new))
        if hop <= min(params.goal_radius, step) and geometry.segment_free(new, goal, ws):
            nodes[n_nodes] = goal
            parents.append(n_nodes - 1)
            goal_idx = n_nodes
            n_nodes += 1
            break

    if goal_idx is None:
        raise PlanTimeout(f"no path after {params.max_iters} iterations")

    chain = []
    idx = goal_idx
    while idx != -1:
        chain.append(nodes[idx].copy())
        idx = parents[idx]
    chain.reverse()

    if params.shortcut and len(chain) > 2:
        chain = rrt._shortcut(chain, ws)
    return rrt.RrtPath(waypoints=resample_oracle(chain, spacing=step))


def resample_oracle(points: list, spacing: float, min_points: int = 4) -> np.ndarray:
    """rrt._resample one target at a time."""
    pts = np.asarray(points, dtype=float)
    seg_len = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    total = float(seg_len.sum())
    if total <= 0.0:
        raise ValueError("degenerate path with zero length")
    n_legs = max(min_points - 1, int(math.ceil(total / spacing)))
    targets = np.linspace(0.0, total, n_legs + 1)
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    out = []
    for s in targets:
        k = min(int(np.searchsorted(cum, s, side="right")) - 1, len(seg_len) - 1)
        k = max(k, 0)
        denom = seg_len[k] if seg_len[k] > 0.0 else 1.0
        frac = (s - cum[k]) / denom
        out.append(pts[k] + frac * (pts[k + 1] - pts[k]))
    out[0] = pts[0]
    out[-1] = pts[-1]
    return np.array(out)


def min_distance_to_obstacles(p, obstacles) -> float:
    """Clearance of one point: 0 inside some obstacle, else its least
    distance to an obstacle edge."""
    p = np.asarray(p, dtype=float)
    best = math.inf
    for poly in obstacles:
        if _point_in_ccw_hull(p, poly.vertices):
            return 0.0
        best = min([best] + [_point_segment_distance(p, q1, q2) for q1, q2 in _hull_edges(poly.vertices)])
    return best


def separator_oracle(hull_points: np.ndarray, poly_vertices: np.ndarray):
    """Scalar closest-pair separating line (h, d), or None when the hulls
    intersect or touch. Unlike the library it does not re-check the line."""
    dist, cp, cq = closest_between_hulls(np.asarray(hull_points, dtype=float), poly_vertices)
    if dist <= 0.0:
        return None
    h = ((cp[0] - cq[0]) / dist, (cp[1] - cq[1]) / dist)
    return h, _dot(h, (cp[0] + cq[0], cp[1] + cq[1])) / 2.0


def separator_block_oracle(hulls: np.ndarray, verts: np.ndarray):
    """geometry._separator_block without its screens: the crossing and
    containment tests on every pair, the closest points of every (hull
    chord, polygon edge) combination and the first minimum over all of
    them. verts are the polygons' padded vertices; returns (found, h, d)."""
    m, n_pts = hulls.shape[:2]
    q1 = verts[:, None]                                   # (M, 1, K, 2)
    q2 = np.roll(verts, -1, axis=1)[:, None]
    i, j = np.triu_indices(n_pts, 1) if n_pts > 1 else (np.zeros(1, int), np.zeros(1, int))
    flip = (geometry._orient(hulls[:, i, None], hulls[:, j, None], hulls[:, None]) < 0.0).any(axis=2)
    p1 = np.where(flip[..., None], hulls[:, j], hulls[:, i])[:, :, None]   # (M, S, 1, 2)
    p2 = np.where(flip[..., None], hulls[:, i], hulls[:, j])[:, :, None]
    crossing = (((geometry._orient(q1, q2, p1) > 0) != (geometry._orient(q1, q2, p2) > 0))
                & ((geometry._orient(p1, p2, q1) > 0) != (geometry._orient(p1, p2, q2) > 0))).any(axis=(1, 2))
    hull_in_poly = (geometry._orient(q1, q2, hulls[:, :, None]) >= 0.0).all(axis=2).any(axis=1)
    tri = np.array(list(combinations(range(n_pts), 3)), dtype=int).reshape(-1, 3)
    ta, tb, tc = (hulls[:, tri[:, k], None] for k in range(3))   # (M, T, 1, 2)
    turn = geometry._orient(ta, tb, tc)
    sides = np.stack([geometry._orient(ta, tb, q1), geometry._orient(tb, tc, q1), geometry._orient(tc, ta, q1)])
    poly_in_hull = (((turn > 0) & (sides >= 0.0).all(axis=0))
                    | ((turn < 0) & (sides <= 0.0).all(axis=0))).any(axis=(1, 2))

    cp, cq = geometry._closest_points(p1, p2, q1, q2)
    gap = cp - cq
    dist = np.sqrt(planar_dot(gap, gap)).reshape(m, -1)
    best = (np.arange(m), dist.argmin(axis=1))
    dist, cp, cq = dist[best], cp.reshape(m, -1, 2)[best], cq.reshape(m, -1, 2)[best]
    scale = np.maximum(1.0, np.maximum(np.abs(hulls).max(axis=(1, 2)), np.abs(verts).max(axis=(1, 2))))
    found = ~(crossing | hull_in_poly | poly_in_hull) & (dist > 1e-12 * scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = (cp - cq) / dist[:, None]
    d = planar_dot(h, cp + cq) / 2.0
    found &= ((planar_dot(hulls, h[:, None]) > d[:, None]).all(axis=1)
              & (planar_dot(verts, h[:, None]) < d[:, None]).all(axis=1))
    h[~found], d[~found] = np.nan, np.nan
    return found, h, d


def refit_oracle(C: np.ndarray, lines, ws) -> tuple[np.ndarray, np.ndarray]:
    """trajopt._step_planes refitting every pair, moved or not: one kernel
    call over all hulls, then the old line kept where no refit was found or
    it would not improve the worst slack. Returns the lines' (h, d)."""
    margin = ws.problem.sep_margin
    hulls, verts = C[ws.pair_index], ws.pair_verts
    found, h, d = geometry.find_separators(hulls, verts)
    take = found & (trajopt._plane_residual(hulls, verts, h, d, margin)
                    >= trajopt._plane_residual(hulls, verts, lines.h, lines.d, margin))
    return np.where(take[:, None], h, lines.h), np.where(take, d, lines.d)


def project_oracle(C: np.ndarray, dt: float, lines, ws) -> float:
    """trajopt._project one scalar update at a time: every chain in every
    sweep, and the line-by-line, point-by-point halfspace loop over the raw
    (seg, h, d) of the trajopt._Lines, in their order.

    Returns the worst remaining violation. Pinned control points never move;
    constraints touching only pins are identically satisfied by the tripled
    endpoints.
    """
    problem = ws.problem
    free = ws.free
    v_bound = problem.v_max * dt
    a_bound = problem.a_max * (dt * dt)
    N = ws.N
    margin = problem.sep_margin
    tol = problem.tol_residual

    worst = math.inf
    for _ in range(trajopt._PROJECTION_SWEEPS):
        worst = 0.0
        # Velocity pairs: ||q_k - q_{k-1}|| <= v_max dt.
        for k in range(1, N):
            gx = C[k, 0] - C[k - 1, 0]
            gy = C[k, 1] - C[k - 1, 1]
            norm = math.hypot(gx, gy)
            over = norm - v_bound
            if over <= tol:
                continue
            worst = max(worst, over)
            scale = (1.0 - v_bound / norm)
            denom = float(free[k]) + float(free[k - 1])
            if denom == 0.0:
                continue
            cx, cy = scale * gx / denom, scale * gy / denom
            if free[k]:
                C[k, 0] -= cx
                C[k, 1] -= cy
            if free[k - 1]:
                C[k - 1, 0] += cx
                C[k - 1, 1] += cy
        # Acceleration triples.
        for k in range(2, N):
            gx = C[k, 0] - 2.0 * C[k - 1, 0] + C[k - 2, 0]
            gy = C[k, 1] - 2.0 * C[k - 1, 1] + C[k - 2, 1]
            norm = math.hypot(gx, gy)
            over = norm - a_bound
            if over <= tol:
                continue
            worst = max(worst, over)
            denom = float(free[k]) + 4.0 * float(free[k - 1]) + float(free[k - 2])
            if denom == 0.0:
                continue
            s = (1.0 - a_bound / norm) / denom
            dx, dy = s * gx, s * gy
            if free[k]:
                C[k, 0] -= dx
                C[k, 1] -= dy
            if free[k - 1]:
                C[k - 1, 0] += 2.0 * dx
                C[k - 1, 1] += 2.0 * dy
            if free[k - 2]:
                C[k - 2, 0] -= dx
                C[k - 2, 1] -= dy
        # Separation halfspaces: h.q >= d + margin for the four hull points.
        for i, h, d in zip(lines.seg.tolist(), lines.h, lines.d.tolist()):
            target = d + margin
            for k in range(i, i + 4):
                if not free[k]:
                    continue
                val = C[k, 0] * h[0] + C[k, 1] * h[1]
                short = target - val
                if short > tol:
                    worst = max(worst, short)
                    C[k, 0] += h[0] * short
                    C[k, 1] += h[1] * short
        if worst <= tol:
            break
    return worst


def dense_kinodynamic_oracle(traj, samples_per_segment: int = 1000) -> tuple[float, float]:
    """Max sampled speed and acceleration magnitude, segment by segment with
    (1000, 4) @ (4, 2) products and np.linalg.norm; a NaN sample gives NaN."""
    us = np.linspace(0.0, 1.0, samples_per_segment)
    vel_basis = np.column_stack([np.zeros_like(us), np.ones_like(us), 2.0 * us, 3.0 * us ** 2])
    acc_basis = np.column_stack([np.zeros_like(us), np.zeros_like(us),
                                 np.full_like(us, 2.0), 6.0 * us])
    vel_w = vel_basis @ BASIS_M
    acc_w = acc_basis @ BASIS_M
    dt = traj.dt_knot
    max_v = 0.0
    max_a = 0.0
    for i in range(traj.n_segments):
        Q = traj.control_points[i:i + 4]
        v = vel_w @ Q / dt
        a = acc_w @ Q / (dt * dt)
        max_v = _max_or_nan(max_v, float(np.linalg.norm(v, axis=1).max()))
        max_a = _max_or_nan(max_a, float(np.linalg.norm(a, axis=1).max()))
    return max_v, max_a


def _max_or_nan(a: float, b: float) -> float:
    """max(a, b), or NaN when either is NaN (the builtin max keeps a then)."""
    return math.nan if math.isnan(a) or math.isnan(b) else max(a, b)


def strictly_separates(hull_points: np.ndarray, poly: ConvexPolygon, h, d: float,
                       margin: float = 0.0) -> bool:
    """h.q > d + margin for every hull point and h.p < d - margin for every
    polygon vertex, one point at a time; ValueError on a zero normal."""
    hx, hy = float(h[0]), float(h[1])
    if hx * hx + hy * hy <= 0.0:
        raise ValueError("separator normal must be non-zero")
    return (all(x * hx + y * hy > d + margin for x, y in np.asarray(hull_points, dtype=float).tolist())
            and all(x * hx + y * hy < d - margin for x, y in poly.vertices.tolist()))


def separation_report_oracle(C: np.ndarray, planes: dict, obstacles) -> tuple[float, bool]:
    """validate's (min slack, all verified) pair by pair: hull @ h and
    vertices @ h for the slack, strictly_separates for the strict verdict."""
    min_slack = math.inf
    all_ok = True
    for (i, j), (h, d) in planes.items():
        poly = obstacles[j]
        hull = C[i:i + 4]
        min_slack = min(min_slack, float(np.min(hull @ h)) - d, d - float(np.max(poly.vertices @ h)))
        if not strictly_separates(hull, poly, h, d):
            all_ok = False
    return min_slack, all_ok


def step_state(state, F_T, alpha_r, params, dist, t0, dt):
    """dynamics.step of one VesselState from time t0 under the command (F_T, alpha_r), its
    disturbance sampled at the RK4 stage times."""
    x = step((state.p_x, state.p_y, state.psi, state.u, state.v, state.r), F_T, alpha_r,
             params, dist.value(t0), dist.value(t0 + 0.5 * dt), dist.value(t0 + dt), dt)
    return VesselState(*x)


def step_rows_oracle(x, F_T, alpha_r, params, tau0, tau_half, tau1, dt):
    """dynamics.step of a (6, B) batch with each derivative row its own (B,)
    expression, the six rows stacked by np.array: the batch step as it was
    before its kinetic rows became one (3, B) block. Same operations per
    element, so the two agree bit for bit."""
    X, Y = F_T * np.cos(alpha_r), F_T * np.sin(alpha_r)
    N = params.Delta_x * Y
    d, m, Iz = params.drag, params.m, params.Iz

    def derivative(y, tau):
        _p_x, _p_y, psi, u, v, r = y
        f_u = tau[0] - (d.d1_u * u + d.d2_u * u * np.abs(u))
        f_v = tau[1] - (d.d1_v * v + d.d2_v * v * np.abs(v))
        f_r = tau[2] - (d.d1_r * r + d.d2_r * r * np.abs(r))
        if params.coriolis_on:
            f_u = f_u + m * v * r
            f_v = f_v - m * u * r
        c, s = np.cos(psi), np.sin(psi)
        return np.array((u * c - v * s, u * s + v * c, r,
                         (X + f_u) / m, (Y + f_v) / m, (N + f_r) / Iz))

    k1 = derivative(x, tau0)
    k2 = derivative(x + 0.5 * dt * k1, tau_half)
    k3 = derivative(x + 0.5 * dt * k2, tau_half)
    k4 = derivative(x + dt * k3, tau1)
    out = x + dt / 6.0 * (((k1 + 2.0 * k2) + 2.0 * k3) + 1.0 * k4)
    psi = np.fmod(out[2], TWO_PI)
    out[2] = np.where(psi < 0.0, psi + TWO_PI, psi)
    return out


def step_floats_oracle(x, F_T, alpha_r, params, tau0, tau_half, tau1, dt):
    """dynamics.step of six floats as it was before its stages became one loop: a nested
    derivative and shift per stage, every stage state shifted in full, the sum formed by
    the same shift. Same operations per float, so the two agree bit for bit."""
    X, Y, N = actuator_to_wrench(F_T, alpha_r, params)

    def derivative(y, tau):
        _p_x, _p_y, psi, u, v, r = y
        c, s = math.cos(psi), math.sin(psi)
        f_u, f_v, f_r = lumped(u, v, r, tau, params)
        return (u * c - v * s, u * s + v * c, r,
                (X + f_u) / params.m, (Y + f_v) / params.m, (N + f_r) / params.Iz)

    def shift(y, c, k):
        return [a + c * b for a, b in zip(y, k)]
    k1 = derivative(x, tau0)
    k2 = derivative(shift(x, 0.5 * dt, k1), tau_half)
    k3 = derivative(shift(x, 0.5 * dt, k2), tau_half)
    k4 = derivative(shift(x, dt, k3), tau1)
    # x + dt/6 (k1 + 2 k2 + 2 k3 + k4), summed left to right.
    out = shift(x, dt / 6.0, [a + b for a, b in zip(shift(shift(k1, 2.0, k2), 2.0, k3), k4)])
    out[2] = wrap_angle(out[2])
    return out


def write_csv_oracle(path, header: list[str], arrays: list[np.ndarray]) -> None:
    """harness.write_csv as it was before it formatted by column: one repr per cell, row by row."""
    cols = [np.asarray(a, dtype=float).tolist() for a in arrays]
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        f.writelines(",".join(map(repr, row)) + "\n" for row in zip(*cols))


def disturbance_oracle(dist, t: float) -> tuple[float, float, float]:
    """DisturbanceProfile.value from its axes and seed: axis by axis, term by
    term, skipping zero amplitudes and summing the noise from 0.0.

    It takes numpy's sine of one float, so an exact comparison with the
    array formula checks the terms and their order on any host, not two
    sine implementations.
    """
    rng = np.random.default_rng(dist.seed)
    out = []
    for axis in dist.axes:
        freqs = rng.uniform(_NOISE_FREQ_LO, _NOISE_FREQ_HI, _NOISE_TERMS)
        phases = rng.uniform(0.0, TWO_PI, _NOISE_TERMS)
        val = axis.bias
        if axis.sin_amp != 0.0:
            val += axis.sin_amp * float(np.sin(TWO_PI * axis.sin_freq_hz * t + axis.sin_phase))
        if axis.noise_amp != 0.0:
            s = 0.0
            for k in range(_NOISE_TERMS):
                s += float(np.sin(TWO_PI * freqs[k] * t + phases[k]))
            val += axis.noise_amp * s / _NOISE_TERMS
        out.append(val)
    return tuple(out)


def disturbance_bounds(dist) -> tuple[float, float, float]:
    """Per axis, the bound |bias| + |sin_amp| + |noise_amp| that the wrench never exceeds."""
    return tuple(abs(ax.bias) + abs(ax.sin_amp) + abs(ax.noise_amp) for ax in dist.axes)


def wrench_oracle(terms, t):
    """dynamics._wrench as it was before a quiet disturbance skipped its sines: every
    term of the formula evaluated, whatever its amplitude."""
    bias, sin_amp, noise_amp, omega, phase = terms
    s = np.sin(omega * t + phase)
    noise = s[1]
    for k in range(2, 1 + _NOISE_TERMS):
        noise = noise + s[k]
    return bias + sin_amp * s[0] + noise_amp * noise / _NOISE_TERMS


def table_oracle(batch, ts: np.ndarray) -> np.ndarray:
    """The (n, 3, B) wrenches of a DisturbanceBatch at (n,) times, row i at ts[i], by
    wrench_oracle over the batch's term arrays: the formula reference of its grid."""
    bias, sin_amp, noise_amp, omega, phase = batch._terms
    return wrench_oracle((bias, sin_amp, noise_amp, omega[:, None], phase[:, None]), ts[:, None, None])


def atanh_to_edge(xi: float) -> float:
    """atanh, with an |xi| >= 1 taken at 1 - 1e-9 of its sign."""
    return math.atanh(math.copysign(1.0 - 1e-9, xi) if abs(xi) >= 1.0 else xi)


def cascade_oracle(u, r, e_d, e_o, t, cfg) -> SimpleNamespace:
    """controller.stages at the funnel radii of time t on one column, as Python floats
    through math.

    Returns the saturated F_T and alpha_r, the references u_des and r_des,
    and the violated channels in d, o, u, r order.
    """
    u, r, e_d, e_o, t = (float(a) for a in (u, r, e_d, e_o, t))
    rho_d, rho_o, rho_u, rho_r = (
        (f.rho0 - f.rho_inf) * math.exp(-f.l * t) + f.rho_inf
        for f in (cfg.funnel_d, cfg.funnel_o, cfg.funnel_u, cfg.funnel_r))
    xi_d = (2.0 * e_d - rho_d - cfg.rho_d_min) / (rho_d - cfg.rho_d_min)
    xi_o = e_o / rho_o
    u_des = cfg.k_d * atanh_to_edge(xi_d)
    r_des = -cfg.k_o * atanh_to_edge(xi_o)
    xi_u = (u - u_des) / rho_u
    xi_r = (r - r_des) / rho_r
    eps_u = atanh_to_edge(xi_u)
    eps_r = atanh_to_edge(xi_r)
    k_alpha = cfg.k_r / (cfg.delta_x_nominal * cfg.k_u)
    u_alpha = math.atan(k_alpha * eps_r / min(eps_u, -cfg.eps_u_guard))
    alpha_r = min(max(u_alpha, -cfg.alpha_r_max), cfg.alpha_r_max)
    F_T = min(max(-cfg.k_u * eps_u / math.cos(alpha_r), 0.0), cfg.F_T_max)
    violations = [ch for ch, xi in zip("dour", (xi_d, xi_o, xi_u, xi_r)) if abs(xi) >= 1.0]
    return SimpleNamespace(F_T=F_T, alpha_r=alpha_r, u_des=u_des, r_des=r_des,
                           violations=violations)


def _rollout_reference_rates(scenario, state, p_des, v_ref, t0, dt_fd):
    """Central finite differences of (u_des, r_des) along a 2-step closed-loop rollout.

    Also returns the thrust commands and sway values seen along the rollout.
    """
    cfg = scenario.controller
    u_series, r_series = [], []
    thrusts, sways = [], []
    s = state
    p = p_des.copy()
    for k in range(3):
        _e_x, _e_y, e_d, e_o, _psi_e = compute_errors(s.p_x, s.p_y, s.psi, p[0], p[1])
        out = cascade_oracle(s.u, s.r, e_d, e_o, t0 + k * dt_fd, cfg)
        u_series.append(out.u_des)
        r_series.append(out.r_des)
        thrusts.append(out.F_T)
        sways.append(abs(s.v))
        if k < 2:
            s = step_state(s, out.F_T, out.alpha_r, scenario.vessel, scenario.disturbance,
                           t0 + k * dt_fd, dt_fd)
            p = p + v_ref * dt_fd
    du_des = (u_series[2] - u_series[0]) / (2.0 * dt_fd)
    dr_des = (r_series[2] - r_series[0]) / (2.0 * dt_fd)
    return du_des, dr_des, thrusts, sways


def feasibility_oracle(scenario, n_samples: int = 2000, trajectory=None, xi_max: float = 0.8, horizon: float | None = None,
                       dt_fd: float = 0.02) -> feasibility.FeasibilityReport:
    """estimate_bounds one sample at a time: scalar draws, cascade and RK4 per sample."""
    if n_samples < 100:
        raise InsufficientSamples(f"need at least 100 samples, got {n_samples}")
    cfg = scenario.controller
    vessel = scenario.vessel
    rng = np.random.default_rng(scenario.seed)
    horizon = scenario.horizon if horizon is None else horizon

    u_cap = min(feasibility.terminal_surge_speed(scenario), 1.5 * scenario.v_max)
    r_cap = min(feasibility.terminal_yaw_rate(scenario), 1.5 * cfg.k_o * math.atanh(xi_max))
    v_bar = scenario.sway_bound
    x0, y0, x1, y1 = scenario.workspace.bounds

    F_bar_u = 0.0
    F_bar_r = 0.0
    best_u: dict = {}
    best_r: dict = {}
    min_thrust = math.inf
    max_sway = 0.0
    thrust_cut = 0

    for _ in range(n_samples):
        t0 = rng.uniform(dt_fd, max(horizon, 2.0 * dt_fd))
        xi_d = rng.uniform(1e-3, xi_max)
        xi_o = rng.uniform(-xi_max, xi_max)
        xi_u = rng.uniform(-xi_max, -1e-3)
        xi_r = rng.uniform(-xi_max, xi_max)
        v = rng.uniform(-v_bar, v_bar)
        psi = rng.uniform(0.0, 2.0 * math.pi)
        px = rng.uniform(x0, x1)
        py = rng.uniform(y0, y1)

        rho_d = cfg.funnel_d.value(t0)
        rho_o = cfg.funnel_o.value(t0)
        rho_u = cfg.funnel_u.value(t0)
        rho_r = cfg.funnel_r.value(t0)

        e_d = 0.5 * (xi_d * (rho_d - cfg.rho_d_min) + rho_d + cfg.rho_d_min)
        psi_e = math.asin(xi_o * rho_o)
        u_des = cfg.k_d * math.atanh(xi_d)
        u = min(max(u_des + xi_u * rho_u, 0.0), u_cap)
        r_des = -cfg.k_o * math.atanh(xi_o)
        r = min(max(r_des + xi_r * rho_r, -r_cap), r_cap)
        xi_u_real = (u - u_des) / rho_u
        xi_r_real = (r - r_des) / rho_r

        state = VesselState(p_x=px, p_y=py, psi=wrap_angle(psi), u=u, v=v, r=r)
        p_des = np.array([px + e_d * math.cos(psi - psi_e), py + e_d * math.sin(psi - psi_e)])
        ref_dir = rng.uniform(0.0, 2.0 * math.pi)
        ref_speed = rng.uniform(0.0, scenario.v_max)
        v_ref = ref_speed * np.array([math.cos(ref_dir), math.sin(ref_dir)])

        du_des, dr_des, thrusts, sways = _rollout_reference_rates(
            scenario, state, p_des, v_ref, t0, dt_fd)
        f_u, _f_v, f_r = lumped_forces(state, vessel, scenario.disturbance, t0)

        val_u = abs(f_u - vessel.m * (du_des + cfg.funnel_u.rate(t0) * xi_u_real))
        val_r = abs(f_r - vessel.Iz * (dr_des + cfg.funnel_r.rate(t0) * xi_r_real))

        if val_u > F_bar_u:
            F_bar_u = val_u
            best_u = {"t": t0, "u": u, "v": v, "r": r, "psi": psi, "xi_d": xi_d,
                      "xi_u": xi_u_real, "f_u": f_u, "du_des": du_des}
        if val_r > F_bar_r:
            F_bar_r = val_r
            best_r = {"t": t0, "u": u, "v": v, "r": r, "psi": psi, "xi_o": xi_o,
                      "xi_r": xi_r_real, "f_r": f_r, "dr_des": dr_des}
        min_thrust = min(min_thrust, min(thrusts))
        max_sway = max(max_sway, max(sways))
        thrust_cut += sum(1 for F in thrusts if F < scenario.min_thrust_floor)

    ref0 = feasibility._initial_reference_point(scenario, trajectory)
    *_, psi_e0 = compute_errors(scenario.start.p_x, scenario.start.p_y, scenario.start.psi,
                                ref0[0], ref0[1])
    authority_u = cfg.F_T_max * math.cos(cfg.alpha_r_max)
    authority_r = vessel.Delta_x * scenario.min_thrust_floor * math.sin(cfg.alpha_r_max)
    return feasibility.FeasibilityReport(
        F_bar_u=F_bar_u,
        F_bar_r=F_bar_r,
        F_T_lower_declared=scenario.min_thrust_floor,
        F_T_lower_observed=min_thrust,
        v_bar_declared=v_bar,
        v_bar_observed=max_sway,
        margins={
            "thrust_floor": min_thrust - scenario.min_thrust_floor,
            "surge_authority": authority_u - F_bar_u,
            "torque_authority": authority_r - F_bar_r,
            "initial_bearing": math.pi / 2.0 - abs(psi_e0),
        },
        verdicts={
            "thrust_floor": scenario.min_thrust_floor > 0.0,
            "surge_authority": F_bar_u <= authority_u,
            "torque_authority": F_bar_r <= authority_r,
            "initial_bearing": abs(psi_e0) < math.pi / 2.0,
        },
        thrust_cut_events=thrust_cut,
        achieving_sample_u=best_u,
        achieving_sample_r=best_r,
        n_samples=n_samples,
        seed=int(scenario.seed),
        psi_e0=psi_e0,
    )


def with_seed_oracle(scenario, seed: int):
    """Scenario.with_seed as a round trip through the schema: to_dict with both seeds
    replaced, from_dict, then the disturbance reseeded."""
    data = scenario.to_dict()
    data["seed"] = int(seed)
    data["planner"]["seed"] = int(seed)
    out = Scenario.from_dict(data)
    out.disturbance = scenario.disturbance.reseeded(int(seed))
    return out
