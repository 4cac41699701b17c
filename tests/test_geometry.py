import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from funnelnav import harness, rrt, trajopt
from funnelnav.geometry import (
    _BLOCK,
    _separator_block,
    ConvexPolygon,
    Workspace,
    distances_to_obstacles,
    find_separator,
    find_separators,
    inflate,
    padded_vertices,
    point_free,
    segment_free,
)
from funnelnav.scenario import load_scenario
from oracles import (
    closest_between_hulls,
    hulls_intersect_oracle,
    min_distance_to_obstacles,
    point_free_oracle,
    point_in_hull,
    random_polygon,
    segment_free_oracle,
    separator_block_oracle,
    separator_oracle,
    shoelace_area,
    strictly_separates,
)

UNIT_SQUARE = ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))


def checked_against(ws, inflated: bool):
    """ws, or for inflated=False a copy whose inflated obstacles are ws's raw
    ones, so that the collision checks test the raw polygons."""
    if inflated:
        return ws
    return Workspace(ws.bounds, ws.obstacles, ws.clearance, ws.inflation_k_gon, _inflated=ws.obstacles)


class TestConvexPolygon:
    def test_validation(self):
        with pytest.raises(ValueError):
            ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):  # clockwise
            ConvexPolygon(np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(ValueError):  # collinear
            ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0]]))

    def test_contains_and_area(self):
        assert point_in_hull((0.5, 0.5), UNIT_SQUARE.vertices)
        assert point_in_hull((1.0, 0.5), UNIT_SQUARE.vertices)  # boundary inclusive
        assert not point_in_hull((1.5, 0.5), UNIT_SQUARE.vertices)
        assert shoelace_area(UNIT_SQUARE.vertices) == pytest.approx(1.0)


class TestInflate:
    def test_square_grown_by_one(self):
        grown = inflate(UNIT_SQUARE, 1.0, k_gon=4)
        assert point_in_hull((2.0, 0.5), grown.vertices, tol=1e-9)
        assert point_in_hull((-0.99, -0.99), grown.vertices, tol=1e-9)
        assert not point_in_hull((2.5, 0.5), grown.vertices, tol=1e-9)

    def test_conservative_outer_approximation(self):
        rng = np.random.default_rng(2)
        grown = inflate(UNIT_SQUARE, 0.7, k_gon=12)
        points = []
        for _ in range(2000):
            base = rng.uniform(0.0, 1.0, 2)
            ang = rng.uniform(0.0, 2 * math.pi)
            rad = rng.uniform(0.0, 0.7)
            points.append(base + rad * np.array([math.cos(ang), math.sin(ang)]))
        # Every point on the inner side of every CCW edge, up to 1e-9.
        a, b, p = grown.vertices, np.roll(grown.vertices, -1, axis=0), np.array(points)[:, None]
        sides = (b[:, 0] - a[:, 0]) * (p[..., 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (p[..., 0] - a[:, 0])
        assert sides.shape == (2000, len(grown)) and (sides >= -1e-9).all()

    def test_triangle_area_growth(self):
        tri = ConvexPolygon(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        grown = inflate(tri, 0.1, k_gon=16)
        perimeter = 1.0 + 1.0 + math.sqrt(2.0)
        assert shoelace_area(grown.vertices) > shoelace_area(tri.vertices) + perimeter * 0.1

    def test_monotone_in_radius(self):
        rng = np.random.default_rng(4)
        poly = random_polygon(rng, (0.0, 0.0), 3.0)
        small = inflate(poly, 0.5, k_gon=16)
        big = inflate(poly, 1.5, k_gon=16)
        assert all(point_in_hull(v, big.vertices, tol=1e-9) for v in small.vertices)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            inflate(UNIT_SQUARE, -1.0)
        with pytest.raises(ValueError):
            inflate(UNIT_SQUARE, 1.0, k_gon=5)


class TestPointFree:
    def _workspace(self):
        return Workspace(bounds=(-10.0, -10.0, 20.0, 20.0),
                         obstacles=[ConvexPolygon(np.array([[4.0, 4.0], [8.0, 4.0], [8.0, 8.0], [4.0, 8.0]]))],
                         clearance=1.0)

    def test_far_point_free(self):
        assert point_free((-5.0, -5.0), self._workspace())

    def test_centroid_collides(self):
        assert not point_free((6.0, 6.0), checked_against(self._workspace(), False))
        assert not point_free((6.0, 6.0), self._workspace())

    def test_half_clearance_offset_collides_inflated_only(self):
        ws = self._workspace()
        p = (6.0, 4.0 - 0.5)  # clearance/2 below the bottom edge
        assert point_free(p, checked_against(ws, False))
        assert not point_free(p, ws)

    def test_out_of_bounds(self):
        assert not point_free((100.0, 0.0), self._workspace())

    def test_segment_free(self):
        ws = self._workspace()
        assert segment_free((-5, -5), (2, 2), ws)
        assert not segment_free((0, 6), (12, 6), ws)


SEGMENT_KINDS = ("random", "from_vertex", "to_vertex", "through_vertex", "along_edge",
                 "leaves_bounds", "no_obstacles")


def collision_instance(seed: int, kind: str):
    """A workspace and a segment a-b of the given kind against its obstacles.

    Half the workspaces hold integer rectangles, so collinear and touching
    cases have exactly zero orientations even before inflation.
    """
    rng = np.random.default_rng(seed)
    bounds = (-20.0, -20.0, 20.0, 20.0)
    if kind == "no_obstacles":
        obstacles = []
    elif rng.random() < 0.5:
        corners = rng.integers(-15, 12, (int(rng.integers(1, 4)), 2))
        sizes = rng.integers(1, 6, corners.shape)
        obstacles = [ConvexPolygon(np.array([c, c + [w, 0], c + [w, h], c + [0, h]], dtype=float))
                     for c, (w, h) in zip(corners, sizes)]
    else:
        obstacles = [random_polygon(rng, rng.uniform(-12, 12, 2), rng.uniform(1.0, 4.0))
                     for _ in range(int(rng.integers(1, 4)))]
    ws = Workspace(bounds=bounds, obstacles=obstacles, clearance=float(rng.uniform(0.2, 2.0)),
                   inflation_k_gon=int(rng.choice([4, 8, 16])))
    a, b = rng.uniform(-20, 20, (2, 2))
    polys = ws.obstacles + ws.inflated_obstacles()
    if not polys:
        return ws, a, b
    verts = polys[int(rng.integers(len(polys)))].vertices
    k = int(rng.integers(len(verts)))
    q1, q2 = verts[k], verts[(k + 1) % len(verts)]
    if kind == "from_vertex":
        a = q1
    elif kind == "to_vertex":
        b = q1
    elif kind == "through_vertex":
        b = q1 + rng.uniform(0.0, 1.5) * (q1 - a)
    elif kind == "along_edge":
        s, t = rng.choice([0.0, 1.0, rng.uniform(-0.5, 1.5)], 2)
        a, b = q1 + s * (q2 - q1), q1 + t * (q2 - q1)
    elif kind == "leaves_bounds":
        b = q1 + rng.uniform(0.0, 40.0, 2) * rng.choice([-1.0, 1.0], 2)
    return ws, a, b


class TestCollisionChecks:
    """The one-pass segment_free and point_free against the edge-by-edge oracle."""

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(SEGMENT_KINDS),
           inflated=st.booleans())
    def test_matches_oracle(self, seed, kind, inflated):
        ws, a, b = collision_instance(seed, kind)
        checked = checked_against(ws, inflated)
        assert segment_free(a, b, checked) == segment_free_oracle(a, b, ws, inflated)
        assert segment_free(b, a, checked) == segment_free_oracle(b, a, ws, inflated)
        for p in (a, b):
            assert point_free(p, checked) == point_free_oracle(p, ws, inflated)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(SEGMENT_KINDS))
    def test_batch_matches_oracle(self, seed, kind):
        ws, a, b = collision_instance(seed, kind)
        rng = np.random.default_rng(seed)
        verts = np.concatenate([o.vertices for o in ws.inflated_obstacles()] + [np.zeros((0, 2))])
        ends = np.concatenate([[b], rng.uniform(-22, 22, (8, 2)), verts])
        free = segment_free(a, ends, ws)
        assert free.shape == (len(ends),)
        assert free.tolist() == [segment_free_oracle(a, e, ws) for e in ends]
        assert segment_free(a, np.zeros((0, 2)), ws).shape == (0,)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(SEGMENT_KINDS))
    def test_pairs_match_oracle(self, seed, kind):
        # J starts against J ends, one start or one end shared by J
        # segments, and each segment alone (the box-screened path).
        ws, a, b = collision_instance(seed, kind)
        rng = np.random.default_rng(seed)
        verts = np.concatenate([o.vertices for o in ws.obstacles + ws.inflated_obstacles()]
                               + [np.zeros((0, 2))])
        points = np.concatenate([[a, b], rng.uniform(-22, 22, (8, 2)), verts])
        starts, ends = points[rng.permutation(len(points))], points
        for inflated in (True, False):
            checked = checked_against(ws, inflated)
            want = [segment_free_oracle(p, q, ws, inflated) for p, q in zip(starts, ends)]
            assert segment_free(starts, ends, checked).tolist() == want
            assert [segment_free(p, q, checked) for p, q in zip(starts, ends)] == want
            assert segment_free(ends, a, checked).tolist() == [
                segment_free_oracle(q, a, ws, inflated) for q in ends]

    def test_box_screen_touching_and_collinear(self):
        # Segments whose bounding boxes touch the square's box or lie just
        # apart from it, along its edge lines and through its corners.
        ws = Workspace(bounds=(-5.0, -5.0, 5.0, 5.0), obstacles=[UNIT_SQUARE], clearance=0.5)
        apart = 1.0 + 2.0**-40
        cases = [((1.0, 1.5), (2.0, 0.5)),      # boxes touch at x = 1, segment passes above
                 ((1.0, 1.0), (2.0, 2.0)),      # touches the corner
                 ((1.5, 0.0), (3.0, 0.0)),      # on the bottom edge's line, boxes apart
                 ((1.0, 0.0), (3.0, 0.0)),      # on that line, ending at the corner
                 ((apart, 0.0), (3.0, 0.0)),    # on that line, just apart
                 ((apart, -1.0), (apart, 2.0)),  # parallel to the right edge, just apart
                 ((1.0, -1.0), (1.0, 2.0)),     # along the right edge
                 ((-1.0, 2.0), (2.0, -1.0)),    # crosses the corner region diagonally
                 ((0.5, 1.0), (0.5, 3.0))]      # from the top edge outward
        for inflated in (False, True):
            checked = checked_against(ws, inflated)
            want = [segment_free_oracle(p, q, ws, inflated) for p, q in cases]
            assert [segment_free(p, q, checked) for p, q in cases] == want
            assert [segment_free(q, p, checked) for p, q in cases] == want
            starts, ends = np.array(cases).transpose(1, 0, 2)
            assert segment_free(starts, ends, checked).tolist() == want
        assert [segment_free(p, q, checked_against(ws, False)) for p, q in cases] == [
            True, False, True, False, True, True, False, False, False]

    def test_long_run_vertices_pairwise(self):
        # Segments from every third inflated vertex of the long-run planner
        # workspace to all of them, checked against the scenario's smaller
        # inflation and against the raw obstacles: endpoints just outside
        # the obstacles, with both free and blocked verdicts.
        scenario = load_scenario("long-run")
        verts = np.concatenate([o.vertices for o in scenario.planner_workspace().inflated_obstacles()])
        for inflated in (True, False):
            checked = checked_against(scenario.workspace, inflated)
            verdicts = []
            for a in verts[::3]:
                verdicts += [segment_free_oracle(a, b, scenario.workspace, inflated) for b in verts]
                assert segment_free(a, verts, checked).tolist() == verdicts[-len(verts):]
            assert 0 < sum(verdicts) < len(verdicts)


class TestSeparation:
    def test_axis_aligned_separator_verifies(self):
        hull = np.array([[6.0, 0.0], [7.0, 0.0], [7.0, 1.0], [6.0, 1.0]])
        assert strictly_separates(hull, UNIT_SQUARE, np.array([1.0, 0.0]), 3.0)

    def test_intersecting_never_verifies(self):
        hull = np.array([[0.5, 0.5], [1.5, 0.5], [1.5, 1.5], [0.5, 1.5]])
        assert not strictly_separates(hull, UNIT_SQUARE, np.array([1.0, 0.0]), 1.0)
        assert find_separator(hull, UNIT_SQUARE) is None

    def test_tangent_point_fails_with_margin(self):
        hull = np.array([[1.0, 0.5], [2.0, 0.0], [2.0, 1.0], [1.5, 0.5]])
        # h.q > d must fail for the touching point once a margin is required
        assert not strictly_separates(hull, UNIT_SQUARE, np.array([1.0, 0.0]), 1.0, margin=0.01)

    def test_two_unit_squares_max_margin(self):
        a = np.array([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
        b = ConvexPolygon(a + np.array([10.0, 0.0]))
        h, d = find_separator(a, b)
        # Closest pair (0.5, y) / (9.5, y): gap 9, line at x = 5 pointing at the hull.
        assert h == pytest.approx(np.array([-1.0, 0.0]), abs=1e-12)
        assert d == pytest.approx(-5.0, abs=1e-12)
        assert strictly_separates(a, b, h, d, margin=4.5 - 1e-9)
        assert not strictly_separates(a, b, h, d, margin=4.5 + 1e-9)

    def test_square_vs_far_point_margin_is_half_distance(self):
        tiny = ConvexPolygon(np.array([[10.0, 0.0], [10.2, 0.0], [10.2, 0.2], [10.0, 0.2]]))
        hull = np.array([[0.0, 0.0], [0.0, 0.1], [0.1, 0.1], [0.1, 0.0]])
        dist, _, _ = closest_between_hulls(hull, tiny.vertices)
        h, d = find_separator(hull, tiny)
        assert strictly_separates(hull, tiny, h, d, margin=dist / 2.0 - 1e-9)

    def test_round_trip_and_oracle_agreement(self):
        rng = np.random.default_rng(11)
        n_sep, n_hit = 0, 0
        for _ in range(2000):
            poly = random_polygon(rng, rng.uniform(-5, 5, 2), rng.uniform(0.5, 3.0))
            hull = rng.uniform(-6, 6, (4, 2))
            sep = find_separator(hull, poly)
            intersects = hulls_intersect_oracle(hull, poly.vertices)
            if sep is None:
                n_hit += 1
                assert intersects
            else:
                n_sep += 1
                assert not intersects
                h, d = sep
                assert strictly_separates(hull, poly, h, d, margin=0.0)
        assert n_sep > 200 and n_hit > 200  # both branches exercised


def degenerate_hull(rng, poly):
    """Four hull points with repeats, on one line, or forming a segment that
    touches a polygon vertex (ending at it or passing through it)."""
    kind = int(rng.integers(4))
    if kind == 0:
        distinct = rng.uniform(-6, 6, (int(rng.integers(1, 4)), 2))
        return distinct[rng.integers(0, len(distinct), 4)]
    if kind == 1:
        return rng.uniform(-6, 6, 2) + rng.uniform(-4, 4, (4, 1)) * rng.uniform(-1, 1, 2)
    vertex = poly.vertices[rng.integers(len(poly))]
    u = rng.normal(size=2)
    u /= np.linalg.norm(u)
    back = 0.0 if kind == 2 else rng.uniform(0.1, 2.0)
    return vertex + np.array([[-back], [-back], [1.0], [2.0]]) * u


def brute_force(hulls, polys):
    """The brute-force kernel on each block of _BLOCK pairs, padded alone."""
    parts = [separator_block_oracle(hulls[k:k + _BLOCK], padded_vertices(polys[k:k + _BLOCK]))
             for k in range(0, len(hulls), _BLOCK)]
    return [np.concatenate(part) for part in zip(*parts)]


def assert_equals_brute_force(hulls, polys):
    """find_separators equals the brute-force kernel on the same blocks, bit
    for bit (NaN where no line); returns its found."""
    hulls = np.asarray(hulls, dtype=float)
    got = find_separators(hulls, padded_vertices(polys))
    for have, want in zip(got, brute_force(hulls, polys)):
        assert np.array_equal(have, want, equal_nan=True)
    return got[0]


class TestBatchedSeparators:
    @staticmethod
    def _instances(rng, n, make_hull):
        polys = [random_polygon(rng, rng.uniform(-5, 5, 2), rng.uniform(0.3, 3.0)) for _ in range(n)]
        return np.array([make_hull(rng, p) for p in polys]), polys

    @staticmethod
    def _assert_matches_oracle(hulls, polys):
        assert_equals_brute_force(hulls, polys)
        found, h, d = find_separators(hulls, padded_vertices(polys))
        for m, (hull, poly) in enumerate(zip(hulls, polys)):
            ref = separator_oracle(hull, poly.vertices)
            assert found[m] == (ref is not None), m
            if ref is not None:
                assert np.max(np.abs(h[m] - ref[0])) <= 1e-12, m
                assert abs(d[m] - ref[1]) <= 1e-12 * max(1.0, abs(ref[1])), m
        return found

    def test_random_instances_match_scalar_oracle(self):
        rng = np.random.default_rng(21)
        hulls, polys = self._instances(rng, 10_000, lambda r, p: r.uniform(-6, 6, (4, 2)))
        found = self._assert_matches_oracle(hulls, polys)
        assert 2000 < found.sum() < 8000  # both verdicts exercised

    def test_degenerate_hulls_match_scalar_oracle(self):
        rng = np.random.default_rng(22)
        hulls, polys = self._instances(rng, 2000, degenerate_hull)
        found = self._assert_matches_oracle(hulls, polys)
        assert found.any() and not found.all()

    def test_segment_touching_vertex_has_no_separator(self):
        through = np.array([[0.0, 2.0], [0.0, 2.0], [2.0, 0.0], [2.0, 0.0]])  # passes (1, 1)
        ending = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [1.0, 1.0]])
        found, h, d = find_separators(np.array([through, ending]), padded_vertices([UNIT_SQUARE] * 2))
        assert not found.any()
        assert np.isnan(h).all() and np.isnan(d).all()

    def test_batch_equals_single_calls(self):
        rng = np.random.default_rng(23)
        hulls, polys = self._instances(rng, 500, lambda r, p: r.uniform(-6, 6, (4, 2)))
        found, h, d = find_separators(hulls, padded_vertices(polys))
        for m, (hull, poly) in enumerate(zip(hulls, polys)):
            single = find_separator(hull, poly)
            assert found[m] == (single is not None)
            if single is not None:
                assert np.array_equal(single[0], h[m]) and single[1] == d[m]

    def test_empty_batch(self):
        found, h, d = find_separators(np.zeros((0, 4, 2)), padded_vertices([]))
        assert found.shape == (0,) and h.shape == (0, 2) and d.shape == (0,)

    def test_padding_width_does_not_matter(self):
        # Hulls a tiny gap outside each polygon's closing edge (last vertex to
        # first), with chords parallel to it. There a further zero-length edge
        # at the last vertex can move the closest pair in its last bits, so
        # the padding width matters to the block kernel; padded once for all
        # pairs to the widest polygon and beyond, each block is cut back to
        # the width padded_vertices gives it alone.
        rng = np.random.default_rng(31)
        polys = [random_polygon(rng, rng.uniform(-5, 5, 2), rng.uniform(0.3, 3.0))
                 for _ in range(8 * _BLOCK + 7)]
        hulls = []
        for poly in polys:
            a, b = poly.vertices[-1], poly.vertices[0]
            along = (b - a) / np.linalg.norm(b - a)
            out = np.array([along[1], -along[0]])
            hulls.append(a + 10.0 ** rng.uniform(-12, -2) * out + rng.uniform(-0.3, 0.3, (4, 1)) * along
                         + rng.uniform(0.0, 2.0) * np.array([[0.0], [0.0], [1.0], [1.0]]) * out)
        hulls = np.array(hulls)
        want = brute_force(hulls, polys)
        verts = padded_vertices(polys)
        assert verts.shape[1] > min(len(p) for p in polys)
        for extra in (0, 1, 3):
            wide = np.concatenate([verts, np.repeat(verts[:, -1:], extra, axis=1)], axis=1)
            for have, expected in zip(find_separators(hulls, wide), want):
                assert np.array_equal(have, expected, equal_nan=True)
        uncut = [np.concatenate(part) for part in zip(*(
            _separator_block(hulls[k:k + _BLOCK], wide[k:k + _BLOCK]) for k in range(0, len(hulls), _BLOCK)))]
        assert not all(np.array_equal(u, w, equal_nan=True) for u, w in zip(uncut, want))

def tangent_hull(rng, poly, gap):
    """Four hull points: one gap outside an edge of poly or outside one of
    its vertices, the others spread from it along and away from that edge."""
    n = len(poly)
    k = int(rng.integers(n))
    a, b = poly.vertices[k], poly.vertices[(k + 1) % n]
    along = (b - a) / np.linalg.norm(b - a)
    out = np.array([along[1], -along[0]])
    if rng.integers(2):
        base, normal = a + rng.uniform(0.1, 0.9) * (b - a), out
    else:
        prev = poly.vertices[k - 1]
        back = (a - prev) / np.linalg.norm(a - prev)
        w = rng.uniform()
        normal = w * out + (1.0 - w) * np.array([back[1], -back[0]])
        base, normal = a, normal / np.linalg.norm(normal)
    spread = rng.uniform(-2.0, 2.0, (4, 1)) * along + rng.uniform(0.0, 2.0, (4, 1)) * normal
    spread[0] = 0.0
    if rng.integers(2):
        spread[1] = rng.uniform(0.5, 2.0) * along   # a chord parallel to the edge
    return base + gap * normal + spread


class TestScreenedKernel:
    """The screened kernel against the brute-force one, with no tolerance."""

    def test_near_tangent_gaps(self):
        rng = np.random.default_rng(24)
        for gap in np.logspace(-9, -6, 7):
            polys = [random_polygon(rng, rng.uniform(-5, 5, 2), rng.uniform(0.3, 3.0))
                     for _ in range(300)]
            found = assert_equals_brute_force([tangent_hull(rng, p, gap) for p in polys], polys)
            assert found.any() and not found.all()

    def test_nan_hull(self):
        hulls = np.array([[[2.0, 0.0], [3.0, 0.0], [np.nan, 1.0], [3.0, 1.0]],
                          [[2.0, 0.0], [3.0, 0.0], [3.0, 1.0], [2.0, 1.0]]])
        found = assert_equals_brute_force(hulls, [UNIT_SQUARE, UNIT_SQUARE])
        assert found.tolist() == [False, True]

    def test_far_and_touching_pairs_in_one_batch(self):
        rng = np.random.default_rng(25)
        polys = [random_polygon(rng, rng.uniform(-5, 5, 2), rng.uniform(0.3, 3.0))
                 for _ in range(2 * _BLOCK + 7)]
        hulls = []
        for m, poly in enumerate(polys):
            if m % 3 == 0:      # far: a box's diagonal away
                hulls.append(rng.uniform(-6, 6, (4, 2)) + rng.choice([-1.0, 1.0], 2) * 1e3)
            elif m % 3 == 1:    # touching a vertex or an edge point
                on = poly.vertices[int(rng.integers(len(poly)))] if m % 2 else poly.vertices[:2].mean(axis=0)
                hulls.append(on + rng.uniform(-3, 3, (4, 2)) * [[0.0], [1.0], [1.0], [1.0]])
            else:
                hulls.append(rng.uniform(-6, 6, (4, 2)))
        found = assert_equals_brute_force(np.array(hulls), polys)
        assert found[::3].all() and not found[1::3].all()

    def test_inflated_polygons_far_near_and_around(self):
        # The long-run obstacles inflated to 16- and 20-gons. Far hulls leave
        # the edge screen the polygon's far side to prune; hulls a tiny gap
        # outside an edge or a vertex keep the edges near it; hulls round the
        # polygon's box meet every edge's box, so it keeps them all.
        polys = load_scenario("long-run").workspace.inflated_obstacles()
        assert sorted(len(p) for p in polys) == [16, 16, 20, 20]
        rng = np.random.default_rng(27)
        hulls, pair_polys = [], []
        for poly in polys:
            lo, hi = poly.vertices.min(axis=0), poly.vertices.max(axis=0)
            corners = np.array([lo, [hi[0], lo[1]], hi, [lo[0], hi[1]]])
            size = float((hi - lo).max())
            for _ in range(30):
                u = rng.normal(size=2)
                far = poly.centroid() + size * (1.5 * u / np.linalg.norm(u) + rng.uniform(-0.2, 0.2, (4, 2)))
                near = tangent_hull(rng, poly, 10.0 ** rng.uniform(-9, -3))
                around = corners + rng.uniform(0.0, 1.0, (4, 2)) * [[-1, -1], [1, -1], [1, 1], [-1, 1]]
                hulls += [far, near, around]
                pair_polys += [poly] * 3
        hulls = np.array(hulls)
        found = assert_equals_brute_force(hulls, pair_polys)
        assert found[0::3].all() and found[1::3].any() and not found[2::3].any()

    def test_benchmark_plan_and_cold_start_pairs(self, monkeypatch):
        # Every batch the solver sends to the kernel on the inputs of
        # `perfbench/run.py --seed 7` for plan (12) and cold-start (6).
        batches = []
        real = trajopt.find_separators

        def checked(hulls, verts):
            batches.append(len(verts))
            got = real(hulls, verts)
            for have, want in zip(got, separator_block_oracle(hulls, verts)):
                assert np.array_equal(have, want, equal_nan=True)
            return got

        monkeypatch.setattr(trajopt, "find_separators", checked)
        seeds = [int(np.random.SeedSequence([7, i]).generate_state(1)[0]) for i in range(12)]
        for seed in seeds:
            harness.plan_and_solve(load_scenario("long-run").with_seed(seed))
        for seed in seeds[:6]:
            scenario = load_scenario("trajectory-demo").with_seed(seed)
            path = rrt.plan(scenario.planner_workspace(), scenario.start.position,
                            scenario.goal, scenario.planner)
            problem = harness.make_problem(scenario, path, w1=0.0, init="line")
            problem.max_outer = 4
            trajopt.solve(problem)
        assert len(batches) > 50 and max(batches) <= _BLOCK


class TestDistances:
    def test_point_distance_and_batch_agree(self):
        rng = np.random.default_rng(8)
        obstacles = [random_polygon(rng, rng.uniform(-5, 5, 2), rng.uniform(0.5, 2.0))
                     for _ in range(3)]
        pts = rng.uniform(-8, 8, (200, 2))
        batch = distances_to_obstacles(pts, obstacles)
        for p, b in zip(pts, batch):
            assert min_distance_to_obstacles(p, obstacles) == pytest.approx(b, abs=1e-9)

    def test_no_obstacles_infinite(self):
        assert distances_to_obstacles(np.zeros((3, 2)), []).tolist() == [math.inf] * 3
        assert min_distance_to_obstacles((0, 0), []) == math.inf


class TestWorkspace:
    def test_obstacle_outside_bounds_rejected(self):
        with pytest.raises(ValueError):
            Workspace(bounds=(0.0, 0.0, 0.5, 0.5), obstacles=[UNIT_SQUARE], clearance=0.5)

    def test_inflation_cache(self):
        ws = Workspace(bounds=(-10, -10, 10, 10),
                       obstacles=[ConvexPolygon(np.array([[0, 0], [2, 0], [2, 2], [0, 2.0]]))],
                       clearance=1.0)
        assert ws.inflated_obstacles() is ws.inflated_obstacles()


class TestHullOracleHelpers:
    def test_point_in_hull_degenerate(self):
        assert point_in_hull((1.0, 1.0), np.array([[1.0, 1.0]]))
        assert not point_in_hull((1.0, 1.1), np.array([[1.0, 1.0]]))
        seg = np.array([[0.0, 0.0], [2.0, 0.0]])
        assert point_in_hull((1.0, 0.0), seg)
        assert not point_in_hull((3.0, 0.0), seg)
