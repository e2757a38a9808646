"""Brute-force oracles, independent of the library's projection and excess
code paths: dense-grid distance minimization, local window refinement, exact
distances to polygons, balls and ball complements, the scalar play closed
form, and boundary-sampling excess.

Membership tests are re-implemented here directly from shape parameters so
the oracles share nothing with the code under test.  The one exception is the
frozen polytope projection (reference_polytope_solve), a reference for
rounding rather than an oracle for distance: it keeps an earlier form of the
library's active-set solve, which the current one must match bit for bit.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from sweepsolve.errors import DidNotConverge
from sweepsolve.geometry import norm


def grid(domain, n):
    (x0, y0), (x1, y1) = domain
    xs = np.linspace(x0, x1, n)
    ys = np.linspace(y0, y1, n)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    spacing = max((x1 - x0), (y1 - y0)) / (n - 1)
    return X, Y, spacing


def halfspace_mask(X, Y, a, b):
    return a[0] * X + a[1] * Y <= b


def ball_mask(X, Y, c, R):
    return (X - c[0]) ** 2 + (Y - c[1]) ** 2 <= R * R


def box_mask(X, Y, lo, hi):
    return (X >= lo[0]) & (X <= hi[0]) & (Y >= lo[1]) & (Y <= hi[1])


def polytope_mask(X, Y, faces):
    mask = np.ones_like(X, dtype=bool)
    for a, b in faces:
        mask &= halfspace_mask(X, Y, a, b)
    return mask


def polytope_member(faces):
    """Pointwise membership in the intersection of the half-planes <a, x> <= b,
    up to 1e-12.  Points a search steps along a face lie on it only up to
    rounding; without the slack, refine_local on the face x + y <= 1 from
    y = (1.58203125, 0.990234375) stalls 8e-7 above the exact distance."""
    return lambda c: all(a[0] * c[0] + a[1] * c[1] <= b + 1e-12 for a, b in faces)


def complement_mask(X, Y, c, R):
    return (X - c[0]) ** 2 + (Y - c[1]) ** 2 >= R * R


TRIANGLE_FACES = (((-1.0, 0.0), 0.0), ((0.0, -1.0), 0.0), ((1 / math.sqrt(2), 1 / math.sqrt(2)), 1 / math.sqrt(2)))


def grid_min_distance(mask, X, Y, y):
    """Distance and argmin member grid point."""
    d2 = (X - y[0]) ** 2 + (Y - y[1]) ** 2
    d2m = np.where(mask, d2, np.inf)
    idx = np.unravel_index(int(np.argmin(d2m)), d2m.shape)
    return math.sqrt(float(d2m[idx])), np.array([X[idx], Y[idx]])


def refine_local(member_fn, y, p0, window, iters=40):
    """Shrinking-window 9x9 search for the member nearest to y, seeded at p0.

    Its reach is limited.  The seed moves at most 2*window along each axis in
    all, and on a face that is neither axis-aligned nor at 45 degrees the
    stencil points along the face fall outside the set, so the search can
    stop short of the nearest point: on the face -0.2x + y <= 0.5, seeded at
    the grid argmin for y = (-1, 2), it does not improve on the seed and ends
    7e-4 above the exact distance.  Use polygon_distance for exact distances
    to polygons.
    """
    p = np.asarray(p0, float)
    best = math.dist(p, y)
    offsets = np.array([(i, j) for i in range(-4, 5) for j in range(-4, 5)], float) / 4.0
    for _ in range(iters):
        cands = p + window * offsets
        for c in cands:
            if member_fn(c):
                d = math.dist(c, y)
                if d < best:
                    best, p = d, c
        window *= 0.5
    return best, p


def polygon_distance(faces, y):
    """Exact distance from y to the 2-D convex polyhedron {x: <a, x> <= b}.

    y is a member, at distance 0, when every <a, y> <= b holds in exact
    rational arithmetic (fractions.Fraction of the stored floats).  Else the
    nearest point is the foot of y on one face line or a vertex where two face
    lines cross, so the distance is the smallest over those candidates that
    satisfy every face up to rounding (1e-12, relative to the scale of the face
    and the candidate): a computed foot or crossing is itself rounded.

    It computes in Python floats, which overflow to inf without a warning:
    two nearly parallel face lines cross near 1e269 or beyond, and a crossing
    that is not finite is no candidate.
    """
    y = tuple(float(v) for v in y)
    lines = [(tuple(float(v) for v in a), float(b)) for a, b in faces]
    if all(map(math.isfinite, y)) and all(
            Fraction(a[0]) * Fraction(y[0]) + Fraction(a[1]) * Fraction(y[1]) <= Fraction(b)
            for a, b in lines):
        return 0.0

    def feasible(c):
        return all(a[0] * c[0] + a[1] * c[1] - b
                   <= 1e-12 * (1.0 + abs(b) + math.hypot(*a) * math.hypot(*c))
                   for a, b in lines)

    candidates = []
    for a, b in lines:
        step = (a[0] * y[0] + a[1] * y[1] - b) / (a[0] * a[0] + a[1] * a[1])
        candidates.append((y[0] - step * a[0], y[1] - step * a[1]))
    for i, (a1, b1) in enumerate(lines):
        for a2, b2 in lines[i + 1:]:
            det = a1[0] * a2[1] - a1[1] * a2[0]
            if det != 0.0:
                candidates.append(((b1 * a2[1] - b2 * a1[1]) / det, (a1[0] * b2 - a2[0] * b1) / det))
    finite = (c for c in candidates if math.isfinite(c[0]) and math.isfinite(c[1]))
    return min((math.dist(c, y) for c in finite if feasible(c)), default=math.inf)


def play_sweep(t):
    """Closed form of the unit-speed half-space sweep started at the origin."""
    return np.array([min(0.0, 1.0 - t), 0.0])


def ball_excess_boundary_oracle(cA, RA, cB, RB, n=10_000):
    """Max distance from A's boundary circle to the ball B (the excess of a
    ball is attained on its boundary)."""
    angles = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    pts = np.stack([cA[0] + RA * np.cos(angles), cA[1] + RA * np.sin(angles)], axis=1)
    d = np.linalg.norm(pts - np.asarray(cB, float), axis=1) - RB
    return float(np.max(np.maximum(d, 0.0)))


def complement_excess_grid_oracle(cA, RA, cB, RB, domain, n=801):
    """Max depth of the excluded-ball complement A inside the excluded ball of
    B, over a dense member grid (exact distance to a complement is analytic)."""
    X, Y, _ = grid(domain, n)
    mask = complement_mask(X, Y, cA, RA)
    depth = RB - np.sqrt((X - cB[0]) ** 2 + (Y - cB[1]) ** 2)
    depth = np.where(mask, np.maximum(depth, 0.0), 0.0)
    return float(np.max(depth))


def ball_distance(c, R, y):
    """Exact distance from y to the closed ball of center c and radius R."""
    return max(math.dist(c, y) - R, 0.0)


def complement_distance(c, R, y):
    """Exact distance from y to the complement of the open ball B_R(c)."""
    return max(R - math.dist(c, y), 0.0)


def polygon_boundary(vertices, per_edge=64):
    """Points along the closed polygon through vertices, the vertices included:
    per_edge evenly spaced points on each edge, its start among them."""
    v = np.asarray(vertices, float)
    s = np.linspace(0.0, 1.0, per_edge, endpoint=False)[:, None]
    return np.concatenate([a + s * (b - a) for a, b in zip(v, np.roll(v, -1, axis=0))])


def circle(c, R, n=1440):
    """n evenly spaced points on the circle of center c and radius R.  The
    excess of the disk over a convex set is attained on the circle, so their
    cloud_excess falls short of it by at most the gap pi*R/n to the nearest
    point, distances being 1-Lipschitz."""
    angles = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return np.column_stack([c[0] + R * np.cos(angles), c[1] + R * np.sin(angles)])


def cloud_excess(points, distance):
    """Max of distance over points of A: a lower bound of the excess of A,
    equal to it when the points include where the supremum is attained."""
    return max(distance(p) for p in points)


# The polytope projection as Polytope._solve wrote it with a separate KKT
# check (_certify) after the loop, the slack at every pass from its own
# A x - b, each check a numpy reduction, and the distance recomputed from the
# returned point.  Factors are made afresh per pass, as the solve's cache
# makes them once.
_SPAN_EPS = 64 * np.finfo(float).eps
_CONTAINMENT_TOL = 1e-10


def _reference_faces(A, work):
    Aw = A[list(work)]
    Q, R = np.linalg.qr(Aw.T)
    diag = np.abs(np.diag(R))
    if len(work) and diag.min() <= _SPAN_EPS * diag.max():
        raise DidNotConverge(f"faces {list(work)} are numerically dependent")
    Rinv = np.linalg.inv(R)
    return Aw, np.eye(A.shape[1]) - Q @ Q.T, Rinv @ Q.T, Q @ Rinv.T


def _reference_certify(A, b, y, x, Aw, bw, lam):
    infeasible = float((A @ x - b).max())
    off_face = float(np.abs(Aw @ x - bw).max(initial=0.0))
    stationarity = norm(y - x - lam @ Aw)
    if (infeasible > _CONTAINMENT_TOL or off_face > _CONTAINMENT_TOL
            or stationarity > _CONTAINMENT_TOL * max(1.0, norm(y - x))):
        raise DidNotConverge("projection failed its KKT check")


def reference_polytope_solve(A, b, x, max_steps, y):
    """(x, W, lam): the nearest point of {A x <= b} to y from the start x, its
    working faces and their multipliers, or DidNotConverge."""
    work: list = []
    for _ in range(max_steps):
        Aw, N, M, P = _reference_faces(A, tuple(work))
        r = y - x
        step = N @ r
        rate = A @ step
        floor = _SPAN_EPS * math.sqrt(float(r @ r))
        alpha, blocking = 1.0, -1
        for i, (rate_i, slack_i) in enumerate(zip(rate.tolist(), (b - A @ x).tolist())):
            if rate_i > floor and i not in work:
                ratio = max(slack_i, 0.0) / rate_i
                if ratio < alpha:
                    alpha, blocking = ratio, i
        if blocking >= 0:
            x = x + alpha * step
            work.append(blocking)
            continue
        x, bw = x + step, b[work]
        x = x - P @ (Aw @ x - bw)
        lam = M @ (y - x)
        if (lam >= 0.0).all():
            _reference_certify(A, b, y, x, Aw, bw, lam)
            return x, tuple(work), lam
        del work[int(np.argmin(lam))]
    raise DidNotConverge(f"active-set projection exceeded {max_steps} steps")


def reference_polytope_project(A, b, x, max_steps, y, tol):
    """(projection, distance) of y: y itself where max(A y - b) <= tol."""
    if float((A @ y - b).max()) <= tol:
        return y.copy(), 0.0
    p = reference_polytope_solve(A, b, x, max_steps, y)[0]
    return p, norm(y - p)
