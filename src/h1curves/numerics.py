"""Shared numerical kernels: quadrature, finite differences, 1-d minimization.

Everything here operates on plain numpy arrays over uniform grids; the
geometry modules wrap these in function objects.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "cumulative_simpson",
    "MAX_PANELS",
    "ANTIDERIVATIVE_PANELS",
    "panel_count",
    "require_finite",
    "step_grid",
    "fd4_first",
    "FD4_CENTRED",
    "fd4_second",
    "golden_section",
    "lowest_local_minima",
    "minimize_brackets",
]


MAX_PANELS = 1_000_000  # budget of every grid built from a (span, step) request
ANTIDERIVATIVE_PANELS = 10_000  # panels of a closed form's grid over its interval


def panel_count(span: float, step: float, minimum: int = 2) -> int:
    """ceil(span/step), at least ``minimum``; a step that is not positive and
    finite, or a request above MAX_PANELS (or not finite), raises ValueError
    before anything is allocated."""
    if not 0.0 < step < math.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    n = span / step
    if not n <= MAX_PANELS:
        raise ValueError(f"grid of {n:.0f} panels requested (span {span:g} / step "
                         f"{step:g}) exceeds the limit of {MAX_PANELS}")
    return max(minimum, math.ceil(n))


def step_grid(lo: float, hi: float, step: float) -> np.ndarray:
    """The uniform grid over [lo, hi] at about ``step``: ceil((hi - lo)/step)
    panels, at least 4, so every table has at least 5 rows; a request over
    budget is refused by ``panel_count``."""
    return np.linspace(lo, hi, panel_count(hi - lo, step, minimum=4) + 1)


def require_finite(grid=None, variable: str = "s", **values):
    """Raise ValueError naming the first of ``values`` that is not finite:
    a parameter, or samples on ``grid``, a 1-d array of the ``variable``
    (several columns stack along the first axis), located at the first
    node where one is not finite."""
    for name, value in values.items():
        finite = np.isfinite(value)
        if not np.all(finite):
            if grid is None:
                raise ValueError(f"{name} must be finite, got {value}")
            bad = grid[np.argmin(finite.reshape(-1, len(grid)).all(axis=0))]
            raise ValueError(f"{name}: not finite near {variable} = {bad}")


def cumulative_simpson(y, dx: float) -> np.ndarray:
    """Integral of the samples ``y`` (spacing ``dx``) from the first node to
    every node, starting at 0: the equal-interval cumulative Simpson rule
    (K. V. Cartwright, J. Math. Sci. Math. Educ. 12(2), 2017).

    Each interval gets the integral of the parabola through three
    neighbouring samples: dx/12 (5 y[i] + 8 y[i+1] - y[i+2]) for an even
    interval i, mirrored as dx/12 (-y[i-1] + 8 y[i] + 5 y[i+1]) for an odd
    one and for the last; the sums are accumulated.  An even and an odd
    interval together make composite Simpson, so every even node is exact
    on cubics, while an odd node carries the one-interval error
    dx^4 y'''/24.  Every node is exact on quadratics, for even and odd
    panel counts alike.  Equal samples give equal pieces, and node i gets
    exactly i times that piece, which a running sum would drift from."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size < 3:
        raise ValueError("need at least 3 samples for cumulative Simpson")
    w = dx / 3.0
    forward = w * (1.25 * y[:-2] + 2.0 * y[1:-1] - 0.25 * y[2:])
    if np.all(y == y[0]):
        return np.concatenate([[0.0], np.arange(1, y.size) * forward[0]])
    backward = w * (1.25 * y[2:] + 2.0 * y[1:-1] - 0.25 * y[:-2])
    pieces = np.empty(y.size)
    pieces[0] = 0.0
    pieces[1:-1:2] = forward[::2]
    pieces[2::2] = backward[::2]
    pieces[-1] = backward[-1]
    return np.cumsum(pieces)


def fd_weights(offsets, deriv: int) -> np.ndarray:
    """Finite-difference weights for the given derivative order on integer
    node offsets (in units of the grid step), by solving the Taylor-moment
    system; divide by h**deriv at use."""
    offsets = np.asarray(offsets, dtype=float)
    n = offsets.size
    A = np.vander(offsets, n, increasing=True).T
    scale = np.cumprod(np.concatenate([[1.0], np.arange(1.0, n)]))
    A = A / scale[:, None]
    b = np.zeros(n)
    b[deriv] = 1.0
    return np.linalg.solve(A, b)


# Interior stencils are classical 4th-order central differences; edge rows
# use wider one-sided stencils (solved above) whose truncation constants
# would otherwise dominate the error near the boundary.
_FD1_LEFT = np.array([fd_weights(np.arange(6), 1), fd_weights(np.arange(6) - 1, 1)])
_FD2_LEFT = np.array([fd_weights(np.arange(8), 2), fd_weights(np.arange(8) - 1, 2)])


# The nodes where fd4_first's stencil is centred.  A residual is read there:
# the one-sided edge stencils turn an alternating O(h^4) error in the values,
# as at cumulative Simpson's odd nodes, into O(h^3).
FD4_CENTRED = slice(2, -2)


def fd4_first(values: np.ndarray, h: float) -> np.ndarray:
    """First derivative on a uniform grid, 4th-order accurate (5th at the
    edges)."""
    v = np.asarray(values, dtype=float)
    if v.size < 6:
        raise ValueError("need at least 6 samples for 4th-order differences")
    out = np.empty_like(v)
    out[2:-2] = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (12.0 * h)
    out[0] = _FD1_LEFT[0] @ v[:6] / h
    out[1] = _FD1_LEFT[1] @ v[:6] / h
    out[-1] = -(_FD1_LEFT[0] @ v[-1:-7:-1]) / h
    out[-2] = -(_FD1_LEFT[1] @ v[-1:-7:-1]) / h
    return out


def fd4_second(values: np.ndarray, h: float) -> np.ndarray:
    """Second derivative on a uniform grid, 4th-order accurate (6th at the
    edges)."""
    v = np.asarray(values, dtype=float)
    if v.size < 8:
        raise ValueError("need at least 8 samples for 4th-order differences")
    out = np.empty_like(v)
    out[2:-2] = (
        -v[:-4] + 16.0 * v[1:-3] - 30.0 * v[2:-2] + 16.0 * v[3:-1] - v[4:]
    ) / (12.0 * h * h)
    h2 = h * h
    out[0] = _FD2_LEFT[0] @ v[:8] / h2
    out[1] = _FD2_LEFT[1] @ v[:8] / h2
    out[-1] = _FD2_LEFT[0] @ v[-1:-9:-1] / h2
    out[-2] = _FD2_LEFT[1] @ v[-1:-9:-1] / h2
    return out


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_points(a, b):
    """The two golden-section interior points of [a, b]."""
    return b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)


def golden_section(f, a, b, tol: float = 1e-10):
    """Minimize f on every bracket [a, b] at once; returns (x_min, f_min),
    the lowest point f was evaluated at in each bracket: of equal values
    the earlier evaluation, and a NaN value only where every one is NaN.

    ``a`` and ``b`` are arrays of one shape (scalars work as 0-d arrays),
    each pair a bracket of a unimodal function.  ``f`` takes an array of
    that shape and returns the values elementwise, so every iteration makes
    exactly one call for all brackets.  The iteration count is fixed from
    the widest bracket, ceil(log(tol/width)/log(1/phi)), which leaves every
    bracket narrower than ``tol``; its midpoint is evaluated last.  So
    every run makes the same number of calls and its output is
    deterministic."""
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    width = float(np.max(b - a, initial=0.0))
    n_iter = math.ceil(math.log(tol / width) / math.log(_INV_PHI)) if width > tol else 0
    x1, x2 = _golden_points(a, b)
    f1, f2 = f(x1), f(x2)
    seen_t, seen_f = [x1, x2], [f1, f2]
    for _ in range(n_iter):
        # f1 <= f2 keeps [a, x2] and moves x1 into x2's place; otherwise
        # [x1, b] is kept and x2 moves into x1's place
        left = f1 <= f2
        a, b = np.where(left, a, x1), np.where(left, x2, b)
        x_kept, f_kept = np.where(left, x1, x2), np.where(left, f1, f2)
        x_new = np.where(left, *_golden_points(a, b))
        f_new = f(x_new)
        seen_t.append(x_new)
        seen_f.append(f_new)
        x1, x2 = np.where(left, x_new, x_kept), np.where(left, x_kept, x_new)
        f1, f2 = np.where(left, f_new, f_kept), np.where(left, f_kept, f_new)
    x = 0.5 * (a + b)
    (x,), (fx,) = _lowest_rows(np.array([*seen_t, x]), np.array([*seen_f, f(x)]), 1)
    return x, fx


def lowest_local_minima(values, k: int):
    """The at most ``k`` lowest candidate minima of every row of ``values``:
    the interior entries no larger than either neighbour, and the two ends,
    finite ones only.  Returns (rows, cols) ordered by row, then by (value,
    column), so ties go to the lower column."""
    v = np.asarray(values, dtype=float)
    candidate = np.ones(v.shape, dtype=bool)
    np.logical_and(v[:, 1:-1] <= v[:, :-2], v[:, 1:-1] <= v[:, 2:], out=candidate[:, 1:-1])
    rows, cols = np.divmod(np.flatnonzero(candidate), v.shape[1])
    value = v[rows, cols]
    finite = np.isfinite(value)
    rows, cols, value = rows[finite], cols[finite], value[finite]
    order = np.lexsort((cols, value, rows))
    rows, cols = rows[order], cols[order]
    keep = np.arange(rows.size) - np.searchsorted(rows, rows) < k
    return rows[keep], cols[keep]


def _parabola_vertex(t, ft):
    """Vertex of the parabola through the points t[0], t[1], t[2] (rows)
    with values ft; t[0] where they fix none (collinear or repeated) or its
    terms pass the float range."""
    (x, w, v), (fx, fw, fv) = t, ft
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r = (x - w) * (fx - fv)
        q = (x - v) * (fx - fw)
        u = x - ((x - v) * q - (x - w) * r) / (2.0 * (q - r))
    return np.where(np.isfinite(u), u, x)


def _lowest_rows(t, ft, k: int):
    """The k lowest of the points t (one row per point, one column per
    bracket) with values ft, in increasing value; a NaN value sorts last,
    and of equal values the earlier row comes first."""
    order = np.argsort(ft, axis=0, kind="stable")[:k]
    return np.take_along_axis(t, order, 0), np.take_along_axis(ft, order, 0)


def minimize_brackets(f, a, b, known, tol: float, steps: int, roundoff):
    """Minimize on every bracket [a[i], b[i]] of a function unimodal there;
    returns (x, f(x)) at the lowest point evaluated in each bracket.

    ``f(t, i)`` gives the objective of brackets ``i`` (an index array) at
    the points ``t``.  ``known`` is a pair (t, f(t)) of arrays with one
    column per bracket: points already evaluated, such as the grid nodes a
    bracket came from; they count as evaluated, so a minimum at an end of a
    bracket is found exactly.  With the two golden-section points of [a, b]
    they start successive parabolic interpolation through the three lowest
    points so far, each step clipped to [a, b] (R. P. Brent, *Algorithms
    for Minimization without Derivatives*, 1973, ch. 5), for at most
    ``steps`` steps and none onto the lowest point; a step under ``tol`` is
    the last, and is taken, as the error it leaves is far smaller.  A
    bracket is settled when neither f(x - tol) nor f(x + tol) lies below
    f(x) by more than ``roundoff(f(x))``, the rounding error of f near x.
    Any other bracket (a kink near the minimum, say) is searched again by
    ``golden_section`` from [a, b] to ``tol``, as a search with no
    parabolic stage would, so no bracket ends less refined.  Each call of f
    takes every bracket, or every one still moving, at once."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    every = moving = np.arange(a.size)
    inner = np.stack(_golden_points(a, b))
    f_inner = f(inner.ravel(), np.tile(every, 2)).reshape(inner.shape)
    t, ft = _lowest_rows(np.vstack([known[0], inner]), np.vstack([known[1], f_inner]), 3)
    for _ in range(steps):
        x = t[0, moving]
        u = np.clip(_parabola_vertex(t[:, moving], ft[:, moving]), a[moving], b[moving])
        taken = u != x  # a step onto x itself learns nothing
        moving, u, step = moving[taken], u[taken], np.abs(u - x)[taken]
        if not moving.size:
            break
        t[:, moving], ft[:, moving] = _lowest_rows(
            np.vstack([t[:, moving], u]), np.vstack([ft[:, moving], f(u, moving)]), 3)
        moving = moving[step >= tol]
    x, fx = t[0], ft[0]
    sides = np.maximum(x - tol, a), np.minimum(x + tol, b)
    side_f = np.split(f(np.concatenate(sides), np.tile(every, 2)), 2)
    unsettled = np.flatnonzero(~(np.minimum(*side_f) >= fx - roundoff(fx)))
    # x is the lowest point so far, so of equal values it is kept
    (x,), (fx,) = _lowest_rows(np.array([x, *sides]), np.array([fx, *side_f]), 1)
    if unsettled.size:
        gx, gf = golden_section(lambda t: f(t, unsettled), a[unsettled], b[unsettled], tol=tol)
        (x[unsettled],), (fx[unsettled],) = _lowest_rows(
            np.array([x[unsettled], gx]), np.array([fx[unsettled], gf]), 1)
    return x, fx
