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
ANTIDERIVATIVE_PANELS = 10_000  # panels of a closed form's antiderivatives over its interval


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
    panel counts alike."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.size < 3:
        raise ValueError("need at least 3 samples for cumulative Simpson")
    w = dx / 3.0
    forward = w * (1.25 * y[:-2] + 2.0 * y[1:-1] - 0.25 * y[2:])
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


def golden_section(f, a, b, tol: float = 1e-10):
    """Minimize f on every bracket [a, b] at once; returns (x_min, f_min).

    ``a`` and ``b`` are arrays of one shape (scalars work as 0-d arrays),
    each pair a bracket of a unimodal function.  ``f`` takes an array of
    that shape and returns the values elementwise, so every iteration makes
    exactly one call for all brackets.  The iteration count is fixed from
    the widest bracket, ceil(log(tol/width)/log(1/phi)), which leaves every
    bracket narrower than ``tol``, makes the same number of calls on every
    run and keeps the output deterministic."""
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    width = float(np.max(b - a, initial=0.0))
    n_iter = math.ceil(math.log(tol / width) / math.log(inv_phi)) if width > tol else 0
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(n_iter):
        # f1 <= f2 keeps [a, x2] and moves x1 into x2's place; otherwise
        # [x1, b] is kept and x2 moves into x1's place
        left = f1 <= f2
        a = np.where(left, a, x1)
        b = np.where(left, x2, b)
        x_kept = np.where(left, x1, x2)
        f_kept = np.where(left, f1, f2)
        x_new = np.where(left, b - inv_phi * (b - a), a + inv_phi * (b - a))
        f_new = f(x_new)
        x1, x2 = np.where(left, x_new, x_kept), np.where(left, x_kept, x_new)
        f1, f2 = np.where(left, f_new, f_kept), np.where(left, f_kept, f_new)
    x = 0.5 * (a + b)
    return x, f(x)


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
    with values ft; t[0] where they fix none (collinear or repeated)."""
    (x, w, v), (fx, fw, fv) = t, ft
    with np.errstate(divide="ignore", invalid="ignore"):
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


def minimize_brackets(f, a, b, known, tol: float, coarse_tol: float, steps: int, roundoff):
    """Minimize on every bracket [a[i], b[i]] of a function unimodal there;
    returns (x, f(x)) at the lowest point evaluated in each bracket.

    ``f(t, i)`` gives the objective of brackets ``i`` (an index array) at
    the points ``t``.  ``known`` is a pair (t, f(t)) of arrays with one
    column per bracket: points already evaluated, such as the grid nodes a
    bracket came from; they count as evaluated, so a minimum at an end of a
    bracket is found exactly.  ``golden_section`` first narrows every
    bracket to ``coarse_tol``; ``steps`` steps of successive parabolic
    interpolation through the three lowest points so far, each clipped to
    [a, b] and at least ``tol`` long, then finish it (R. P. Brent,
    *Algorithms for Minimization without Derivatives*, 1973, ch. 5).  A
    bracket is settled when neither f(x - tol) nor f(x + tol) lies below
    f(x) by more than ``roundoff(f(x))``, the rounding error of f near x.
    Any other bracket (a kink near the minimum, say) is searched again by
    ``golden_section`` from [a, b] to ``tol``, as a search with no
    parabolic stage would, so no bracket ends less refined.  Each call of f
    takes every bracket, or every unsettled one, at once."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.size
    every = np.arange(n)
    seen_t, seen_f = list(known[0]), list(known[1])  # one row per evaluation

    def recorded(t, i=every):
        ft = f(t, i)
        row_t, row_f = np.full(n, np.nan), np.full(n, np.inf)
        row_t[i], row_f[i] = t, ft
        seen_t.append(row_t)
        seen_f.append(row_f)
        return ft

    golden_section(recorded, a, b, tol=coarse_tol)
    t, ft = _lowest_rows(np.array(seen_t), np.array(seen_f), 3)
    for _ in range(steps):
        # a step shorter than tol is lengthened to tol: values that close to
        # x differ by rounding alone and would only steer the next parabola
        x, u = t[0], _parabola_vertex(t, ft)
        u = np.clip(np.where(np.abs(u - x) < tol, x + np.copysign(tol, u - x), u), a, b)
        t, ft = _lowest_rows(np.vstack([t, u]), np.vstack([ft, f(u, every)]), 3)
    x, fx = t[0], ft[0]
    sides = np.maximum(x - tol, a), np.minimum(x + tol, b)
    side_f = np.split(f(np.concatenate(sides), np.concatenate([every, every])), 2)
    unsettled = np.flatnonzero(~(np.minimum(*side_f) >= fx - roundoff(fx)))
    # x is the lowest point so far: the record starts again from it
    seen_t[:], seen_f[:] = [x, *sides], [fx, *side_f]
    if unsettled.size:
        golden_section(lambda t: recorded(t, unsettled), a[unsettled], b[unsettled], tol=tol)
    (x,), (fx,) = _lowest_rows(np.array(seen_t), np.array(seen_f), 1)
    return x, fx
