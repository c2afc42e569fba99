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
    "panel_count",
    "uniform_grid",
    "fd4_first",
    "fd4_second",
    "golden_section",
]


MAX_PANELS = 1_000_000  # budget of every grid built from a (span, step) request


def panel_count(span: float, step: float, minimum: int = 2) -> int:
    """ceil(span/step), at least ``minimum``; a request above MAX_PANELS
    (or not finite) raises ValueError before anything is allocated."""
    n = span / step
    if not n <= MAX_PANELS:
        raise ValueError(f"grid of {n:.0f} panels requested (span {span:g} / step "
                         f"{step:g}) exceeds the limit of {MAX_PANELS}")
    return max(minimum, math.ceil(n))


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


def uniform_grid(a: float, b: float, n_panels: int) -> np.ndarray:
    """Uniform grid with n_panels+1 nodes (n_panels is made even for Simpson)."""
    if not b > a:
        raise ValueError(f"degenerate interval [{a}, {b}]")
    n = max(2, int(n_panels))
    if n % 2:
        n += 1
    return np.linspace(a, b, n + 1)


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
