import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "geometry",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("geometry")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def sampled_fields(monkeypatch):
    """The SampledFields built while the test runs."""
    from h1curves.fields import SampledField

    built = []
    original = SampledField.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(SampledField, "__init__", counting)
    return built


def random_invariant_exprs(rng, kappa_nonzero=False):
    """Random smooth kappa/tau expression pair, tame amplitudes and
    frequencies so curves stay well-resolved at step 1e-3."""
    a = rng.uniform(0.8, 2.5)
    b = rng.uniform(-0.6, 0.6)
    w = rng.uniform(0.3, 1.4)
    ph = rng.uniform(0, 6.28)
    if kappa_nonzero:
        a = abs(a) + abs(b) + 0.4
    kappa = f"{a:.6f} + {b:.6f}*sin({w:.6f}*s + {ph:.6f})"
    c = rng.uniform(-0.8, 0.8)
    d = rng.uniform(-0.5, 0.5)
    w2 = rng.uniform(0.3, 1.2)
    tau = f"{c:.6f}*cos({w2:.6f}*s) + {d:.6f}"
    return kappa, tau


def random_analytic_curve(rng):
    """A horizontally regular analytic curve: x' is bounded away from 0."""
    a = rng.uniform(0.2, 0.5)
    w = rng.uniform(0.5, 1.5)
    b = rng.uniform(0.3, 0.9)
    w2 = rng.uniform(0.4, 1.2)
    c = rng.uniform(-0.4, 0.4)
    x = f"s + {a:.6f}*sin({w:.6f}*s)"
    y = f"{b:.6f}*cos({w2:.6f}*s)"
    z = f"{c:.6f}*s + {a:.6f}*cos(s)"
    return x, y, z


def contact_speed_deviation(h, step=1e-3):
    """Max deviation from 1 of the contact speed |(x', y')| of the curve h,
    measured from its points on ``numerics.step_grid(0, S, step)``: d/ds by
    ``numerics.fd4_first`` there, read at ``numerics.FD4_CENTRED``.

    Its error at spacing h is the truncation 2 h^4 D5/30, D5 the largest
    fifth derivative of x and y, plus the rounding 12 eps M/h, M the
    largest |x| and |y|: four ulps in each point, times the 1.5/h of the
    centred stencil, in each of x' and y'."""
    from h1curves.numerics import FD4_CENTRED, fd4_first, step_grid

    grid = step_grid(0.0, h.s_max, step)
    points = h.point(grid)
    xp, yp = (fd4_first(column, grid[1] - grid[0]) for column in points[:, :2].T)
    return float(np.max(np.abs(np.hypot(xp, yp) - 1.0)[FD4_CENTRED]))


def frame(smp):
    """The moving frame (t, n, b) of a ``CurveSample`` in Euclidean
    components, each shaped like ``smp.points``: t = (x', y', x'y - xy'),
    n = J t = (-y', x', -yy' - xx'), b = (0, 0, 1), the formulas of the
    ``curves`` docstring.  Their basis components are (x', y', 0),
    (-y', x', 0) and (0, 0, 1)."""
    x, y = smp.points[..., 0], smp.points[..., 1]
    xp, yp = smp.velocity[..., 0], smp.velocity[..., 1]
    t = np.stack([xp, yp, xp * y - x * yp], axis=-1)
    n = np.stack([-yp, xp, -y * yp - x * xp], axis=-1)
    b = np.broadcast_to(np.array([0.0, 0.0, 1.0]), t.shape)
    return t, n, b


def heading(smp):
    """The angle of a ``CurveSample``'s unit contact velocity against e1,
    unwrapped along its samples: on an increasing s grid heading -
    heading[0] is the integral of kappa, to roundoff, from first
    derivatives alone."""
    return np.unwrap(np.arctan2(smp.velocity[:, 1], smp.velocity[:, 0]))


def mate_sample(mate):
    """A ``BertrandMate``'s points on its grid as a ``CurveSample``: the unit
    velocity by ``numerics.fd4_first``, kappa unknown (None), tau the
    tau_bar the mate was built to carry."""
    from h1curves.curves import CurveSample
    from h1curves.numerics import fd4_first

    step = mate.grid[1] - mate.grid[0]
    velocity = np.stack([fd4_first(c, step) for c in mate.points.T], axis=1)
    return CurveSample(mate.grid, mate.points, velocity, None, mate.tau_bar)


def random_psh_transform(rng):
    from h1curves import H1Point, PshTransform

    return PshTransform(
        float(rng.uniform(-np.pi, np.pi)),
        H1Point(*rng.uniform(-2, 2, size=3)),
    )


class RecordingField:
    """A zero field that counts its evaluations."""

    def __init__(self):
        self.calls = 0

    def __call__(self, s):
        self.calls += 1
        return np.zeros_like(np.asarray(s, dtype=float))

    def derivative(self):
        from h1curves.fields import as_field

        return as_field(self)
