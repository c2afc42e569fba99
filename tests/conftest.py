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
        return self
