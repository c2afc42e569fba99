"""Acceptance suite: every release criterion at its stated tolerance,
one printed pass/fail line per criterion (run with -s to see them all)."""

import numpy as np
import pytest

from h1curves import (
    H1Point,
    InvariantPair,
    ParamCurve,
    PshTransform,
    find_psh_alignment,
    kappa_tau_arbitrary,
    psh_transform_curve,
    reconstruct_curve,
    reparam_horizontal,
    verify_cesaro,
)
from h1curves.bertrand import BertrandSpec, bertrand_mate, mate_residuals
from h1curves.cesaro import (
    CesaroConstants,
    cesaro_closed_form,
    check_necessary_conditions,
    generate_surface_constant_kappa,
    sphere_horizontal_gap,
    surface_membership,
)
from h1curves.classify import ClassTag, classify_position, make_canonical
from h1curves.expressions import ScalarFn
from h1curves.numerics import fd4_first, step_grid

from conftest import (frame, heading, mate_sample, random_invariant_exprs,
                      random_psh_transform)

SEED = 987123
# the pose that starts a curve at the origin with heading 0
IDENTITY = PshTransform(0.0, H1Point.origin())


def report(index, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {index:02d} {name}: {status} ({detail})")
    assert ok, f"criterion {index} {name}: {detail}"


def test_criterion_01_pansu_reproduction():
    h = reconstruct_curve(InvariantPair(2, 0), IDENTITY,
                    np.pi, 1e-3)
    s = np.linspace(0.0, h.s_max, 1001)
    expected = np.stack(
        [np.sin(2 * s) / 2, (1 - np.cos(2 * s)) / 2, np.sin(2 * s) / 4 - s / 2],
        axis=1,
    )
    sup = float(np.max(np.linalg.norm(h.point(s) - expected, axis=1)))
    smp = h.sample(s)
    dk = float(np.max(np.abs(smp.kappa - 2.0)))
    dt = float(np.max(np.abs(smp.tau)))
    ok = sup < 1e-6 and dk < 1e-7 and dt < 1e-7
    report(1, "pansu-reproduction", ok,
           f"sup={sup:.2e}, dkappa={dk:.2e}, dtau={dt:.2e}")


def test_criterion_02_invariant_round_trip():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(20):
        kt, tt = random_invariant_exprs(rng)
        inv = InvariantPair(kt, tt)
        h = reconstruct_curve(inv, IDENTITY, 5.0, 1e-3)
        s = np.linspace(0.0, h.s_max, 400)
        smp = h.sample(s)
        worst = max(
            worst,
            float(np.max(np.abs(smp.kappa - inv.kappa(s)))),
            float(np.max(np.abs(smp.tau - inv.tau(s)))),
        )
    report(2, "invariant-round-trip", worst < 1e-5, f"max deviation={worst:.2e}")


def test_criterion_03_psh_invariance():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(50):
        a = rng.uniform(0.2, 0.5)
        w = rng.uniform(0.5, 1.5)
        b = rng.uniform(0.3, 0.9)
        c = ParamCurve.from_fields(
            f"s + {a:.6f}*sin({w:.6f}*s)",
            f"{b:.6f}*cos(s)",
            f"{rng.uniform(-0.4, 0.4):.6f}*s + 0.2*cos(s)",
            (0.0, 3.0),
        )
        g = random_psh_transform(rng)
        moved = psh_transform_curve(g, c)
        u = np.linspace(0.05, 2.95, 60)
        k0, t0 = kappa_tau_arbitrary(c, u)
        k1, t1 = kappa_tau_arbitrary(moved, u)
        worst = max(worst, float(np.max(np.abs(k0 - k1))),
                    float(np.max(np.abs(t0 - t1))))
    report(3, "psh-invariance", worst < 1e-9, f"max deviation={worst:.2e}")


def test_criterion_04_fundamental_theorem_uniqueness():
    rng = np.random.default_rng(SEED + 2)
    worst = worst_angle = worst_shift = 0.0
    for _ in range(8):
        kt, tt = random_invariant_exprs(rng)
        inv = InvariantPair(kt, tt)
        a = reconstruct_curve(inv, IDENTITY, 4.0, 1e-3)
        start = H1Point(*rng.uniform(-1.5, 1.5, size=3))
        pose = PshTransform(float(rng.uniform(-3, 3)), start)
        b = reconstruct_curve(inv, pose, 4.0, 1e-3)
        g = find_psh_alignment(a, b, tol=1e-6)
        grid = np.linspace(0.0, 4.0, 120)
        sup = float(np.max(np.linalg.norm(
            np.stack(g.apply(*a.point(grid).T), axis=-1) - b.point(grid), axis=1
        )))
        worst = max(worst, sup)
        # the transformation that aligns the curves is the pose itself
        worst_angle = max(worst_angle, abs((g.angle - pose.angle + np.pi) % (2 * np.pi) - np.pi))
        worst_shift = max(worst_shift, float(np.max(np.abs(
            np.subtract([g.shift.x, g.shift.y, g.shift.z], [start.x, start.y, start.z])))))
    ok = worst < 1e-6 and worst_angle < 1e-9 and worst_shift < 1e-8
    report(4, "fundamental-theorem-uniqueness", ok,
           f"max sup-distance={worst:.2e}, dangle={worst_angle:.1e}, dshift={worst_shift:.1e}")


def test_criterion_05_cesaro_identity():
    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    for _ in range(10):
        kt, tt = random_invariant_exprs(rng)
        h = reconstruct_curve(
            InvariantPair(kt, tt), IDENTITY, 5.0, 1e-3
        )
        grid = step_grid(0.0, h.s_max, 1e-3)  # the table analyze prints
        worst = max(worst, verify_cesaro(grid, h.sample(grid)))
    # read where fd4's stencil is centred: 3.6e-12 at most on these ten
    report(5, "cesaro-identity", worst < 1e-11, f"max residual={worst:.2e}")


def test_criterion_06_closed_form_odes():
    # nonconstant kappa: finite-difference residuals of both second-order
    # equations; constant kappa: exact match of the simplified closed form
    inv = InvariantPair("2 + sin(s)", "0")
    sol = cesaro_closed_form(inv, CesaroConstants(1, 0, 0, 1, 1.0, 0.0),
                             interval=(0, 5))
    grid = sol.grid
    h = (grid[1] - grid[0]) * 20
    g = grid[40:-40:20]
    k = inv.kappa(g)
    kp = inv.kappa.derivative()(g)
    worst_fd = 0.0
    for u, forcing in ((sol.u1, kp / k), (sol.u2, np.asarray(k))):
        um2, um1, u0, up1, up2 = (u(g + j * h) for j in (-2, -1, 0, 1, 2))
        up = (um2 - 8 * um1 + 8 * up1 - up2) / (12 * h)
        upp = (-um2 + 16 * um1 - 30 * u0 + 16 * up1 - up2) / (12 * h * h)
        res = upp - (kp / k) * up + k * k * u0 - forcing
        worst_fd = max(worst_fd, float(np.max(np.abs(res))))

    kappa_c = 2.0
    A, B = 0.7, -0.4
    sol_c = cesaro_closed_form(
        InvariantPair(kappa_c, 0.0),
        CesaroConstants(1, 0, 0, 1, A, B), interval=(0, 3),
    )
    s = np.linspace(0, 3, 301)
    u1_exact = A * np.sin(kappa_c * s) + B * np.cos(kappa_c * s)
    u2_exact = A * np.cos(kappa_c * s) - B * np.sin(kappa_c * s) + 1 / kappa_c
    # u'' = -kappa^2 * (u - particular) analytically; comparing the code's
    # values against the independent closed form bounds the exact residual
    worst_const = max(
        float(np.max(np.abs(sol_c.u1(s) - u1_exact))),
        float(np.max(np.abs(sol_c.u2(s) - u2_exact))),
    ) * kappa_c**2
    ok = worst_fd < 1e-6 and worst_const < 1e-12
    report(6, "closed-form-odes", ok,
           f"fd residual={worst_fd:.2e}, const-kappa residual={worst_const:.2e}")


def test_criterion_07_surface_loop():
    # generated surface satisfies the membership conditions
    surf = generate_surface_constant_kappa(2.0, 0.0, -1.0, 0.0, 1.0, -np.pi / 4,
                                           (-np.pi / 2, np.pi / 2))
    inv = InvariantPair(2.0, 0.0)
    res1, res2 = check_necessary_conditions(
        surf, inv, np.linspace(-np.pi / 2 + 0.05, np.pi / 2 - 0.05, 101)
    )
    # the reconstructed constant-kappa curve lies on it
    h = reconstruct_curve(inv, IDENTITY, np.pi, 1e-3)
    membership = surface_membership(h, surf, tol=1e-6)
    # the stated lambda = 1 constants reproduce the closed-form profile
    paper = generate_surface_constant_kappa(2.0, 0.0, -1.0, 0.0, 1.0, 1.0,
                                            (-np.pi, 0.0))
    s = np.linspace(-np.pi, 0, 400)
    g, f = paper.profile(s)
    dg = float(np.max(np.abs(g - np.abs(np.cos(-s)))))
    df = float(np.max(np.abs(f - ((np.sin(-2 * s) - 2 * s) / 4 + 1))))
    ok = (res1 < 1e-9 and res2 < 1e-9 and membership.member
          and membership.max_defect < 1e-6 and dg < 1e-12 and df < 1e-12)
    report(7, "surface-loop", ok,
           f"conditions=({res1:.2e}, {res2:.2e}), defect={membership.max_defect:.2e}, "
           f"profile=({dg:.2e}, {df:.2e})")


def test_criterion_08_sphere_impossibility():
    s = np.linspace(0.1, np.pi - 0.1, 4001)
    keep = (np.abs(s - np.pi / 4) > 0.05) & (np.abs(s - 3 * np.pi / 4) > 0.05)
    gap = sphere_horizontal_gap(1.0, s[keep])[:, 1]
    zero = sphere_horizontal_gap(1.0, np.array([np.pi / 4]))[0, 1]
    ok = float(np.min(gap)) > 0.1 and zero < 1e-10
    report(8, "sphere-impossibility", ok,
           f"min gap={np.min(gap):.3f}, gap(pi/4)={zero:.2e}")


def test_criterion_09_bertrand_suite():
    rng = np.random.default_rng(SEED + 4)
    worst_align = worst_ds = worst_kappa = worst_dist = 0.0
    samples = []
    for _ in range(20):
        kt, tt = random_invariant_exprs(rng, kappa_nonzero=True)
        base = reconstruct_curve(
            InvariantPair(kt, tt), IDENTITY, 4.0, 1e-3
        )
        c1, c2 = rng.uniform(-2, 2, size=2)
        spec = BertrandSpec(c1, c2, tau_bar=f"{rng.uniform(-0.5, 0.5):.6f}*cos(s)")
        mate = bertrand_mate(base, spec)
        r = mate_residuals(mate)
        worst_align = max(worst_align, r.align)
        worst_ds = max(worst_ds, r.speed)
        worst_dist = max(worst_dist, r.distance)
        # the mate's kappa: the fd4 derivative of the heading of its points
        mate_smp, base_smp = mate_sample(mate), base.sample(mate.grid)
        kappa_bar = fd4_first(heading(mate_smp), mate.grid[1] - mate.grid[0])
        worst_kappa = max(worst_kappa, float(np.max(np.abs(kappa_bar - base_smp.kappa))))
        samples.extend([base_smp, mate_smp])

    # the pairings t_b = g n_a and n_b = g b_a are impossible: in basis
    # components the best pointwise g leaves max(|t_b - g n_a|, |g|) >=
    # 1/sqrt(2), and n_b, a unit contact vector, has no part along b_a
    frames = [[f[..., :2] for f in frame(smp)[:2]] for smp in samples]
    min_tn = min_bn = np.inf
    n_curves = len(samples)
    for _ in range(1000):
        i, j = rng.integers(0, n_curves, size=2)
        (_, na), (tb, nb) = frames[i], frames[j]
        g = np.sum(tb * na, axis=-1)
        fit = np.linalg.norm(tb - g[:, None] * na, axis=-1)
        min_tn = min(min_tn, float(np.max(np.maximum(fit, np.abs(g)))))
        min_bn = min(min_bn, float(np.max(np.linalg.norm(nb, axis=-1))))
    # align and ds read fd4 where it is centred: at most 5.4e-13 and 6.9e-12
    # over the twenty mates
    ok = (worst_align < 2e-12 and worst_ds < 2e-11 and worst_kappa < 1e-7
          and worst_dist < 1e-8 and min_tn > 0.1 and min_bn > 0.1)
    report(9, "bertrand-suite", ok,
           f"align={worst_align:.2e}, ds={worst_ds:.2e}, dkappa={worst_kappa:.2e}, "
           f"dist={worst_dist:.2e}, min residuals=({min_tn:.2f}, {min_bn:.2f})")


def test_criterion_10_classification_round_trip():
    rng = np.random.default_rng(SEED + 5)
    ok = True
    details = []

    c = make_canonical(ClassTag.LINE_IN_XY_PLANE, (0, 3), heading=0.8,
                       offset=(0.5, -0.3))
    out = classify_position(reparam_horizontal(c))
    ok &= out.tag is ClassTag.LINE_IN_XY_PLANE
    ok &= abs(out.witness["heading"] - 0.8) < 1e-6
    details.append(f"line dh={abs(out.witness['heading'] - 0.8):.1e}")

    c = make_canonical(ClassTag.PLANAR_CURVE_XY, (0, 5), kappa="1 + 0.4*sin(s)",
                       x0=0.7)
    out = classify_position(reparam_horizontal(c))
    ok &= out.tag is ClassTag.PLANAR_CURVE_XY

    c = make_canonical(ClassTag.VERTICAL_PLANE_CURVE, (0, 3), c1=0.6,
                       c2=np.cos(1.1), c3=np.sin(1.1), tau="0.4")
    out = classify_position(reparam_horizontal(c))
    ok &= out.tag is ClassTag.VERTICAL_PLANE_CURVE
    ok &= abs(out.witness["plane_angle"] - 1.1) < 1e-6
    ok &= abs(out.witness["c1"] - 0.6) < 1e-6
    details.append(f"plane da={abs(out.witness['plane_angle'] - 1.1):.1e}")

    c = make_canonical(ClassTag.CIRCULAR_HELIX, (0, 8), c1=1.4, c2=0.2,
                       c3=1.4 * np.cos(0.7), c4=1.4 * np.sin(0.7), tau="0.3")
    out = classify_position(reparam_horizontal(c))
    ok &= out.tag is ClassTag.CIRCULAR_HELIX
    ok &= abs(out.witness["radius"] - 1.4) < 1e-6
    ok &= abs(out.witness["c1"] - 1.4) < 1e-6
    details.append(f"helix dr={abs(out.witness['radius'] - 1.4):.1e}")

    generic_ok = 0
    for _ in range(20):
        kt, tt = random_invariant_exprs(rng)
        h = reconstruct_curve(InvariantPair(kt, tt),
                        IDENTITY, 4.0, 1e-3)
        generic_ok += classify_position(h).tag is ClassTag.GENERAL
    ok &= generic_ok == 20
    details.append(f"generic {generic_ok}/20")
    report(10, "classification-round-trip", bool(ok), ", ".join(details))


def test_criterion_11_parser_golden():
    from test_expressions import GOLDEN

    worst = 0.0
    h_fd = 1e-5
    for text in GOLDEN:
        fn = ScalarFn.parse(text)
        d = fn.derivative()
        for s in (0.35, 0.9, 1.6, 2.4):
            oracle = (fn(s + h_fd) - fn(s - h_fd)) / (2 * h_fd)
            rel = abs(d(s) - oracle) / max(1.0, abs(oracle))
            worst = max(worst, rel)
    ok = worst < 1e-6 and len(GOLDEN) == 30
    report(11, "parser-golden", ok,
           f"{len(GOLDEN)} expressions, worst relative error={worst:.2e}")
