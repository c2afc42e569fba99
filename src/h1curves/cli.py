"""Command-line interface: curve ingestion, computation, CSV/JSON output.

Curve specs are JSON documents (file path or '-' for stdin):

    {"type": "analytic", "x": "...", "y": "...", "z": "...", "range": [a, b]}
    {"type": "samples", "data": [[u, x, y, z], ...]}
    {"type": "intrinsic", "kappa": "...", "tau": "...", "range": [0, S],
     "initial": {"point": [x, y, z], "heading": phi}}

Exit codes: 0 success, 1 negative verdict (e.g. non-membership),
2 parse/specification errors, 3 horizontal-regularity failure.  All
numbers print with 17 significant digits so doubles round-trip.
"""

from __future__ import annotations

import json
import sys

import click
import numpy as np

from .bertrand import BertrandSpec, bertrand_mate
from .cesaro import (
    SurfaceOfRevolution,
    generate_surface_constant_kappa,
    generate_surface_constant_tau,
    pansu_sphere,
    surface_membership,
    CesaroConstants,
)
from .classify import classify_position
from .curves import (
    HorizontalCurve,
    InvariantPair,
    ParamCurve,
    RegularityError,
    reparam_horizontal,
)
from .expressions import EvalDomainError, ExpressionError
from .fields import as_field
from .frenet import InitialPose, reconstruct
from .heisenberg import H1Point
from .numerics import panel_count

EXIT_NEGATIVE = 1
EXIT_PARSE = 2
EXIT_REGULARITY = 3


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _fail(EXIT_PARSE, f"cannot read JSON from {path}: {exc}")


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    cfg = _read_json(path)
    if not isinstance(cfg, dict):
        _fail(EXIT_PARSE, "config must be a JSON object")
    return cfg


def _effective(ctx, name: str, config: dict, default):
    """Explicit flags win over config values, which win over defaults."""
    source = ctx.get_parameter_source(name)
    value = ctx.params.get(name)
    if source is not None and source.name == "COMMANDLINE":
        return value
    if name in config:
        return config[name]
    return value if value is not None else default


def _curve_from_spec(spec: dict, step: float) -> HorizontalCurve:
    try:
        kind = spec["type"]
        if kind == "analytic":
            curve = ParamCurve.from_expressions(spec["x"], spec["y"], spec["z"], spec["range"])
            return reparam_horizontal(curve, step=step)
        if kind == "samples":
            data = np.asarray(spec["data"], dtype=float)
            if data.ndim != 2 or data.shape[1] != 4:
                raise ValueError("samples data must be rows of [u, x, y, z]")
            return reparam_horizontal(ParamCurve.from_samples(*data.T), step=step)
        if kind == "intrinsic":
            inv = InvariantPair.from_expressions(spec["kappa"], spec["tau"])
            lo, hi = (float(v) for v in spec["range"])
            if lo != 0.0:
                raise ValueError("intrinsic range must start at 0")
            initial = spec.get("initial", {})
            point = H1Point.from_array(initial.get("point", [0.0, 0.0, 0.0]))
            heading = float(initial.get("heading", 0.0))
            return reconstruct(inv, InitialPose(point, heading), hi, step)
        raise ValueError(f"unknown curve type {kind!r}")
    except RegularityError as exc:
        _fail(EXIT_REGULARITY, str(exc))
    except (KeyError, ValueError, TypeError, ExpressionError, EvalDomainError) as exc:
        _fail(EXIT_PARSE, f"bad curve spec: {exc}")


def _emit(text: str, output: str | None):
    if output:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _csv(header: list[str], rows) -> str:
    line = ",".join(["%.17g"] * len(header)) + "\n"
    return ",".join(header) + "\n" + (line * len(rows)) % tuple(rows.ravel().tolist())


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    """Output grid over [lo, hi] at about ``step``; exit 2 over budget."""
    try:
        n = panel_count(hi - lo, step)
    except ValueError as exc:
        _fail(EXIT_PARSE, str(exc))
    return np.linspace(lo, hi, n + 1)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _json_table(doc: dict, key: str, rows: np.ndarray) -> str:
    """``_json_text({**doc, key: rows.tolist()})`` for a 2-d float table,
    with the table text from one ``%r`` over all values (repr is what
    json.dumps prints for a finite float).  Non-finite values, which JSON
    spells NaN/Infinity, and empty tables go through json.dumps."""
    if rows.size == 0 or not np.isfinite(rows).all():
        return _json_text({**doc, key: rows.tolist()})
    head = json.dumps({**doc, key: None}, indent=2)  # ... "key": null\n}
    row = "    [\n" + ",\n".join(["      %r"] * rows.shape[1]) + "\n    ]"
    table = "[\n" + ",\n".join([row] * rows.shape[0]) + "\n  ]"
    return head[:-len("null\n}")] + table % tuple(rows.ravel().tolist()) + "\n}\n"


_common = [
    click.option("--step", type=float, default=None, help="grid/quadrature step (default 1e-3)"),
    click.option("--tol", type=float, default=None, help="verdict tolerance (default 1e-6)"),
    click.option(
        "--format", "fmt", type=click.Choice(["csv", "json"]), default=None,
        help="output format (default csv)",
    ),
    click.option("--output", type=click.Path(), default=None, help="output path (default stdout)"),
    click.option("--config", type=click.Path(exists=False), default=None,
                 help="JSON config mirroring the flags; flags win"),
]


def common_options(fn):
    for opt in reversed(_common):
        fn = opt(fn)
    return fn


def _resolve_common(ctx, config_path):
    config = _load_config(config_path)
    try:
        step = float(_effective(ctx, "step", config, 1e-3))
        tol = float(_effective(ctx, "tol", config, 1e-6))
    except (TypeError, ValueError) as exc:
        _fail(EXIT_PARSE, f"bad --step/--tol value: {exc}")
    for name, value in (("step", step), ("tol", tol)):
        if not (np.isfinite(value) and value > 0.0):
            _fail(EXIT_PARSE, f"--{name} must be positive and finite, got {value}")
    fmt = _effective(ctx, "fmt", config, "csv") or "csv"
    output = _effective(ctx, "output", config, None)
    return step, tol, fmt, output


@click.group()
def main():
    """Curves in the first Heisenberg group: invariants, reconstruction,
    Bertrand mates, surface membership, classification."""


@main.command()
@click.argument("curve_json")
@common_options
@click.pass_context
def analyze(ctx, curve_json, step, tol, fmt, output, config):
    """Invariants along a curve: columns s, x, y, z, kappa, tau."""
    step, tol, fmt, output = _resolve_common(ctx, config)
    h = _curve_from_spec(_read_json(curve_json), step)
    s = _grid(0.0, h.s_max, step)
    try:
        smp = h.sample(s)
    except RegularityError as exc:
        _fail(EXIT_REGULARITY, str(exc))
    except EvalDomainError as exc:
        _fail(EXIT_PARSE, f"cannot evaluate curve: {exc}")
    rows = np.column_stack([s, smp.points, smp.kappa, smp.tau])
    header = ["s", "x", "y", "z", "kappa", "tau"]
    if fmt == "csv":
        _emit(_csv(header, rows), output)
    else:
        _emit(_json_table({"columns": header}, "rows", rows), output)


@main.command("reconstruct")
@click.argument("curve_json")
@common_options
@click.pass_context
def reconstruct_cmd(ctx, curve_json, step, tol, fmt, output, config):
    """Reconstruct a curve from intrinsic invariants; emits samples."""
    step, tol, fmt, output = _resolve_common(ctx, config)
    spec = _read_json(curve_json)
    if spec.get("type") != "intrinsic":
        _fail(EXIT_PARSE, "reconstruct needs an intrinsic curve spec")
    h = _curve_from_spec(spec, step)
    s = _grid(0.0, h.s_max, step)
    pts = h.point(s)
    rows = np.column_stack([s, pts])
    if fmt == "csv":
        _emit(_csv(["s", "x", "y", "z"], rows), output)
    else:
        _emit(_json_table({"type": "samples"}, "data", rows), output)


@main.command()
@click.argument("curve_json")
@click.option("--c1", type=float, default=0.0, help="tangent offset constant")
@click.option("--c2", type=float, default=0.0, help="normal offset constant")
@click.option("--tau-bar", "tau_bar", default=None, help="mate contact normality (kappa != 0)")
@click.option("--g", default=None, help="vertical offset expression (kappa == 0)")
@common_options
@click.pass_context
def bertrand(ctx, curve_json, c1, c2, tau_bar, g, step, tol, fmt, output, config):
    """Construct a Bertrand mate; emits paired samples with distances."""
    step, tol, fmt, output = _resolve_common(ctx, config)
    h = _curve_from_spec(_read_json(curve_json), step)
    try:
        spec = BertrandSpec(c1, c2, tau_bar=tau_bar, g=g)
    except (ExpressionError, EvalDomainError) as exc:
        _fail(EXIT_PARSE, f"bad offset expression: {exc}")
    try:
        mate = bertrand_mate(h, spec)
    except EvalDomainError as exc:
        _fail(EXIT_PARSE, f"cannot evaluate curve: {exc}")
    except ValueError as exc:  # includes BranchError and bad offsets
        _fail(EXIT_PARSE, str(exc))
    s = _grid(0.0, min(h.s_max, mate.curve.s_max), step)
    base = h.point(s)
    other = mate.curve.point(s)
    dist = np.linalg.norm(other - base, axis=1)
    rows = np.column_stack([s, base, other, dist])
    header = ["s", "x", "y", "z", "x_bar", "y_bar", "z_bar", "dist"]
    if fmt == "csv":
        _emit(_csv(header, rows), output)
    else:
        _emit(_json_table({"columns": header}, "rows", rows), output)


@main.command()
@click.argument("curve_json")
@common_options
@click.pass_context
def classify(ctx, curve_json, step, tol, fmt, output, config):
    """Position-vector classification; emits a JSON verdict."""
    step, tol, fmt, output = _resolve_common(ctx, config)
    h = _curve_from_spec(_read_json(curve_json), step)
    try:
        verdict = classify_position(h, tol=tol)
    except RegularityError as exc:
        _fail(EXIT_REGULARITY, str(exc))
    except ValueError as exc:  # includes AmbiguousClassificationError
        _fail(EXIT_PARSE, f"cannot classify: {exc}")
    _emit(_json_text(verdict.to_json()), output)


@main.group()
def surface():
    """Rotationally symmetric surfaces: membership and generation."""


def _surface_from_json(doc: dict) -> SurfaceOfRevolution:
    try:
        return SurfaceOfRevolution.from_profiles(
            as_field(doc["g"]), as_field(doc["f"]), doc["range"],
            g_text=doc["g"], f_text=doc["f"],
        )
    except (KeyError, ValueError, TypeError, ExpressionError) as exc:
        _fail(EXIT_PARSE, f"bad surface spec: {exc}")


@surface.command()
@click.argument("surface_json")
@click.argument("curve_json")
@common_options
@click.pass_context
def check(ctx, surface_json, curve_json, step, tol, fmt, output, config):
    """Membership of a curve in a surface; exit 1 when not a member."""
    step, tol, fmt, output = _resolve_common(ctx, config)
    sigma = _surface_from_json(_read_json(surface_json))
    h = _curve_from_spec(_read_json(curve_json), step)
    try:
        report = surface_membership(h, sigma, tol=tol)
    except (EvalDomainError, ValueError) as exc:
        _fail(EXIT_PARSE, f"bad surface spec: {exc}")
    _emit(_json_text(report.to_json()), output)
    if not report.member:
        sys.exit(EXIT_NEGATIVE)


@surface.command("gen-const-kappa")
@click.option("--kappa", type=float, required=True, help="nonzero constant p-curvature")
@click.option("--tau", "tau_const", type=float, default=0.0, help="constant contact normality")
@click.option("--c1", type=float, default=-1.0)
@click.option("--c2", type=float, default=0.0)
@click.option("--c3g", type=float, default=1.0, help="integration constant in g")
@click.option("--c3f", type=float, default=0.0, help="integration constant in f")
@click.option("--range", "srange", type=float, nargs=2, required=True)
@common_options
@click.pass_context
def gen_const_kappa(ctx, kappa, tau_const, c1, c2, c3g, c3f, srange, step, tol, fmt, output, config):
    """Generate the surface admitting a constant-kappa curve."""
    step, tol, fmt, output = _resolve_common(ctx, config)
    try:
        sigma = generate_surface_constant_kappa(
            kappa, tau_const, c1, c2, c3g, c3f, srange
        )
        if fmt == "json":
            text = _json_text(sigma.to_json())
        else:
            s = _grid(sigma.s_lo, sigma.s_hi, step)
            text = _csv(["s", "g", "f"], np.column_stack([s, *sigma.profile(s)]))
    except ValueError as exc:
        _fail(EXIT_PARSE, str(exc))
    _emit(text, output)


@surface.command("gen-const-tau")
@click.option("--kappa", required=True, help="kappa(s) expression, nonvanishing")
@click.option("--tau", "tau_const", type=float, default=0.0, help="constant contact normality")
@click.option("--constants", type=float, nargs=6, default=(1.0, 0.0, 0.0, 1.0, 0.0, 0.0),
              help="C1..C6 of the closed-form coefficient")
@click.option("--g2-const", type=float, default=0.0, help="integration constant of g^2")
@click.option("--f-const", type=float, default=0.0, help="integration constant of f")
@click.option("--range", "srange", type=float, nargs=2, required=True)
@common_options
@click.pass_context
def gen_const_tau(ctx, kappa, tau_const, constants, g2_const, f_const, srange, step, tol, fmt, output, config):
    """Generate the surface admitting a constant-tau curve."""
    step, tol, fmt, output = _resolve_common(ctx, config)
    try:
        inv = InvariantPair(kappa, float(tau_const))
        sigma = generate_surface_constant_tau(
            inv, CesaroConstants(*constants[:4]), (constants[4], constants[5]),
            srange, g2_const=g2_const, f_const=f_const,
        )
        s = _grid(sigma.s_lo, sigma.s_hi, step)
        rows = np.column_stack([s, *sigma.profile(s)])
    except (ExpressionError, EvalDomainError, ValueError) as exc:
        _fail(EXIT_PARSE, str(exc))
    if fmt == "json":
        _emit(_json_text({"samples": rows.tolist(), "range": [sigma.s_lo, sigma.s_hi]}), output)
    else:
        _emit(_csv(["s", "g", "f"], rows), output)


@surface.command()
@click.option("--lam", "--lambda", "lam", type=float, required=True, help="shape parameter, > 0")
@common_options
@click.pass_context
def pansu(ctx, lam, step, tol, fmt, output, config):
    """Pansu sphere: profile, generating geodesic, membership certificate."""
    step, tol, fmt, output = _resolve_common(ctx, config)
    try:
        sphere = pansu_sphere(lam, step=step, tol=tol)
    except ValueError as exc:
        _fail(EXIT_PARSE, str(exc))
    doc = {
        "surface": sphere.surface.to_json(),
        "certificate": sphere.certificate.to_json(),
    }
    _emit(_json_text(doc), output)
    if not sphere.certificate.membership.member:
        sys.exit(EXIT_NEGATIVE)


if __name__ == "__main__":
    main()
