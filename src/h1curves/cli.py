"""Command-line interface: curve ingestion, computation, CSV/JSON output.

Curve and surface specs are JSON documents (file path or '-' for stdin)
with these keys and no others:

    {"type": "analytic", "x": "...", "y": "...", "z": "...", "range": [a, b]}
    {"type": "samples", "data": [[u, x, y, z], ...]}
    {"type": "intrinsic", "kappa": "...", "tau": "...", "range": [0, S],
     "initial": {"point": [x, y, z], "heading": phi}}
    {"g": "...", "f": "...", "range": [a, b]}

Exit codes: 0 success, 1 negative verdict (e.g. non-membership),
2 parse/specification errors, 3 horizontal-regularity failure.  One
boundary, ``_exit_codes`` around the ``main`` group's parsing and
dispatch, decides them: a click usage error, any other ValueError and
an OSError exit 2, a RegularityError exits 3, each with one ``error:``
line on stderr.  Commands raise; they exit themselves only with 1, for a
negative verdict.  ``--config`` fills click's default map: flags win
over config values, which win over the defaults, and a key for an option
the command does not take is ignored.  ``--output``
is probed for writing while the options are parsed, before any work, and
is written only once the command has its whole text, to stdout without
``click.echo``.  Every table goes through ``textout``, imported on first
use: CSV prints each number as ``"%.17g"`` does (17 significant digits),
JSON as ``json.dumps(..., indent=2)`` does, each number Python's shortest
round-trip ``repr``, with the table at its key's place in the document;
both read back to the same doubles.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import contextmanager

import click
import numpy as np
from click.core import ParameterSource

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
from .expressions import EvalDomainError
from .fields import as_field
from .frenet import InitialPose, reconstruct, reconstruct_curve
from .heisenberg import H1Point
from .numerics import step_grid

EXIT_NEGATIVE = 1
EXIT_PARSE = 2
EXIT_REGULARITY = 3


@contextmanager
def _exit_codes():
    """The error boundary: one ``error:`` line and the exit code of a failure."""
    try:
        yield
        return
    except click.exceptions.NoArgsIsHelpError:
        raise  # a bare group prints its help, as click does
    except click.UsageError as exc:
        code, message = EXIT_PARSE, exc.format_message()
    except RegularityError as exc:
        code, message = EXIT_REGULARITY, str(exc)
    except (ValueError, OSError) as exc:
        code, message = EXIT_PARSE, str(exc)
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


class _Prefixed(ValueError):
    """An error that a ``_prefixed`` block has already named."""


@contextmanager
def _prefixed(prefix: str, *errors):
    """Re-raise ``errors`` as a ValueError whose message starts with
    ``prefix``; a RegularityError keeps its own exit code, and an error an
    inner block already prefixed keeps its prefix."""
    try:
        yield
    except (RegularityError, _Prefixed):
        raise
    except errors as exc:
        raise _Prefixed(f"{prefix}: {exc}") from exc


class _Group(click.Group):
    """The class of ``main``: its parsing and its dispatch run in the boundary."""

    def make_context(self, *args, **kwargs):
        with _exit_codes():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _exit_codes():
            return super().invoke(ctx)


def _read_json(path: str):
    with _prefixed(f"cannot read JSON from {path}", OSError, ValueError):
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)


# config keys and the JSON values each takes; click converts and checks them
_CONFIG_TYPES = {"step": (int, float, str), "tol": (int, float, str), "fmt": str, "output": str}


def _load_config(ctx, param, path):
    """Eager ``--config``: the JSON object becomes click's default map."""
    if path is None:
        return None
    config = _read_json(path)
    if not isinstance(config, dict):
        raise click.BadParameter("config must be a JSON object", ctx, param)
    for key, value in config.items():
        if key not in _CONFIG_TYPES:
            raise click.BadParameter(
                f"unknown config key {key!r}; the keys are {', '.join(_CONFIG_TYPES)}", ctx, param)
        if isinstance(value, bool) or not isinstance(value, _CONFIG_TYPES[key]):
            raise click.BadParameter(f"bad config value {key}: {value!r}", ctx, param)
    ctx.default_map = config
    return path


def _positive_finite(ctx, param, value: float) -> float:
    if not (np.isfinite(value) and value > 0.0):
        raise click.BadParameter(f"must be positive and finite, got {value}", ctx, param)
    return value


def _writable(ctx, param, path):
    """Probe ``path`` by appending nothing, so an unwritable one fails before
    any work and a later failure truncates nothing; a file the probe made
    is removed."""
    if path is not None:
        existed = os.path.lexists(path)
        open(path, "a", encoding="utf-8").close()
        if not existed:
            os.remove(path)
    return path


# the keys of each spec document; any other key is refused
_SPEC_KEYS = {"analytic": ("type", "x", "y", "z", "range"), "samples": ("type", "data"),
              "intrinsic": ("type", "kappa", "tau", "range", "initial"),
              "initial": ("point", "heading"), "surface": ("g", "f", "range")}


def _known_keys(doc: dict, kind: str):
    for key in doc:
        if key not in _SPEC_KEYS[kind]:
            raise ValueError(f"unknown key {key!r}; the keys are {', '.join(_SPEC_KEYS[kind])}")


def _curve_from_spec(spec: dict, step: float) -> HorizontalCurve:
    with _prefixed("bad curve spec", KeyError, TypeError, ValueError):
        kind = spec["type"]
        if kind == "analytic":
            _known_keys(spec, kind)
            curve = ParamCurve.from_fields(spec["x"], spec["y"], spec["z"], spec["range"])
            return reparam_horizontal(curve, step=step)
        if kind == "samples":
            _known_keys(spec, kind)
            data = np.asarray(spec["data"], dtype=float)
            if data.ndim != 2 or data.shape[1] != 4:
                raise ValueError("samples data must be rows of [u, x, y, z]")
            return reparam_horizontal(ParamCurve.from_samples(*data.T), step=step)
        if kind == "intrinsic":
            return reconstruct_curve(*_intrinsic(spec), step)
        raise ValueError(f"unknown curve type {kind!r}")


def _intrinsic(spec: dict) -> tuple[InvariantPair, InitialPose, float]:
    """The invariants, initial pose and length of an intrinsic spec."""
    _known_keys(spec, "intrinsic")
    inv = InvariantPair(spec["kappa"], spec["tau"])
    lo, hi = (float(v) for v in spec["range"])
    if lo != 0.0:
        raise ValueError("intrinsic range must start at 0")
    initial = spec.get("initial", {})
    if not isinstance(initial, dict):
        raise ValueError("intrinsic initial must be an object")
    _known_keys(initial, "initial")
    point = H1Point.from_array(initial.get("point", [0.0, 0.0, 0.0]))
    heading = float(initial.get("heading", 0.0))
    return inv, InitialPose(point, heading), hi


def _emit(text: str, output: str | None):
    """Write a command's whole text to ``output`` or to stdout.  stdout is
    written directly: the text holds no ANSI escape for ``click.echo`` to
    strip (CSV is numbers and fixed headers, and ``json.dumps`` escapes
    control characters), and scanning it costs about 0.4 ms per MB."""
    if output:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        sys.stdout.flush()


def _table(fmt: str, header: list[str], rows, doc: dict | None = None, key: str = "rows") -> str:
    """CSV, or ``_json_text`` of the JSON document ``doc`` (default
    ``{"columns": header}``) with the 2-d float table ``rows`` as lists
    under ``key``, which keeps its place when ``doc`` already holds it."""
    from . import textout  # imported on first use: commands that write no table never compile it

    if fmt == "csv":
        return textout.csv(header, rows)
    return textout.json_table({"columns": header} if doc is None else doc, key, rows)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


_OPTIONS = {
    "step": click.option("--step", type=float, default=1e-3, callback=_positive_finite,
                         help="grid/quadrature step (default 1e-3)"),
    "tol": click.option("--tol", type=float, default=1e-6, callback=_positive_finite,
                        help="verdict tolerance (default 1e-6)"),
    "fmt": click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
                        help="output format (default csv)"),
    "output": click.option("--output", type=click.Path(), default=None, callback=_writable,
                           help="output path (default stdout)"),
    "config": click.option("--config", type=click.Path(), is_eager=True, expose_value=False,
                           callback=_load_config, help="JSON config with keys step, tol, fmt, "
                           "output; flags win; a key for an option not taken is ignored"),
}


def _options(*names):
    """Give a command the named ``_OPTIONS``, then ``--output`` and ``--config``."""
    def decorate(fn):
        for name in reversed((*names, "output", "config")):
            fn = _OPTIONS[name](fn)
        return fn
    return decorate


@click.group(cls=_Group)
def main():
    """Curves in the first Heisenberg group: invariants, reconstruction,
    Bertrand mates, surface membership, classification."""


@main.command()
@click.argument("curve_json")
@_options("step", "fmt")
def analyze(curve_json, step, fmt, output):
    """Invariants along a curve: columns s, x, y, z, kappa, tau."""
    h = _curve_from_spec(_read_json(curve_json), step)
    s = step_grid(0.0, h.s_max, step)
    with _prefixed("cannot evaluate curve", EvalDomainError):
        smp = h.sample(s)
    rows = np.column_stack([s, smp.points, smp.kappa, smp.tau])
    _emit(_table(fmt, ["s", "x", "y", "z", "kappa", "tau"], rows), output)


@main.command("reconstruct")
@click.argument("curve_json")
@_options("step", "fmt")
def reconstruct_cmd(curve_json, step, fmt, output):
    """Reconstruct a curve from intrinsic invariants; emits its quadrature
    nodes (s, x, y, z) as samples."""
    spec = _read_json(curve_json)
    if not isinstance(spec, dict) or spec.get("type") != "intrinsic":
        raise ValueError("reconstruct needs an intrinsic curve spec")
    with _prefixed("bad curve spec", KeyError, TypeError, ValueError):
        rows = reconstruct(*_intrinsic(spec), step)
    _emit(_table(fmt, ["s", "x", "y", "z"], rows, {"type": "samples"}, "data"), output)


@main.command()
@click.argument("curve_json")
@click.option("--c1", type=float, default=0.0, help="tangent offset constant")
@click.option("--c2", type=float, default=0.0, help="normal offset constant")
@click.option("--tau-bar", "tau_bar", default=None, help="mate contact normality (kappa != 0)")
@click.option("--g", default=None, help="vertical offset expression (kappa == 0)")
@_options("step", "fmt")
def bertrand(curve_json, c1, c2, tau_bar, g, step, fmt, output):
    """Construct a Bertrand mate; emits paired samples with distances."""
    h = _curve_from_spec(_read_json(curve_json), step)
    spec = BertrandSpec(c1, c2, tau_bar=tau_bar, g=g)
    with _prefixed("cannot evaluate curve", EvalDomainError):
        mate = bertrand_mate(h, spec, step)
    rows = np.column_stack([mate.grid, mate.base, mate.points, mate.dist])
    _emit(_table(fmt, ["s", "x", "y", "z", "x_bar", "y_bar", "z_bar", "dist"], rows), output)


@main.command()
@click.argument("curve_json")
@_options("step", "tol")
def classify(curve_json, step, tol, output):
    """Position-vector classification; emits a JSON verdict."""
    h = _curve_from_spec(_read_json(curve_json), step)
    with (_prefixed("cannot classify", ValueError),  # AmbiguousClassificationError too
          _prefixed("cannot evaluate curve", EvalDomainError)):
        verdict = classify_position(h, tol=tol)
    _emit(_json_text(verdict.to_json()), output)


@main.group()
def surface():
    """Rotationally symmetric surfaces: membership and generation."""


def _surface_from_json(doc: dict) -> SurfaceOfRevolution:
    with _prefixed("bad surface spec", KeyError, TypeError, ValueError):
        g, f = doc["g"], doc["f"]
        _known_keys(doc, "surface")  # doc["g"] has shown it is an object
        return SurfaceOfRevolution.from_profiles(as_field(g), as_field(f), doc["range"],
                                                 g_text=g, f_text=f)


@surface.command()
@click.argument("surface_json")
@click.argument("curve_json")
@_options("step", "tol")
def check(surface_json, curve_json, step, tol, output):
    """Membership of a curve in a surface; exit 1 when not a member."""
    sigma = _surface_from_json(_read_json(surface_json))
    h = _curve_from_spec(_read_json(curve_json), step)
    # a profile's domain error is already a bad surface spec; a curve point
    # that is not finite names the curve itself
    with _prefixed("cannot evaluate curve", EvalDomainError):
        report = surface_membership(h, sigma, tol=tol)
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
@_options("step", "fmt")
def gen_const_kappa(kappa, tau_const, c1, c2, c3g, c3f, srange, step, fmt, output):
    """Generate the surface admitting a constant-kappa curve: its profiles
    sampled at --step (csv), or their closed-form texts (json), which no
    step samples, so --step with json is refused; a config file's step,
    which serves every command, is ignored there."""
    if fmt == "json" and (click.get_current_context().get_parameter_source("step")
                          is ParameterSource.COMMANDLINE):
        raise click.UsageError("--step samples the csv table; the json output is the "
                               "closed-form profile texts, which have no step")
    sigma = generate_surface_constant_kappa(kappa, tau_const, c1, c2, c3g, c3f, srange)
    if fmt == "json":
        text = _json_text(sigma.to_json())
    else:
        s = step_grid(sigma.s_lo, sigma.s_hi, step)
        text = _table(fmt, ["s", "g", "f"], np.column_stack([s, *sigma.profile(s)]))
    _emit(text, output)


@surface.command("gen-const-tau")
@click.option("--kappa", required=True, help="kappa(s) expression, nonvanishing")
@click.option("--tau", "tau_const", type=float, default=0.0, help="constant contact normality")
@click.option("--constants", type=float, nargs=6, default=(1.0, 0.0, 0.0, 1.0, 0.0, 0.0),
              help="C1..C6 of the closed-form coefficient")
@click.option("--g2-const", type=float, default=0.0, help="integration constant of g^2")
@click.option("--f-const", type=float, default=0.0, help="integration constant of f")
@click.option("--range", "srange", type=float, nargs=2, required=True)
@_options("step", "fmt")
def gen_const_tau(kappa, tau_const, constants, g2_const, f_const, srange, step, fmt, output):
    """Generate the surface admitting a constant-tau curve."""
    inv = InvariantPair(kappa, float(tau_const))
    sigma = generate_surface_constant_tau(
        inv, CesaroConstants(*constants), srange, g2_const=g2_const, f_const=f_const,
    )
    s = step_grid(sigma.s_lo, sigma.s_hi, step)
    rows = np.column_stack([s, *sigma.profile(s)])
    doc = {"samples": None, "range": [sigma.s_lo, sigma.s_hi]}  # the table goes first
    _emit(_table(fmt, ["s", "g", "f"], rows, doc, "samples"), output)


@surface.command()
@click.option("--lam", "--lambda", "lam", type=float, required=True, help="shape parameter, > 0")
@_options("step", "tol")
def pansu(lam, step, tol, output):
    """Pansu sphere: profile, generating geodesic, membership certificate."""
    sphere = pansu_sphere(lam, step=step, tol=tol)
    doc = {
        "surface": sphere.surface.to_json(),
        "certificate": sphere.certificate.to_json(),
    }
    _emit(_json_text(doc), output)
    if not sphere.certificate.membership.member:
        sys.exit(EXIT_NEGATIVE)


if __name__ == "__main__":
    main()
