"""Every name a module of the package imports is used there, or re-exported
through its ``__all__``: a deleted caller must not leave its import behind.
Every public name of the package has a caller in ``src/`` or ``scripts/``,
apart from a short labelled allow-list, and every public name of
``heisenberg`` has one outside its own module: the package keeps only what
the pipeline uses.  Every script runs in CI, so a script is a caller that
is exercised.  Every function and method the benchmark's tracer patches
exists, with the parameters its counters read by position.  Every
parameter of a CLI command is read by its body."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "h1curves").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def imported_names(tree):
    """(name, line) of every name bound by an import, ``__future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node.lineno


def used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_import_is_used_or_exported(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    keep = used_names(tree) | exported_names(tree)
    unused = [f"{path.name}:{line} {name}" for name, line in imported_names(tree)
              if name not in keep]
    assert not unused, f"unused imports: {', '.join(unused)}"


def referenced_names(tree):
    """Every name read as a variable or as an attribute, and every
    ``Name.attribute`` read as such."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
            if isinstance(node.value, ast.Name):
                names.add(f"{node.value.id}.{node.attr}")
    return names


def is_classmethod(function):
    return any(isinstance(d, ast.Name) and d.id == "classmethod" for d in function.decorator_list)


def public_names(tree):
    """(qualified, bare) name of every export and of every public method of
    the module's classes; a classmethod's bare name is ``Class.method``, the
    one read that calls it."""
    for name in exported_names(tree):
        yield name, name
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    qualified = f"{node.name}.{item.name}"
                    yield qualified, qualified if is_classmethod(item) else item.name


def test_every_public_heisenberg_name_has_a_caller():
    # a method counts as called when any attribute of that name is read
    # elsewhere: ast knows no types, so this catches a name nobody uses
    module = next(p for p in SOURCES if p.name == "heisenberg.py")
    used = set()
    for path in [p for p in SOURCES if p != module] + SCRIPTS:
        used |= referenced_names(ast.parse(path.read_text(encoding="utf-8")))
    tree = ast.parse(module.read_text(encoding="utf-8"))
    dead = sorted(qualified for qualified, bare in public_names(tree) if bare not in used)
    assert not dead, f"heisenberg names with no caller in src/ or scripts/: {', '.join(dead)}"


# Public names whose only callers are tests, each with the test that calls it.
CALLER_ALLOW_LIST = {
    # acceptance criteria (tests/test_acceptance.py)
    "psh_transform_curve": "criterion 03, pseudo-hermitian invariance",
    "find_psh_alignment": "criterion 04, fundamental theorem uniqueness",
    "make_canonical": "criterion 10, classification round trip",
    # identity checks awaiting their commands' certificates (ROADMAP item 2)
    "verify_cesaro": "criterion 05, the Cesaro identity (analyze)",
    "check_necessary_conditions": "criterion 07, the surface loop (gen-const-*)",
    "cesaro_system_residual": "tests/test_cesaro.py, closed-form residuals (gen-const-tau)",
}


def test_every_public_name_has_a_caller():
    # an export or public method counts as called when its bare name is read
    # as a variable or an attribute in any module, its own included, or in a
    # script, and a classmethod when it is read as ``Class.method``; ast knows
    # no types, so this catches a name nobody uses
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES + SCRIPTS}
    used = set().union(*map(referenced_names, trees.values()))
    public = {(f"{path.stem}.{qualified}", bare) for path in SOURCES
              for qualified, bare in public_names(trees[path])}
    dead = sorted(qualified for qualified, bare in public
                  if bare not in used and bare not in CALLER_ALLOW_LIST)
    assert not dead, f"public names with no caller in src/ or scripts/: {', '.join(dead)}"
    # an entry that gained a caller, or lost its definition, leaves the list
    stale = sorted(name for name in CALLER_ALLOW_LIST
                   if name in used or name not in {bare for _, bare in public})
    assert not stale, f"allow-listed names to drop from the list: {', '.join(stale)}"
    assert len(CALLER_ALLOW_LIST) <= 6


def commands(tree):
    """Every function of the tree decorated by ``main.command`` or
    ``surface.command``, called or bare."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and any(
                ast.unparse(d.func if isinstance(d, ast.Call) else d)
                in ("main.command", "surface.command") for d in node.decorator_list):
            yield node


def test_every_command_parameter_is_read():
    # click fills each parameter from an option or an argument; one the
    # body never reads is a user setting dropped without a word
    tree = ast.parse((ROOT / "src" / "h1curves" / "cli.py").read_text(encoding="utf-8"))
    found = list(commands(tree))
    assert len(found) == 8
    unread = []
    for function in found:
        loaded = {node.id for statement in function.body for node in ast.walk(statement)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{function.name} {arg.arg}" for arg in function.args.args
                   if arg.arg not in loaded]
    assert not unread, f"command parameters never read: {', '.join(unread)}"


def run_steps(workflow: str) -> list[str]:
    """The command text of every ``run:`` step of a workflow: the value on
    the ``run:`` line, or the deeper-indented block under ``run: |``."""
    lines = workflow.splitlines()
    steps = []
    for i, line in enumerate(lines):
        match = re.match(r"(\s*)(?:- )?run: (.*)$", line)
        if not match:
            continue
        if match[2].strip() != "|":
            steps.append(match[2])
            continue
        block = []
        for below in lines[i + 1:]:
            if below.strip() and len(below) - len(below.lstrip()) <= len(match[1]):
                break
            block.append(below)
        steps.append("\n".join(block))
    return steps


def test_every_script_runs_in_ci():
    # the caller test counts scripts as callers, so each must run somewhere
    steps = run_steps((ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8"))
    missing = [path.name for path in SCRIPTS
               if not any(f"scripts/{path.name}" in step for step in steps)]
    assert not missing, f"scripts no CI run: step names: {', '.join(missing)}"


def traced_targets():
    """(owner expression, attribute, call) of every ``patch_function`` and
    ``patch_method`` call of ``perfbench/spans.py``; an attribute named by a
    loop variable stands for each string the loop runs over."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    loops = {node.target.id: [elt.value for elt in node.iter.elts]
             for node in ast.walk(tree)
             if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("patch_function", "patch_method")):
            owner, attr = node.args[:2]
            names = loops[attr.id] if isinstance(attr, ast.Name) else [attr.value]
            for name in names:
                yield ast.unparse(owner), name, node


def resolve(expression: str):
    """``module`` or ``module.Class`` of h1curves, as spans.py names it."""
    module, *rest = expression.split(".")
    owner = importlib.import_module(f"h1curves.{module}")
    for attr in rest:
        owner = getattr(owner, attr)
    return owner


def test_every_traced_name_exists():
    # a renamed target would surface only as a KeyError or AttributeError
    # inside the tracer's install, in a traced benchmark run
    targets = list(traced_targets())
    assert len(targets) >= 17
    missing = []
    for owner, attr, call in targets:
        found = resolve(owner)
        # patch_method reads the class's own __dict__, not an inherited name
        if not (attr in vars(found) if inspect.isclass(found) else hasattr(found, attr)):
            missing.append(f"{owner}.{attr}")
            continue
        # a counter points(key, i) reads the positional argument i
        count = call.args[3] if len(call.args) > 3 else None
        if isinstance(count, ast.Call) and ast.unparse(count.func) == "points":
            index = count.args[1].value
            params = list(inspect.signature(inspect.unwrap(getattr(found, attr))).parameters)
            if len(params) <= index:
                missing.append(f"{owner}.{attr} argument {index}")
    assert not missing, f"names the tracer patches that h1curves lacks: {', '.join(missing)}"
    # the step counter of frenet.reconstruct reads s_max and step as
    # arguments 2 and 3, or by those names
    assert list(inspect.signature(resolve("frenet").reconstruct).parameters)[2:4] == [
        "s_max", "step"]
