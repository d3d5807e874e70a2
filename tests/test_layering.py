"""Imports point down: core ← service ← api ← server, leaves below all.

Walks every module under ``src/repro`` with :mod:`ast` and collects its
imports of ``repro`` subpackages at any nesting depth — an import inside
a function counts exactly like one at module level, so a cycle cannot be
dodged by deferring it.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

#: Layers below ``service``; ``util`` is the stdlib-only leaf.
_LOWER = (
    "baselines", "core", "data", "domain", "linalg", "obs", "optimize",
    "privacy", "util", "workload",
)
FORBIDDEN = {
    **{layer: {"service", "api", "server"} for layer in _LOWER},
    "service": {"api", "server"},
    "api": {"server"},
}


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        package = parts[:-1]  # the package relative imports resolve against
        yield path, parts, package


def _targets(path, package):
    """``(lineno, subpackage)`` for each ``repro.<subpackage>`` import."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.name.split(".")
                if name[0] == "repro" and len(name) > 1:
                    yield node.lineno, name[1]
        elif isinstance(node, ast.ImportFrom):
            base = list(package[: len(package) - node.level + 1]) if node.level else []
            name = base + (node.module.split(".") if node.module else [])
            if name[:1] != ["repro"]:
                continue
            if len(name) > 1:
                yield node.lineno, name[1]
            else:  # ``from repro import x`` / ``from .. import x``
                for alias in node.names:
                    yield node.lineno, alias.name


def _violations():
    out = []
    for path, parts, package in _modules():
        if len(parts) < 3 and parts[-1] == "__init__":
            continue  # the top-level package re-exports every layer
        layer = parts[1]
        for lineno, target in _targets(path, package):
            if target in FORBIDDEN.get(layer, ()):
                where = f"{path.relative_to(SRC.parent)}:{lineno}"
                out.append(f"{where} {layer} -> {target}")
    return out


def test_imports_point_down():
    bad = _violations()
    assert not bad, "upward imports:\n" + "\n".join(bad)


def test_util_is_a_stdlib_only_leaf():
    bad = [
        f"{path.relative_to(SRC.parent)}:{lineno} -> {target}"
        for path, parts, package in _modules()
        if parts[1] == "util"
        for lineno, target in _targets(path, package)
        if target != "util"
    ]
    assert not bad, "util imports the package:\n" + "\n".join(bad)


def test_walker_sees_nested_and_relative_imports(tmp_path):
    mod = tmp_path / "m.py"
    mod.write_text(
        "from ..server.retry import x\n"
        "def f():\n"
        "    from .. import service\n"
        "    import repro.api.session\n"
        "    from . import trace\n"
    )
    assert list(_targets(mod, ("repro", "obs"))) == [
        (1, "server"), (3, "service"), (4, "api"), (5, "obs"),
    ]


def test_perfbench_probes_resolve():
    """Every function perfbench's traced pass patches
    (``perfbench/pb_layers.PROBES``) still exists at its module path: a
    refactor that moves or renames one breaks ``perfbench/run.py
    --trace 1`` and would otherwise fail no test."""
    import importlib
    import sys

    bench = str(SRC.parents[1] / "perfbench")
    sys.path.insert(0, bench)
    try:
        pb_layers = importlib.import_module("pb_layers")
        pb_trace = importlib.import_module("pb_trace")
    finally:
        sys.path.remove(bench)
    missing = []
    for probe in pb_layers.PROBES:
        try:
            owner, attr = pb_trace.resolve(probe.module, probe.path)
        except (ImportError, AttributeError) as e:
            missing.append(f"{probe.module}.{probe.path}: {e}")
            continue
        if not hasattr(owner, attr):
            missing.append(f"{probe.module}.{probe.path}")
    assert pb_layers.PROBES and not missing, "unresolved probes:\n" + "\n".join(
        missing
    )
