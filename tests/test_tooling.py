import ast
import importlib
import importlib.util
from pathlib import Path

import isoplab

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
WORKLOADS = TRACING.with_name("workloads.py")


def test_traced_functions_exist():
    # the benchmark tracer binds isoplab functions by name: a rename in the
    # package must fail here rather than in a benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{mod}.{name}" for mod, name, *_ in tracing.TARGETS
               if not callable(getattr(importlib.import_module("isoplab." + mod),
                                       name, None))]
    assert len(tracing.TARGETS) > 0
    assert missing == []


def _isoplab_names(path: Path) -> set[str]:
    """Every dotted name a source file reads from the package: ``isoplab.a.b``
    and ``from isoplab import a`` with its uses ``a.b``, as "a.b"."""
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name: alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "isoplab"
                for alias in node.names}
    names = set(imported.values())
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and (node.id == "isoplab"
                                                    or node.id in imported):
            head = [] if node.id == "isoplab" else [imported[node.id]]
            names.add(".".join(head + chain))
    return names


def test_benchmark_names_exist():
    # the benchmark workloads call the package by name: a rename must fail
    # here rather than crash a benchmark case
    names = _isoplab_names(WORKLOADS)
    missing = []
    for name in sorted(names):
        obj = isoplab
        for part in name.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(name)
    assert {"build_competitor", "cli.run", "cylinder_extension"} <= names
    assert missing == []
