"""The package as the benchmark sees it: every name that perfbench imports
from eisterm and every function it wraps in a span must exist, so that an API
change fails here instead of in a benchmark run.  perfbench is only read."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tree(name):
    return ast.parse((PERFBENCH / name).read_text(), filename=name)


def _eisterm_imports():
    for name in ("workloads.py", "spans.py"):
        for node in ast.walk(_tree(name)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "eisterm":
                for alias in node.names:
                    yield node.module, alias.name


def _assigned(name, target):
    for node in _tree(name).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == target
                                                for t in node.targets):
            return node.value
    raise AssertionError(f"{target} not found in perfbench/{name}")


def test_perfbench_imports_exist():
    imports = sorted(set(_eisterm_imports()))
    assert imports
    missing = [f"{mod}.{attr}" for mod, attr in imports
               if not hasattr(importlib.import_module(mod), attr)]
    assert not missing


def test_span_targets_exist():
    modules = [elt.value for elt in _assigned("spans.py", "MODULES").elts]
    for mod in modules:
        importlib.import_module(mod)
    targets = [(elt.elts[1].value, elt.elts[2].value)
               for elt in _assigned("spans.py", "TARGETS").elts]
    assert targets
    missing = []
    for mod, attr in targets:
        obj = importlib.import_module(mod)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(f"{mod}.{attr}")
    assert not missing
