"""The package as the benchmark sees it: every name that perfbench imports
from eisterm and every function it wraps in a span must exist, so that an API
change fails here instead of in a benchmark run.  perfbench is only read."""

import ast
import importlib
import importlib.util
import inspect
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


def _eisterm_callables():
    """Local name -> eisterm object for every name workloads.py imports."""
    names = {}
    for node in ast.walk(_tree("workloads.py")):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "eisterm":
            module = importlib.import_module(node.module)
            for alias in node.names:
                obj = getattr(module, alias.name)
                assert names.setdefault(alias.asname or alias.name, obj) is obj
    return names


def test_workload_calls_match_signatures():
    """Every call in workloads.py to an eisterm callable (or to a method of an
    eisterm class, such as FractionalSchwartz.zeros) binds to its signature:
    no keyword it passes may be missing, and no positional argument extra."""
    names = _eisterm_callables()
    checked = []
    for node in ast.walk(_tree("workloads.py")):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in names:
            target, label = names[func.id], func.id
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and isinstance(names.get(func.value.id), type)):
            target, label = getattr(names[func.value.id], func.attr), ast.unparse(func)
        else:
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
                kw.arg is None for kw in node.keywords):
            continue
        try:
            inspect.signature(target).bind(*node.args, **{kw.arg: kw for kw in node.keywords})
        except TypeError as exc:
            raise AssertionError(f"perfbench/workloads.py:{node.lineno} {label}: {exc}")
        checked.append(label)
    assert {"constant_term", "lambda_constant", "preimage", "kernel_coefficient",
            "horospherical_map_complex"} <= set(checked)


def test_workload_kernel_psi_projects_to_zero():
    """perfbench builds its kernel functions through IndFunction's dict table
    and psi_project's (coeff, data) shape; its own _kernel_psi must still give
    a function with zero projector coefficient."""
    import random

    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    from eisterm.classfield import ray_class_group
    from eisterm.field import construct_field
    from eisterm.horospherical import matrix_group, psi_project

    rc = ray_class_group(construct_field(None), 3)
    psi = workloads._kernel_psi(rc, matrix_group(1, 1, 3), random.Random(1))
    coeff, data = psi_project(psi)
    assert abs(coeff) < 1e-12
    assert data is psi.data
