"""Dead-code and dependency guards over the package source, using only the
standard library."""

import ast
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "contactgeom").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _read_names(tree):
    """Identifiers a module reads: loaded names, attribute names, imported names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_no_unused_imports():
    # the package's __init__ imports are its public interface
    unused = []
    for path in [p for p in PACKAGE if p.name != "__init__.py"] + TESTS:
        tree = _tree(path)
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in loaded:
                        unused.append(f"{path.name}:{node.lineno} {bound}")
    assert unused == []


def test_no_unreferenced_private_module_names():
    trees = {path: _tree(path) for path in PACKAGE + TESTS}
    referenced = set().union(*(_read_names(t) for t in trees.values()))
    dead = []
    for path in PACKAGE:
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += [f"{path.name}:{node.lineno} {name}" for name in defined
                     if name.startswith("_") and not name.startswith("__")
                     and name not in referenced]
    assert dead == []


def _is_last_axis(node):
    return (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
            and isinstance(node.operand, ast.Constant) and node.operand.value == 1)


def test_inner_products_go_through_ambient_dot():
    # np.sum(x * y, -1) over 4-vectors is ambient.dot; a second copy of the
    # kernel is what this guard keeps out of the package
    found = []
    for path in PACKAGE:
        for node in ast.walk(_tree(path)):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "sum" and node.args
                    and isinstance(node.args[0], ast.BinOp)
                    and isinstance(node.args[0].op, ast.Mult)):
                continue
            axes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "axis"]
            if any(_is_last_axis(a) for a in axes):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


FIELD_KERNELS = {"contact_angle_field", "shape_operator", "laplace_beltrami",
                 "frame_gradient", "gaussian_curvature_intrinsic",
                 "gaussian_curvature_extrinsic"}


def _callee(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_field_kernels_are_called_only_by_the_analysis():
    # each field is formed in one place, calculus.SurfaceAnalysis; the flow,
    # the probe and the CLI read it from an analysis instead of forming it
    found = []
    for path in PACKAGE:
        tree = _tree(path)
        inside = {id(node) for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) and path.name == "calculus.py"
                  and cls.name == "SurfaceAnalysis" for node in ast.walk(cls)}
        found += [f"{path.name}:{node.lineno} {_callee(node)}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in inside
                  and _callee(node) in FIELD_KERNELS]
    assert found == []


def test_cross4_forms_only_the_normal():
    # e2 is the metric quarter turn of e1 in contact_angle_field; the one
    # cross4 call left is the normal in _raw_frames
    found = []
    for path in PACKAGE:
        tree = _tree(path)
        # each node's innermost enclosing function (ast.walk goes outside in)
        owner = {id(node): func.name for func in ast.walk(tree)
                 if isinstance(func, ast.FunctionDef) for node in ast.walk(func)}
        found += [f"{path.name}:{owner.get(id(node))}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and _callee(node) == "cross4"]
    assert found == ["surface.py:_raw_frames"]


def test_import_leaves_scipy_unloaded():
    # the package depends on numpy only
    code = "import sys, contactgeom; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
