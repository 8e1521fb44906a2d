"""Dead-code, dependency and structure guards over the package source.  The
source guards parse it with the standard library's ast; one guard also
measures the stencil weights a grid holds, one counts the cross4 calls
and 4-vector legs an analysis forms, and one compares the identity bounds
with the benchmark's copy."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

from contactgeom import ambient
from contactgeom.calculus import IDENTITIES, ORDER_THRESHOLD, build_analysis
from contactgeom.catalog import clifford, perturb
from contactgeom.gridops import GridCalc
from contactgeom.surface import GridSpec

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "contactgeom").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))
PERFBENCH_TESTS = sorted((ROOT / "perfbench" / "tests").glob("*.py"))
INIT = ROOT / "src" / "contactgeom" / "__init__.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"


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


def _unread_public_definitions(defining, readers):
    """"module.py:name" for each public module-level function or class of the
    defining {file name: tree} that no tree in readers reads."""
    read = set().union(*(_read_names(tree) for tree in readers))
    return [f"{name}:{node.name}" for name, tree in defining.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in read]


def test_every_public_definition_is_read_outside_the_tests():
    # a public function or class that only the tests read is an API that no
    # command or demo runs.  A read in any package module or demo counts;
    # __init__ re-exports every public name, so its imports do not
    modules = {p.name: _tree(p) for p in PACKAGE if p.name != "__init__.py"}
    assert DEMOS
    readers = list(modules.values()) + [_tree(p) for p in DEMOS]
    assert _unread_public_definitions(modules, readers) == []
    # the guard sees a definition no reader reads
    planted = {"m.py": ast.parse("def used():\n    pass\n\n\n"
                                 "def unused():\n    pass\n\n\nused()\n")}
    assert _unread_public_definitions(planted, planted.values()) == ["m.py:unused"]


def _unread_exports(init, readers):
    """Each name the package's __init__ tree binds, by an import or an
    assignment, that no tree in readers reads; dunder metadata aside."""
    read = set().union(*(_read_names(tree) for tree in readers))
    bound = []
    for node in init.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign):
            bound += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return [name for name in bound
            if name not in read and not (name.startswith("__") and name.endswith("__"))]


def test_every_export_is_read_by_the_package_or_the_benchmark():
    # contactgeom exports what its commands or the benchmark read: a read in
    # a package module, a benchmark module or a benchmark test counts, one in
    # a demo or in the tests does not
    assert PERFBENCH and PERFBENCH_TESTS
    readers = [_tree(p) for p in PACKAGE + PERFBENCH + PERFBENCH_TESTS if p != INIT]
    assert _unread_exports(_tree(INIT), readers) == []
    # the guard sees an imported and an assigned name no reader reads
    planted = ast.parse("from .m import read, unread\nalias = read\n__version__ = '1'\n")
    assert _unread_exports(planted, [ast.parse("read()\n")]) == ["unread", "alias"]


def _unread_public_members(defining, readers):
    """"module.py:Class.member" for each public method or property of a
    class of the defining {file name: tree} that no tree in readers reads."""
    read = set().union(*(_read_names(tree) for tree in readers))
    return [f"{name}:{cls.name}.{node.name}" for name, tree in defining.items()
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_") and node.name not in read]


def test_every_public_member_is_read_outside_the_tests():
    # a public method or property that only the tests read is a value no
    # command computes.  A read in a package module, a demo or the
    # benchmark's top-level modules counts: the benchmark reads
    # FrameField.sign_mismatches as a counter
    modules = {p.name: _tree(p) for p in PACKAGE if p.name != "__init__.py"}
    assert PERFBENCH
    readers = list(modules.values()) + [_tree(p) for p in DEMOS + PERFBENCH]
    assert _unread_public_members(modules, readers) == []
    # the guard sees a property and a method no reader reads
    planted = {"m.py": ast.parse("class C:\n    @property\n    def read(self):\n"
                                 "        pass\n\n    def unread(self):\n        pass\n\n"
                                 "    def _private(self):\n        pass\n\n\nC().read\n")}
    assert _unread_public_members(planted, planted.values()) == ["m.py:C.unread"]


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


def test_lengths_go_through_ambient_norm():
    # ambient.norm is sqrt(dot(a, a)), bit for bit np.linalg.norm(a, axis=-1)
    # at half its cost; a second length kernel is what this guard keeps out
    found = [f"{path.name}:{node.lineno}" for path in PACKAGE
             for node in ast.walk(_tree(path))
             if isinstance(node, ast.Attribute) and node.attr == "norm"
             and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"]
    assert found == []


FIELD_KERNELS = {"contact_angle_field", "shape_operator", "laplace_beltrami",
                 "frame_gradient", "gaussian_curvature_intrinsic"}


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


def _calls_by_function(is_wanted):
    """"module.py:function" for each package call is_wanted accepts."""
    found = []
    for path in PACKAGE:
        tree = _tree(path)
        # each node's innermost enclosing function (ast.walk goes outside in)
        owner = {id(node): func.name for func in ast.walk(tree)
                 if isinstance(func, ast.FunctionDef) for node in ast.walk(func)}
        found += [f"{path.name}:{owner.get(id(node))}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and is_wanted(node)]
    return found


def test_cross4_forms_only_the_normal():
    # e2 is the metric quarter turn of e1 and beta is formed from scalars;
    # the one cross4 call left is the unit normal e3, which the lazy
    # FrameField.e3 and the catalog's normal bump both read
    assert _calls_by_function(lambda call: _callee(call) == "cross4") == [
        "surface.py:_unit_normal"]


def test_curvature_and_laplacian_form_no_vector_leg_past_e1(monkeypatch):
    # both residuals read beta, the leg coordinates and the mask only, so
    # e2 and e3 stay unformed and cross4 is never called
    calls = []
    cross4 = ambient.cross4

    def counted(*args):
        calls.append(1)
        return cross4(*args)

    monkeypatch.setattr(ambient, "cross4", counted)
    an = build_analysis(perturb(clifford(), (1, 2), 0.05).sample(n=16))
    calls.clear()   # the bump's base normal is one cross4 call while sampling
    an.res_curvature, an.res_laplacian
    assert calls == []
    assert not {"e2", "e3", "sign_mismatches"} & set(vars(an.frames))
    an.frames.e3
    assert calls == [1] and "e2" not in vars(an.frames)


def _jmul_fed_dots(tree):
    """Line numbers of dot calls with an argument that is a jmul or reeb call,
    or a name its function binds to one."""
    def is_jmul(node):
        return isinstance(node, ast.Call) and _callee(node) in ("jmul", "reeb")

    found = []
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        bound = {t.id for node in ast.walk(func)
                 if isinstance(node, ast.Assign) and is_jmul(node.value)
                 for t in node.targets if isinstance(t, ast.Name)}
        found += [node.lineno for node in ast.walk(func)
                  if isinstance(node, ast.Call) and _callee(node) == "dot"
                  and any(is_jmul(a) or isinstance(a, ast.Name) and a.id in bound
                          for a in node.args)]
    return sorted(set(found))


def test_inner_products_with_i_go_through_kahler():
    # <i a, b> is ambient.kahler(a, b), bit for bit dot(jmul(a), b) without
    # the (..., 4) temporary, and <v, i z> is kahler(z, v)
    found = [f"{path.name}:{line}" for path in PACKAGE
             for line in _jmul_fed_dots(_tree(path))]
    assert found == []
    # the guard sees both spellings
    planted = ast.parse("def f(a, b):\n    xi = jmul(a)\n    c = dot(b, xi)\n"
                        "    return c + ambient.dot(reeb(a), b)\n")
    assert _jmul_fed_dots(planted) == [3, 4]


def _is_four_vector_stack(call):
    # np.stack of a literal list or tuple of four arrays on the last axis
    if not (_callee(call) == "stack" and call.args
            and isinstance(call.args[0], (ast.List, ast.Tuple))):
        return False
    items = call.args[0].elts
    axes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "axis"]
    return (len(items) == 4 and not any(isinstance(e, ast.Starred) for e in items)
            and any(_is_last_axis(a) for a in axes))


def test_four_vectors_are_built_components_first():
    # np.stack(..., axis=-1) interleaves the components; a 4-vector field is
    # built with ambient.stack4, which stores it components-first, and no
    # other stack of four arrays on the last axis is left in the package
    assert _calls_by_function(_is_four_vector_stack) == []


def _trailing_new_axes(tree):
    """Line numbers of x[..., None] subscripts: a per-node scalar given a
    trailing axis to broadcast over a field's components."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple)
                  and [getattr(e, "value", e) for e in node.slice.elts] == [Ellipsis, None])


def test_fields_are_scaled_through_ambient_scale():
    # c[..., None] * X broadcasts over the interleaved (..., 4) view and makes
    # a (..., 4) temporary; ambient.scale forms the same values on the
    # components-first block, in place where asked
    found = [f"{path.name}:{line}" for path in PACKAGE
             for line in _trailing_new_axes(_tree(path))]
    assert found == []
    # the guard sees the broadcast in an expression and in an update
    planted = ast.parse("y = x - c[..., None] * z\nx /= n[..., None]\nw = a[None]\n")
    assert _trailing_new_axes(planted) == [1, 2]


def _references(tree, name):
    """Line numbers where tree reads or imports name: x.name, name, or an
    import of it."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == name
                  or isinstance(node, ast.Name) and node.id == name
                  or isinstance(node, ast.alias) and node.name == name)


def test_stencils_use_no_tensordot():
    # the stencils are banded row blocks, one small gemm per block; a dense
    # n x n tensordot is the O(n^3) path they replaced
    found = [f"{path.name}:{line}" for path in PACKAGE
             for line in _references(_tree(path), "tensordot")]
    assert found == []


def test_contractions_live_in_ambient():
    # one einsum over the component axis is bitwise the four-term sum only
    # when that axis is outermost in memory, which ambient.dot and
    # ambient.kahler check; an einsum anywhere else would skip the check
    found = {path.name: _references(_tree(path), "einsum") for path in PACKAGE}
    assert found.pop("ambient.py")
    assert [f"{name}:{lines}" for name, lines in found.items() if lines] == []
    # the guard sees a call, an import and a bare name, not a method dot
    planted = ast.parse("import numpy as np\nfrom numpy import einsum\n"
                        "c = np.einsum('k,k->', a, b)\nd = a.dot(b)\ne = einsum\n")
    assert _references(planted, "einsum") == [2, 3, 5]


@pytest.mark.parametrize("topology", [("periodic", "periodic"), ("chart", "periodic")])
def test_a_512_grid_holds_under_1_mib_of_stencil_weights(topology):
    # the four dense 512 x 512 operators took 8 MiB; the row blocks keep the
    # band only, and identical interior blocks share one array
    calc = GridCalc(GridSpec(512, 512, (0.2, 3.0), (0.0, 6.0), *topology))
    weights = {id(b.W): b.W.nbytes for op in (calc.Du, calc.Dv, calc.Duu, calc.Dvv)
               for b in op}
    assert 0 < sum(weights.values()) < 2 ** 20


def test_import_leaves_scipy_unloaded():
    # the package depends on numpy only
    code = "import sys, contactgeom; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _error_classes():
    """ContactGeomError and the names of its subclasses in errors.py."""
    bases = {node.name: {b.id for b in node.bases if isinstance(b, ast.Name)}
             for node in _tree(ROOT / "src" / "contactgeom" / "errors.py").body
             if isinstance(node, ast.ClassDef)}
    found = {"ContactGeomError"}
    while True:
        more = {name for name, parents in bases.items() if parents & found} - found
        if not more:
            return found
        found |= more


def test_cli_maps_package_errors_only_in_main():
    # main maps every ContactGeomError to its exit code and error: line; a
    # handler that catches one in a cmd_* function is a second copy of that map
    errors = _error_classes()
    tree = _tree(ROOT / "src" / "contactgeom" / "cli.py")
    owner = {id(node): func.name for func in ast.walk(tree)
             if isinstance(func, ast.FunctionDef) for node in ast.walk(func)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            names = {n.id if isinstance(n, ast.Name) else n.attr
                     for n in ast.walk(node.type)
                     if isinstance(n, (ast.Name, ast.Attribute))}
            found += [f"{owner.get(id(node))}:{name}" for name in sorted(names & errors)]
    assert found and all(f.startswith("main:") for f in found), found


def _bound_mismatches(tree):
    """Names of the module-level IDENTITY_BOUNDS and ORDER_THRESHOLD in tree
    that are missing or differ from calculus.IDENTITIES' bounds and
    ORDER_THRESHOLD."""
    program = {"IDENTITY_BOUNDS": {k: row.bound for k, row in IDENTITIES.items()},
               "ORDER_THRESHOLD": ORDER_THRESHOLD}
    copies = {t.id: ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign) for t in node.targets
              if isinstance(t, ast.Name) and t.id in program}
    return sorted(k for k, v in program.items() if copies.get(k) != v)


def test_identity_bounds_match_the_benchmark_copy():
    # the benchmark keeps its own copy of the bounds and the order threshold,
    # read here without importing it, so that no change to the program's
    # table can loosen a bound silently
    text = WORKLOADS.read_text()
    assert _bound_mismatches(ast.parse(text)) == []
    # the guard sees a loosened bound and a lowered threshold
    for old, new, name in (('"gauss": 5e-5', '"gauss": 5e-4', "IDENTITY_BOUNDS"),
                           ("ORDER_THRESHOLD = 1.7", "ORDER_THRESHOLD = 1.5",
                            "ORDER_THRESHOLD")):
        assert text.count(old) == 1
        assert _bound_mismatches(ast.parse(text.replace(old, new))) == [name]
