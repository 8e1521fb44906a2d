"""Dead-code, dependency and structure guards over the package source.  The
source guards parse it with the standard library's ast; one guard also
measures the stencil weights a grid holds, one counts the cross4 calls
and 4-vector legs an analysis, analyze and a descent step form, and one
compares the identity bounds
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
from contactgeom.cli import main
from contactgeom.flow import FlowConfig, descend
from contactgeom.gridops import GridCalc
from contactgeom.surface import FrameField, GridSpec

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


def _is_axis(node, k):
    """Whether node is the literal axis k: k itself, or -1 for k = -1."""
    return _is_last_axis(node) if k == -1 else (
        isinstance(node, ast.Constant) and type(node.value) is int and node.value == k)


def _component_sums(tree):
    """Line numbers of np.sum(x * y, 0) calls, axis given by position or keyword."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "sum" and node.args
                and isinstance(node.args[0], ast.BinOp)
                and isinstance(node.args[0].op, ast.Mult)):
            continue
        axes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "axis"]
        if any(_is_axis(a, 0) for a in axes):
            found.append(node.lineno)
    return found


def test_inner_products_go_through_ambient_dot():
    # np.sum(x * y, 0) over the leading component axis of two 4-vector
    # fields is ambient.dot; a second copy of the kernel is what this guard
    # keeps out of the package
    found = [f"{path.name}:{line}" for path in PACKAGE
             for line in _component_sums(_tree(path))]
    assert found == []
    # the guard sees the axis by position and by keyword, and passes a sum
    # over every entry, a sum of a sum and the trailing axis
    planted = ast.parse("a = np.sum(x * y, 0)\nb = np.sum(x * y, axis=0)\n"
                        "c = np.sum(x * y)\nd = np.sum(x + y, 0)\ne = np.sum(x * y, -1)\n")
    assert _component_sums(planted) == [1, 2]


def test_lengths_go_through_ambient_norm():
    # ambient.norm is sqrt(dot(a, a)), bit for bit np.linalg.norm(a, axis=0)
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


def _functions(tree, prefix=""):
    """(name, node) of each function in tree, outermost first; a method is
    named Class.method and a nested function outer.inner."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if isinstance(node, ast.FunctionDef):
                yield prefix + node.name, node
            yield from _functions(node, prefix + node.name + ".")
        else:
            yield from _functions(node, prefix)


def _owners(tree):
    """{id(node): name of its innermost enclosing function}; module-level
    nodes are absent."""
    return {id(node): name for name, func in _functions(tree) for node in ast.walk(func)}


def _calls_by_function(is_wanted):
    """"module.py:function" for each package call is_wanted accepts."""
    found = []
    for path in PACKAGE:
        tree = _tree(path)
        owner = _owners(tree)
        found += [f"{path.name}:{owner.get(id(node))}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and is_wanted(node)]
    return found


def test_cross4_forms_only_the_normal():
    # e2 is the metric quarter turn of e1 and beta is formed from scalars;
    # the one cross4 call left is the unit normal e3, which the lazy
    # FrameField.e3 and the catalog's normal bump both read
    assert _calls_by_function(lambda call: _callee(call) == "cross4") == [
        "surface.py:_unit_normal"]


def test_curvature_and_laplacian_form_no_vector_leg_past_e1(monkeypatch, tmp_path):
    # both residuals read beta, the leg coordinates and the mask only, so
    # no leg is formed and cross4 is never called.  The shape operator
    # differentiates e3 and contracts it with e1 and e2 one component at a
    # time, so analyze and a descent step form e3 alone: FrameField._leg,
    # which forms e1 and e2 (and sign_mismatches, through e1), never runs
    calls, legs = [], []
    cross4, leg = ambient.cross4, FrameField._leg

    def counted(*args):
        calls.append(1)
        return cross4(*args)

    def formed(self, coeff):
        legs.append(1)
        return leg(self, coeff)

    monkeypatch.setattr(ambient, "cross4", counted)
    monkeypatch.setattr(FrameField, "_leg", formed)
    grid = perturb(clifford(), (1, 2), 0.05).sample(n=16)
    an = build_analysis(grid)
    calls.clear()   # the bump's base normal is one cross4 call while sampling
    an.res_curvature, an.res_laplacian
    assert calls == []
    assert not {"e1", "e2", "e3", "sign_mismatches"} & set(vars(an.frames))
    an.frames.e3
    assert calls == [1] and legs == []
    assert main(["analyze", "--surface", "clifford", "--param", "eps=0.05",
                 "--param", "m=1", "--param", "n=2", "--grid", "16x16",
                 "--out", str(tmp_path)]) == 0
    report, _ = descend(grid, FlowConfig(max_iter=1, tol=1e-12))
    assert report.iterations == 1
    assert legs == []
    # the counter sees a formed leg
    an.frames.e1
    assert legs == [1]


def _leg_reads(tree):
    """Line numbers where tree reads an attribute named e1 or e2."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in ("e1", "e2"))


def test_commands_read_no_formed_leg():
    # the analysis, the descent and the CLI read e1 and e2 through their
    # coordinates (coeff1, coeff2) only; FrameField.e1 and .e2 are the
    # formed legs the tests, demo 02 and sign_mismatches read
    found = [f"{name}:{line}" for name in ("calculus.py", "flow.py", "cli.py")
             for line in _leg_reads(_tree(ROOT / "src" / "contactgeom" / name))]
    assert found == []
    # the guard sees a read, a read in a call and a store of either leg,
    # and passes e3, the coordinates and a bare name e1
    planted = ast.parse("a = frames.e1\nb = f(an.frames.e2)\nff.e1 = -ff.e1\n"
                        "c = frames.e3 + frames.coeff1\ne1 = 1\n")
    assert _leg_reads(planted) == [1, 2, 3, 3]


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
    # the 4-vector temporary, and <v, i z> is kahler(z, v)
    found = [f"{path.name}:{line}" for path in PACKAGE
             for line in _jmul_fed_dots(_tree(path))]
    assert found == []
    # the guard sees both spellings
    planted = ast.parse("def f(a, b):\n    xi = jmul(a)\n    c = dot(b, xi)\n"
                        "    return c + ambient.dot(reeb(a), b)\n")
    assert _jmul_fed_dots(planted) == [3, 4]


def _is_trailing_layout(call):
    """Whether call builds or reads a 4-vector field with its components
    last: np.stack of a literal list or tuple of four arrays on the last
    axis, or np.moveaxis(x, -1, 0)."""
    args = call.args + [k.value for k in call.keywords]
    if _callee(call) == "moveaxis":
        return len(args) == 3 and _is_axis(args[1], -1) and _is_axis(args[2], 0)
    if not (_callee(call) == "stack" and call.args
            and isinstance(call.args[0], (ast.List, ast.Tuple))):
        return False
    items = call.args[0].elts
    axes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "axis"]
    return (len(items) == 4 and not any(isinstance(e, ast.Starred) for e in items)
            and any(_is_last_axis(a) for a in axes))


def test_four_vectors_are_built_components_first():
    # a 4-vector field is a (4, n_u, n_v) array: np.stack(..., axis=-1)
    # would interleave the components, and np.moveaxis(x, -1, 0) reads a
    # field laid out that way; ambient.stack4 builds a field, and a field's
    # components are its leading index
    assert _calls_by_function(_is_trailing_layout) == []
    # the guard sees both spellings of the stack and the move, and passes a
    # components-first stack, a stack of columns with a starred field and
    # the opposite move
    planted = ast.parse("a = np.stack([p, q, r, s], axis=-1)\nb = np.stack((p, q, r, s), -1)\n"
                        "c = np.moveaxis(x, -1, 0)\nd = np.stack([p, q, r, s])\n"
                        "e = np.stack([u, v, *x], axis=-1)\nf = np.moveaxis(x, 0, -1)\n")
    assert [node.lineno for node in ast.walk(planted)
            if isinstance(node, ast.Call) and _is_trailing_layout(node)] == [1, 2, 3]


def _trailing_subscripts(tree):
    """Line numbers of x[..., k] subscripts with one index after the
    ellipsis: a component, a slice of components or a new axis (None)."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple)
                  and len(node.slice.elts) == 2
                  and getattr(node.slice.elts[0], "value", None) is Ellipsis)


def test_fields_are_indexed_components_first():
    # a 4-vector field's component k is x[k], and a per-node scalar c
    # scales it as it is, c * x; x[..., k] and c[..., None] index a
    # trailing component axis, which no field has.  The shape operator's
    # S[..., i, j] indexes its trailing (2, 2) and stays legal
    found = [f"{path.name}:{line}" for path in PACKAGE
             for line in _trailing_subscripts(_tree(path))]
    assert found == []
    # the guard sees a component, a name, a negative index, a slice and a
    # new axis, in an expression and in an update, and passes S's entries
    planted = ast.parse("y = x[..., 0] + x[..., k]\nx /= n[..., None]\nz = x[..., -1]\n"
                        "w = t[..., 2:6]\nh = S[..., 0, 1]\nq = x[0] * a[None] * x[:, :, 0]\n")
    assert _trailing_subscripts(planted) == [1, 1, 2, 3, 4]


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


def _gemms(tree):
    """"function:line" of each matmul call and each @ product in tree."""
    owner = _owners(tree)
    return sorted(f"{owner.get(id(node))}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and _callee(node) == "matmul"
                  or isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult))


def test_stencils_apply_through_one_matmul():
    # gridops._apply applies every operator along either axis, one gemm per
    # component and per block; a second gemm site would be a per-axis path
    # whose bits could drift from the first
    gridops = ROOT / "src" / "contactgeom" / "gridops.py"
    assert [site.partition(":")[0] for site in _gemms(_tree(gridops))] == ["_apply"]
    # the guard sees np.matmul, a bare matmul and the @ operator
    planted = ast.parse("def f(a, b):\n    return np.matmul(a, b) + matmul(a, b)\n"
                        "def g(a, b):\n    return a @ b\n")
    assert _gemms(planted) == ["f:2", "f:2", "g:4"]


def _loop_depths(func, name):
    """Number of loops around each call to name in func, in source order."""
    depths = []

    def visit(node, depth):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and _callee(child) == name:
                depths.append(depth)
            visit(child, depth + isinstance(child, (ast.For, ast.While)))

    visit(func, 0)
    return depths


def test_descent_runs_one_line_search_per_iteration():
    # flow.descend forms one direction per iteration and searches along it
    # at most once; a stalled search ends the run, so no retry loop nests
    # the search and no L-BFGS memory is cleared
    tree = _tree(ROOT / "src" / "contactgeom" / "flow.py")
    assert _loop_depths(dict(_functions(tree))["descend"], "_line_search") == [1]
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _callee(node) == "clear"] == []
    # the guard counts the loops around each call site
    planted = ast.parse("def f(a):\n    while a:\n        while True:\n"
                        "            a = _line_search(a)\n    return _line_search(a)\n")
    assert _loop_depths(planted.body[0], "_line_search") == [2, 0]


def test_contractions_live_in_ambient():
    # ambient.dot and ambient.kahler are the one einsum each over the
    # leading component axis of a (4, ...) field, which adds each node's
    # products in the four-term sum's order; an einsum anywhere else would
    # be a second contraction kernel, with an order of its own
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
    # band only, and identical interior blocks share one W and one WT array
    calc = GridCalc(GridSpec(512, 512, (0.2, 3.0), (0.0, 6.0), *topology))
    weights = {id(w): w.nbytes for op in (calc.Du, calc.Dv, calc.Duu, calc.Dvv)
               for b in op for w in (b.W, b.WT)}
    assert 0 < sum(weights.values()) < 2 ** 20


def test_import_leaves_scipy_unloaded():
    # the package depends on numpy only
    code = "import sys, contactgeom; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _sites(tree, names):
    """"owner:line" of each read or import of any of names in tree, in line
    order: x.name, name, an imported name or module; the owner is None at
    module level."""
    owner = _owners(tree)
    found = [node for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in names
             or isinstance(node, ast.Name) and node.id in names
             or isinstance(node, ast.alias) and node.name.split(".")[0] in names
             or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in names]
    return [f"{owner.get(id(node))}:{node.lineno}"
            for node in sorted(found, key=lambda node: node.lineno)]


def test_only_the_cli_entry_point_sets_the_allocator():
    # cli._keep_freed_memory is the one place that loads ctypes and calls
    # mallopt, and cli.main its one caller: importing the package leaves a
    # host process's allocator as it found it
    def sites(names):
        return [f"{path.name}:{site.rpartition(':')[0]}" for path in PACKAGE
                for site in _sites(_tree(path), names)]

    assert set(sites({"ctypes", "mallopt"})) == {"cli.py:_keep_freed_memory"}
    assert sites({"_keep_freed_memory"}) == ["cli.py:main"]
    # the guard sees a module-level import, a from-import, a call in
    # another function and a bare name
    planted = ast.parse("import ctypes\ndef f():\n    from ctypes import CDLL\n"
                        "    return CDLL(None).mallopt(-3, 1)\ng = mallopt\n")
    assert _sites(planted, {"ctypes", "mallopt"}) == ["None:1", "f:3", "f:4", "None:5"]


def _handlers_outside(tree, function):
    """"owner:line" of each except handler of tree outside the function,
    in line order."""
    owner = _owners(tree)
    handlers = sorted((node for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler)
                       and owner.get(id(node)) != function), key=lambda node: node.lineno)
    return [f"{owner.get(id(node))}:{node.lineno}" for node in handlers]


def test_cli_maps_package_errors_only_in_main():
    # main is the one map from an error to its exit code and error: line; a
    # handler anywhere else in cli, in a cmd_* function or an argparse
    # type, would be a second copy of that map
    tree = _tree(ROOT / "src" / "contactgeom" / "cli.py")
    assert _handlers_outside(tree, "main") == []
    main_def = dict(_functions(tree))["main"]
    caught = {n.id for node in ast.walk(main_def) if isinstance(node, ast.ExceptHandler)
              for n in ast.walk(node.type) if isinstance(n, ast.Name)}
    assert "ContactGeomError" in caught
    # the guard sees a handler in another function, in a method and at
    # module level, and passes main's
    planted = ast.parse("def main():\n    try:\n        f()\n    except E:\n        pass\n"
                        "def cmd():\n    try:\n        f()\n    except ValueError:\n"
                        "        pass\nclass C:\n    def m(self):\n        try:\n"
                        "            f()\n        except KeyError:\n            pass\n"
                        "try:\n    import x\nexcept ImportError:\n    x = None\n")
    assert _handlers_outside(planted, "main") == ["cmd:9", "C.m:15", "None:19"]


def _bare_raises(tree):
    """Owner of each raise of a bare ValueError or KeyError in tree, called
    or not."""
    owner = _owners(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in ("ValueError", "KeyError"):
                found.append(owner.get(id(node)))
    return found


# the checks whose failure is the program's fault, not its input's: a
# 4-vector or point array in the wrong layout, a table the writer cannot
# lay out, a non-finite output
PROGRAM_FAULTS = {"ambient.py:_vec", "surface.py:SurfaceGrid.__init__",
                  "sampleio.py:write_table", "cli.py:_rounded",
                  "cli.py:_check_finite_columns"}


def test_bare_value_and_key_errors_are_program_faults():
    # an argument check raises RangeError, which cli.main maps to exit 2; a
    # bare ValueError or KeyError propagates out of main as a traceback
    found = {f"{path.name}:{site}" for path in PACKAGE for site in _bare_raises(_tree(path))}
    assert found == PROGRAM_FAULTS
    # the guard sees a called and a bare raise, in a function and a method,
    # and passes a typed error and a re-raise
    planted = ast.parse("def f(x):\n    raise ValueError(x)\nclass C:\n"
                        "    def g(self):\n        raise KeyError\n"
                        "    def h(self):\n        raise RangeError('x')\n"
                        "def k():\n    try:\n        f()\n    except ValueError:\n"
                        "        raise\n")
    assert _bare_raises(planted) == ["f", "C.g"]


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
