import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "starborel"


def test_no_assert_statements():
    """Invariant checks raise StarBorelError: ``python -O`` strips asserts."""
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = [f"{path.name}:{node.lineno}" for path in sources
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements at {found}"


def test_integral_imports_no_definitions_it_checks():
    """The integral representations cross-check star, borel and poly, so
    integral.py may import from the package only the errors and the series
    ring."""
    imported = set()
    for node in ast.walk(ast.parse((SRC / "integral.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level and not node.module:
            imported |= {f"starborel.{a.name}" for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add("starborel." * bool(node.level) + node.module)
        elif isinstance(node, ast.Import):
            imported |= {a.name for a in node.names}
    package = {m for m in imported if m.split(".")[0] == "starborel"}
    assert package <= {"starborel.errors", "starborel.series"}, \
        f"integral.py imports {sorted(package)}"


def test_only_the_series_ring_names_the_phase_pairs():
    """The names (q_j, p_j) are spelled in ``series.VariableSet`` only;
    every other module reads them from ``VariableSet.phase_pairs()``."""
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             if path.name != "series.py"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Attribute) and node.attr in ("q_name", "p_name")]
    assert not found, f"q_name or p_name called at {found}"


def test_star_oracles_do_not_call_the_kernel():
    """The closed Borel formula and the Poisson bracket cross-check the star
    kernel, so neither may reach it through any of its entry points."""
    kernel = {"_exp_pairing", "standard_star", "moyal_star", "star", "transition_T"}
    bodies = {}
    for path in (SRC / "borel.py", SRC / "star.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and node.name in (
                    "borel_star_standard_formula", "poisson_bracket"):
                bodies[node.name] = node
    assert sorted(bodies) == ["borel_star_standard_formula", "poisson_bracket"]
    for name, body in bodies.items():
        used = {node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(body) if isinstance(node, (ast.Name, ast.Attribute))}
        assert not used & kernel, f"{name} references {sorted(used & kernel)}"


def test_every_export_has_a_caller_outside_tests():
    """Each name the package exports is read somewhere in the package (not
    its own definition), in the benchmark or in the README."""
    init = SRC / "__init__.py"
    exported = {a.asname or a.name for node in ast.parse(init.read_text()).body
                if isinstance(node, ast.ImportFrom) for a in node.names}
    used = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    for path in [*SRC.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        if path == init:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    assert not exported - used, f"exported but unused: {sorted(exported - used)}"


def _is_fraction_zero(node, names=()):
    """``Fraction(0)``, ``Fraction()`` or a module name bound to one."""
    if isinstance(node, ast.Name):
        return node.id in names
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "Fraction" and not node.keywords
            and (not node.args or (len(node.args) == 1 and isinstance(node.args[0], ast.Constant)
                                   and node.args[0].value == 0)))


def test_no_fraction_zero_accumulators():
    """Coefficients are ints when integral, and a sum started from
    ``Fraction(0)`` turns int sums back into Fractions: no module binds a
    name to ``Fraction(0)`` or starts a ``.get`` default or a ``sum`` from it.
    Returned or listed zeros are values, not accumulators, and stay allowed."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        names = {t.id for node in tree.body if isinstance(node, ast.Assign)
                 and _is_fraction_zero(node.value) for t in node.targets
                 if isinstance(t, ast.Name)}
        for node in ast.walk(tree):
            # the called name: d.get(...), get(...) for get = d.get, sum(...)
            called = getattr(getattr(node, "func", None), "attr", None) \
                or getattr(getattr(node, "func", None), "id", None)
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                starts = [node.value]
            elif called in ("get", "sum"):
                starts = node.args[1:2] + [k.value for k in node.keywords if k.arg == "start"]
            else:
                continue
            if any(v is not None and _is_fraction_zero(v, names) for v in starts):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"Fraction(0) accumulators at {found}"


def test_every_private_module_name_is_read():
    """A module-level private function, class or name (``_x``, not a dunder)
    that nothing in the package reads, outside its own definition, is left
    over from a deletion."""
    defined, read = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                names = {top.name}
            elif isinstance(top, (ast.Assign, ast.AnnAssign)):
                targets = top.targets if isinstance(top, ast.Assign) else [top.target]
                names = {node.id for target in targets for node in ast.walk(target)
                         if isinstance(node, ast.Name)}
            else:
                names = set()
            own = {n for n in names if n.startswith("_") and not n.startswith("__")}
            defined.update((n, f"{path.name}:{top.lineno}") for n in own)
            read |= {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(top)
                     if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                     or isinstance(node, ast.Attribute)} - own
    unread = sorted(where for name, where in defined.items() if name not in read)
    assert not unread, f"private names nothing reads at {unread}"


def test_no_function_is_defined_in_two_modules():
    """One loop per concept: a module-level function name (say ``_derive``)
    is defined in one module of the package only.  Decorated definitions are
    left out: the CLI's commands are named after the functions they call."""
    where = {}
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(top, ast.FunctionDef) and not top.decorator_list:
                where.setdefault(top.name, []).append(path.name)
    twice = {name: files for name, files in where.items() if len(files) > 1}
    assert not twice, f"functions defined in more than one module: {twice}"
