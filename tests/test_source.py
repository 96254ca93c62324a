import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from starborel import (
    FormalSeries,
    MultiPoly,
    Truncation,
    UniOverPoly,
    VariableSet,
    eval_borel_star_rep,
    eval_formulahigh,
    eval_moyal_rep,
    eval_That_rep,
    hadamard_contour,
    sylvester_resultant,
)
from starborel import poly, series
from starborel.series import SparseTerms

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
    is defined in one module of the package only."""
    where = {}
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(top, ast.FunctionDef):
                where.setdefault(top.name, []).append(path.name)
    twice = {name: files for name, files in where.items() if len(files) > 1}
    assert not twice, f"functions defined in more than one module: {twice}"


def test_the_commutator_is_one_kernel_pass():
    """``moyal_commutator`` takes the odd orders of one ``_exp_pairing`` pass;
    it calls no full product, whose second call would double the work."""
    body, = [node for node in ast.parse((SRC / "star.py").read_text()).body
             if isinstance(node, ast.FunctionDef) and node.name == "moyal_commutator"]
    used = [node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(body) if isinstance(node, (ast.Name, ast.Attribute))]
    passes = used.count("_exp_pairing")
    assert passes == 1, f"moyal_commutator references _exp_pairing {passes} times"
    products = {"moyal_star", "standard_star", "star"} & set(used)
    assert not products, f"moyal_commutator references {sorted(products)}"


def test_one_division_loop_in_the_polynomial_layer():
    """Exact division is one heap loop: ``mp_divexact``, the heuristic gcd's
    proof and the Bareiss determinant call it, so one function of poly.py
    calls ``heappush``."""
    callers = [node.name for node in ast.walk(ast.parse((SRC / "poly.py").read_text()))
               if isinstance(node, ast.FunctionDef)
               and any(isinstance(call, ast.Call) and getattr(call.func, "id", None) == "heappush"
                       for call in ast.walk(node))]
    assert callers == ["_divide"], f"heappush called in {callers}"


def test_integral_evaluators_run_on_term_dicts(monkeypatch):
    """The integral representations run in ints on term dicts: none of them
    falls back to the series ring's product or derivative."""
    calls = []

    def counted(name):
        method = getattr(SparseTerms, name)

        def wrapper(self, *args, **kwargs):
            calls.append(name)
            return method(self, *args, **kwargs)
        return wrapper

    for name in ("__mul__", "diff"):
        monkeypatch.setattr(SparseTerms, name, counted(name))
    B1 = VariableSet.phase_space(1, "xi")
    f = FormalSeries.from_string("1/2*xi*p^2 + 3*q*p - 2/3*q^2", B1, Truncation(4, 4))
    g = FormalSeries.from_string("xi^2*q - 5/4*p^2 + q*p + 1", B1, Truncation(4, 4))
    results = [eval_borel_star_rep(f, g), eval_formulahigh(f, g), eval_moyal_rep(f, g),
               eval_That_rep(f), eval_That_rep(f, inverse=True), hadamard_contour(f, g)]
    assert all(not r.is_zero for r in results)
    assert not calls, f"series ring calls in the evaluators: {sorted(set(calls))}"


def test_the_sylvester_determinant_runs_on_packed_monomials(monkeypatch):
    """``sylvester_resultant`` packs its matrix once and eliminates on int
    keys: neither the series ring's product nor ``mp_divexact`` (which
    packs per call) is reached.  The case has the odot locus's shape:
    z^2 P(z1 + z, z2 + xi/z) for P of degree 2, cubic in z, and its z-derivative."""
    ring = VariableSet(("z1", "z2", "z3", "xi", "z"))
    z1, z2, z3, xi, z = (MultiPoly.variable(ring, n) for n in ring.names)
    a, b = z1 + z, z2 * z + xi  # z1 + z and z (z2 + xi/z)
    Q = b * b * 3 + a * z3 * z * z * 2 - a * z * z + b * z3 * z * 4 + z3 * z * z - z * z * 5
    dQ = Q.diff("z")
    assert (Q.degree("z"), dQ.degree("z")) == (3, 2)  # a 5x5 Sylvester matrix
    calls = []

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(SparseTerms, "__mul__", counted("__mul__", SparseTerms.__mul__))
    monkeypatch.setattr(poly, "mp_divexact", counted("mp_divexact", poly.mp_divexact))
    res = sylvester_resultant(UniOverPoly("z", Q), UniOverPoly("z", dQ))
    assert not res.is_zero
    assert not calls, f"the elimination called {sorted(set(calls))}"


def test_importing_the_cli_does_not_load_numpy():
    """numpy is imported by the float checks that use it, on first use, so
    start-up (every CLI call) does not pay for it."""
    code = "import sys, starborel.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.stdout.strip() == "False"


def test_the_cli_loads_no_third_party_package():
    """The command line runs on the standard library and the package itself;
    numpy, the one runtime dependency, is loaded by the float checks that use it."""
    code = ("import sys; before = set(sys.modules); import starborel.cli\n"
            "for name in sorted(set(sys.modules) - before): print(name.split('.')[0])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    loaded = set(out.stdout.split())
    assert "starborel" in loaded
    foreign = loaded - set(sys.stdlib_module_names) - {"starborel"}
    assert not foreign, f"importing starborel.cli loads {sorted(foreign)}"
    deps = re.search(r"^dependencies = \[(.*?)\]", (ROOT / "pyproject.toml").read_text(),
                     re.M | re.S).group(1)
    assert re.findall(r'"([A-Za-z0-9_.-]+)', deps) == ["numpy"]


def test_every_imported_name_is_read():
    """A module-level import that nothing in its module reads is left over from
    a deletion.  ``__init__.py`` imports to re-export, and ``__future__``
    imports switch on language features; both are left out."""
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for top in tree.body:
            if isinstance(top, ast.ImportFrom) and top.module == "__future__":
                continue
            if isinstance(top, (ast.Import, ast.ImportFrom)):
                unread += [f"{path.name}:{top.lineno} {a.asname or a.name.split('.')[0]}"
                           for a in top.names if (a.asname or a.name.split(".")[0]) not in read]
    assert not unread, f"imported but never read: {unread}"


def _owners(path, wanted):
    """The functions of a module, methods as ``Class.method``, with a node
    inside them (nested functions count for the one that holds them) that
    ``wanted`` accepts."""
    tops = []
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(top, ast.ClassDef):
            tops += [(f"{top.name}.{f.name}", f) for f in top.body if isinstance(f, ast.FunctionDef)]
        elif isinstance(top, ast.FunctionDef):
            tops.append((top.name, top))
    return {f"{path.name}:{name}" for name, body in tops if any(map(wanted, ast.walk(body)))}


def _calls(node, name):
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == name


def test_int_numerators_leave_through_new():
    """The int kernels hand their numerators and their one denominator to
    ``SparseTerms._new``, which divides: no other function of the series
    ring, the star kernel or the integral representations builds
    ``Fraction``s in a comprehension."""
    comprehensions = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)

    def builds_fractions(node):
        return isinstance(node, comprehensions) and any(
            _calls(inner, "Fraction") for inner in ast.walk(node))
    found = set().union(*(_owners(SRC / name, builds_fractions)
                          for name in ("series.py", "star.py", "integral.py")))
    assert found == {"series.py:SparseTerms._new"}, f"Fraction comprehensions in {sorted(found)}"


def test_the_borel_plane_leaves_ints_through_new():
    """β and the conjugated products leave the kernel's ints through the
    same one division in ``_new``: borel.py builds no ``Fraction``s in a
    comprehension either."""
    comprehensions = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)

    def builds_fractions(node):
        return isinstance(node, comprehensions) and any(
            _calls(inner, "Fraction") for inner in ast.walk(node))
    found = _owners(SRC / "borel.py", builds_fractions)
    assert not found, f"Fraction comprehensions in {sorted(found)}"


def test_the_conjugations_are_one_kernel_pass():
    """``borel_star``, ``borel_T`` and ``odot_ij`` each run one
    ``_exp_pairing`` pass that leaves through β: none of them goes through a
    t-plane product, T or ``borel``, which would divide a second time."""
    bodies = {node.name: node for node in ast.parse((SRC / "borel.py").read_text()).body
              if isinstance(node, ast.FunctionDef)
              and node.name in ("borel_star", "borel_T", "odot_ij")}
    assert sorted(bodies) == ["borel_T", "borel_star", "odot_ij"]
    for name, body in bodies.items():
        used = [node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(body) if isinstance(node, (ast.Name, ast.Attribute))]
        passes = used.count("_exp_pairing")
        assert passes == 1, f"{name} references _exp_pairing {passes} times"
        detours = {"borel", "star", "standard_star", "moyal_star", "transition_T"} & set(used)
        assert not detours, f"{name} references {sorted(detours)}"


def test_product_keys_are_built_in_the_window_product_only():
    """One product loop: exponent keys summed entrywise, as
    ``tuple(map(add, e1, e2))`` or ``tuple(a + b for a, b in zip(e1, e2))``,
    are built in ``series._window_product`` only, which ``*`` runs with or
    without a window and ``borel.hadamard`` runs on the xi-slices."""

    def product_key(node):
        if not (_calls(node, "tuple") and node.args):
            return False
        arg = node.args[0]
        if _calls(arg, "map"):
            return getattr(arg.args[0], "id", None) == "add"
        return isinstance(arg, (ast.GeneratorExp, ast.ListComp)) \
            and isinstance(arg.elt, ast.BinOp) and isinstance(arg.elt.op, ast.Add) \
            and any(_calls(gen.iter, "zip") for gen in arg.generators)
    found = set().union(*(_owners(path, product_key) for path in sorted(SRC.glob("*.py"))))
    assert found == {"series.py:_window_product"}, f"product keys built in {sorted(found)}"


def test_the_packed_loops_run_on_ints():
    """Exact division divides the integer primitive parts (Gauss's lemma), so
    the packed loops (division, fused multiply-subtract, the determinant and
    the heuristic gcd) never name ``Fraction``."""
    loops = {f"poly.py:{name}" for name in ("_divide", "_fms", "_bareiss_det", "_heu_gcd")}
    assert loops <= _owners(SRC / "poly.py", lambda node: isinstance(node, ast.FunctionDef))
    found = loops & _owners(SRC / "poly.py",
                            lambda node: isinstance(node, ast.Name) and node.id == "Fraction")
    assert not found, f"Fraction named in {sorted(found)}"


def test_the_hadamard_product_runs_one_product_per_slice_pair():
    """``borel.hadamard`` moves each left slice to xi^n and multiplies it
    with the right slice in one ``_window_product`` call: no inner slice
    product is taken first."""
    body, = [node for node in ast.parse((SRC / "borel.py").read_text()).body
             if isinstance(node, ast.FunctionDef) and node.name == "hadamard"]
    calls = sum(_calls(node, "_window_product") for node in ast.walk(body))
    assert calls == 1, f"hadamard calls _window_product {calls} times"


def test_one_binding_loop():
    """Putting rationals in for variables is one loop, ``series._put``: the
    heuristic gcd's integer evaluation imports it, and ``evaluate`` and
    ``evaluate_partial`` call it on the scaled terms."""
    assert poly._put is series._put
    found = _owners(SRC / "series.py", lambda node: _calls(node, "_put"))
    assert found == {"series.py:SparseTerms.evaluate", "series.py:SparseTerms.evaluate_partial"}, \
        f"_put called in {sorted(found)}"


def test_the_window_clip_is_new():
    """``_new`` is the one window clip, which the constructor also runs:
    only the parser, which raises on a term outside the window instead of
    dropping it, asks ``Truncation.admits`` in the series ring."""

    def asks_admits(node):
        return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "admits"
    found = _owners(SRC / "series.py", asks_admits)
    assert found == {"series.py:SparseTerms.from_string"}, f"admits called in {sorted(found)}"


def test_every_module_parses_at_the_declared_python_floor():
    """The test dependencies may exist for a newer Python only, so the syntax
    floor that ``requires-python`` declares is checked by parsing: no module
    may use syntax that is newer than the floor, such as ``except*``
    below 3.11."""
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$',
                      (ROOT / "pyproject.toml").read_text(), re.M)
    assert floor, "pyproject.toml declares no requires-python floor"
    version = tuple(map(int, floor.groups()))
    for path in sorted(SRC.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=version)
    with pytest.raises(SyntaxError):  # the parser enforces a floor, it does not ignore it
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


def test_exact_division_and_the_product_formula_split_no_content():
    """``mp_divexact`` packs ``_scaled``'s ints and B's primitive part itself,
    and ``product_discriminant`` multiplies the three factors as
    ``sylvester_resultant`` returns them: neither calls ``_split_content``."""
    found = _owners(SRC / "poly.py", lambda node: _calls(node, "_split_content"))
    for name in ("mp_divexact", "product_discriminant"):
        assert f"poly.py:{name}" not in found, f"{name} calls _split_content"


def test_the_resultant_enters_ints_through_scaled():
    """``sylvester_resultant`` runs its determinant on ``_scaled``'s ints and
    leaves through ``_new``: it neither splits off a content nor scales its
    result, and the polynomial calculus never names ``Fraction``."""
    tree = ast.parse((SRC / "poly.py").read_text())
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "fractions"
             or isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)
             or isinstance(node, ast.Name) and node.id == "Fraction"]
    assert not found, f"poly.py names fractions or Fraction at lines {found}"
    tops = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "_split_content" not in tops, "poly.py defines _split_content"
    called = {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
              for node in ast.walk(tops["sylvester_resultant"]) if isinstance(node, ast.Call)
              and isinstance(node.func, (ast.Name, ast.Attribute))}
    assert "_scaled" in called, "sylvester_resultant does not call _scaled"
    assert not called & {"scale", "_split_content"}, \
        f"sylvester_resultant calls {sorted(called & {'scale', '_split_content'})}"


def test_running_powers_take_no_pow():
    """The cleared family and the examples suite's closed forms keep a running
    power, one product per step, instead of raising a power anew per degree."""

    def calls_pow(node):
        return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "pow"
    found = _owners(SRC / "locus.py", calls_pow) | _owners(SRC / "suites.py", calls_pow)
    for where in ("locus.py:_cleared_family", "suites.py:examples_suite"):
        assert where not in found, f"{where} calls .pow"
