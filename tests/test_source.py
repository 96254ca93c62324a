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
