import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "starborel"


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
