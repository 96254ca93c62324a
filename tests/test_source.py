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
