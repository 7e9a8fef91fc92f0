"""The program is integer-exact: no float literal and no float conversion
anywhere in its source.  Its checks hold under python -O: the count of
assert sites (assert statements, which -O strips, and raises of
AssertionError) may only fall."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cubesum"


def _float_sites(path: Path) -> list[str]:
    sites = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            sites.append(f"{path.name}:{node.lineno}: constant {node.value!r}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("round", "float", "complex")):
            sites.append(f"{path.name}:{node.lineno}: call to {node.func.id}")
    return sites


def test_no_float_in_source():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 9
    assert [site for path in files for site in _float_sites(path)] == []


# assert sites left in src/cubesum: every check is an explicit raise
ASSERT_CEILING = 0


def _is_assert_site(node: ast.AST) -> bool:
    """An assert statement, or a raise of AssertionError itself, which
    reads as an assert though -O keeps it; raises of a named subclass such
    as verify.VerificationError are reports, not assert sites."""
    if isinstance(node, ast.Assert):
        return True
    if not isinstance(node, ast.Raise):
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_assert_count_only_falls():
    files = sorted(SRC.glob("*.py"))
    sites = [f"{path.name}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if _is_assert_site(node)]
    assert len(sites) <= ASSERT_CEILING, sites
