"""The package imports only the standard library and mpmath.

pyproject.toml lists mpmath as the one runtime dependency; pytest,
hypothesis and the test helpers are for the tests, and sympy is not a
dependency at all, so none of them may be imported under ``src/``.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chirotri"


def test_package_imports_only_the_standard_library_and_mpmath():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) > 10
    outside = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # a relative import stays inside the package
            outside += [(path.name, node.lineno, name) for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names
                        and name.split(".")[0] != "mpmath"]
    assert outside == []
