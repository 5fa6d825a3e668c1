"""Every eigensolve in the package goes through the numpy.linalg attributes.

``benchmark/spans.py`` counts eigensolves by patching ``numpy.linalg.eigh``
and ``numpy.linalg.eigvalsh``.  A call through a ``from numpy.linalg
import ...`` binding, an alias of ``numpy.linalg`` or scipy would run
uncounted, so the package source may use none of them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "loccdetect"


def is_linalg(node) -> bool:
    """True for the expressions np.linalg and numpy.linalg."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "linalg"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    )


def forbidden_bindings(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = {alias.name for alias in node.names}
            if module.split(".")[0] == "scipy" or module.startswith("numpy.linalg"):
                found.append(f"line {node.lineno}: from {module} import ...")
            elif module == "numpy" and "linalg" in names:
                found.append(f"line {node.lineno}: from numpy import linalg")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "scipy" or alias.name.startswith("numpy.linalg"):
                    found.append(f"line {node.lineno}: import {alias.name}")
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr)) and is_linalg(node.value):
            found.append(f"line {node.lineno}: alias of numpy.linalg")
    return found


@pytest.mark.parametrize(
    "line",
    [
        "from numpy.linalg import eigh",
        "import scipy.linalg",
        "from scipy import linalg",
        "import numpy.linalg as la",
        "from numpy import linalg",
        "la = np.linalg",
    ],
)
def test_scanner_flags_each_bypass(line):
    assert forbidden_bindings(f"import numpy as np\n{line}\n")


def test_package_calls_eigensolvers_through_numpy_linalg():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [f"{p.name} {hit}" for p in sources for hit in forbidden_bindings(p.read_text())]
    assert found == []
