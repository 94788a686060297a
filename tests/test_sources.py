"""Every gllab module parses as the oldest Python that pyproject.toml
declares, although the tests may run on a newer one."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
OLDEST = (3, 10)
MODULES = sorted((ROOT / "src" / "gllab").glob("*.py"))


def test_oldest_python_matches_pyproject():
    declared = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"',
                         (ROOT / "pyproject.toml").read_text())
    assert tuple(map(int, declared.groups())) == OLDEST
    assert MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_parses_as_the_oldest_python(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=OLDEST)
