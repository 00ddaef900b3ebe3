"""Package layout and documentation: the engine modules hold only the count
path, the set-based references live in ``amocount.oracle``, and the README's
Python examples run."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import amocount
import amocount.oracle as oracle_module

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "amocount"
ENGINE = ("counting", "graphs", "mec")
# The set-based references the mask code is checked against.
MOVED = (
    "lbfs_background",
    "LbfsResult",
    "forbidden_prefixes",
    "connected_components",
    "_is_maximal_clique",
    "_reroot",
    "phi",
    "psi",
)
# Names deleted from the package: the chain type ``phi`` no longer needs,
# the cap check that ``_PermCounter`` now makes alone, the chain pass that
# ``_group_table``'s link loop now makes, and the vertex cap on permutation
# counts with its option, its environment variable and the budget error
# that ``PermutationCapError`` now covers.
GONE = (
    "PrefixChain",
    "_checked_cap",
    "_prefix_chains",
    "DownSetBudgetError",
    "DEFAULT_PERMUTATION_CAP",
    "PSI_CAP_ENV",
    "_default_psi_cap",
)


def imported_modules(name):
    """Every module ``src/amocount/<name>.py`` imports, relative ones as
    ``.module``."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            out.add(base)
            if not node.module:  # from . import x
                out.update(base + alias.name for alias in node.names)
    return out


@pytest.mark.parametrize("name", ENGINE)
def test_engine_modules_import_nothing_from_the_oracle(name):
    imported = imported_modules(name)
    assert imported  # the walk found the module's imports
    assert not imported & {".oracle", "amocount.oracle"}, name


@pytest.mark.parametrize("name", MOVED)
def test_references_live_in_the_oracle_only(name):
    assert hasattr(oracle_module, name)
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem not in ("__init__", "oracle"):
            module = importlib.import_module(f"amocount.{path.stem}")
            assert not hasattr(module, name), (path.stem, name)
    assert not hasattr(amocount, name)
    assert name not in amocount.__all__


@pytest.mark.parametrize("name", GONE)
def test_deleted_names_stay_deleted(name):
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "__init__":
            assert not hasattr(importlib.import_module(f"amocount.{path.stem}"), name), path.stem
    assert not hasattr(amocount, name)


def test_session_stats_hold_no_test_only_check():
    # the recursion-bound check is the tests' own helper (conftest.py)
    assert not hasattr(amocount.SessionStats, "within_recursion_bound")


def test_every_public_name_resolves():
    assert len(set(amocount.__all__)) == len(amocount.__all__)
    for name in amocount.__all__:
        assert hasattr(amocount, name), name


def readme_python_blocks():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)


def test_readme_python_blocks_run(tmp_path):
    blocks = readme_python_blocks()
    assert blocks
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for i, code in enumerate(blocks):
        done = subprocess.run(
            [sys.executable, "-c", code],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, (i, done.stderr)
