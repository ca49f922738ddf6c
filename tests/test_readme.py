"""Every test the README cites by name exists.

A reference is ``tests/<file>.py::<name>``, optionally followed by
``::<member>``; a bare ``::<name>`` belongs to the last file named before it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = re.compile(r"(tests/\w+\.py)?((?:::[A-Za-z_]\w*)+)")


def _readme_references():
    """``(file, (name, member, ...))`` of every reference, in README order."""
    refs, last_file = [], None
    for match in REFERENCE.finditer((ROOT / "README.md").read_text(encoding="utf-8")):
        last_file = match.group(1) or last_file
        assert last_file is not None, f"{match.group(0)!r} names no file before it"
        refs.append((last_file, tuple(match.group(2).split("::")[1:])))
    return refs


def _defines(body, name):
    """The test function or class ``name`` defined in ``body``, or None."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return node
    return None


def test_readme_cites_existing_tests():
    refs = _readme_references()
    assert len(refs) >= 10
    missing = []
    for file, names in refs:
        path = ROOT / file
        node = ast.parse(path.read_text(encoding="utf-8")) if path.exists() else None
        for name in names:
            node = _defines(node.body, name) if node is not None else None
        if node is None or not names[-1].startswith(("test_", "Test")):
            missing.append(f"{file}::{'::'.join(names)}")
    assert not missing, f"README cites tests that do not exist: {missing}"
