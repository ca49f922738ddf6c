"""The README is in step with the code: every test it cites by name exists,
and its CLI examples, config keys and output file headers are the CLI's.

A reference is ``tests/<file>.py::<name>``, optionally followed by
``::<member>``; a bare ``::<name>`` belongs to the last file named before it.
"""

import ast
import json
import re
import shlex
from pathlib import Path

from randperiodic import cli

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


def _readme():
    return (ROOT / "README.md").read_text(encoding="utf-8")


def test_readme_lists_the_config_keys():
    [keys] = re.findall(r"keys\s+drawn\s+from:((?:\s*`\w+`,?)+)", _readme())
    listed = re.findall(r"`(\w+)`", keys)
    assert len(listed) == len(set(listed))
    assert set(listed) == cli._KNOWN_CONFIG_KEYS


def test_readme_cli_quick_start_parses():
    section = _readme().split("## Quick start (CLI)", 1)[1]
    block = section.split("```", 2)[1]
    lines = [line for line in block.splitlines() if line.startswith("randperiodic ")]
    assert len(lines) == len(cli._COMMANDS)
    parser = cli._build_parser()
    for line in lines:
        argv = shlex.split(line)[1:]
        assert parser.parse_args(argv).command == argv[0]


def test_readme_csv_headers_match_the_files(tmp_path, capsys):
    section = _readme().split("## Quick start (CLI)", 1)[1].split("\n## ", 1)[0]
    headers = re.findall(r"`([\w{},*]+\.csv)`\s*\(`([^`]+)`", section)
    assert len(headers) == 5
    model = tmp_path / "model2d.json"
    model.write_text(json.dumps({
        "lambda": [3.0, 5.0], "drift": {"poly_coeffs": [0, 0, 0, -1]}, "g": {"amp": 0.3},
        "tau": 1.0, "constants": {"C_f": 0.0},
    }))
    out = tmp_path / "out"
    for argv in (
        ("simulate", "--model", str(model), "--h", "0.0625", "--pullback-periods", "1"),
        ("order", "--h-ref", "0.015625", "--h-list", "0.125,0.0625", "--paths", "4",
         "--pullback-periods", "1"),
        ("measure", "--h", "0.0625", "--paths", "4", "--halvings", "1", "--bootstrap", "2",
         "--pullback-periods", "1"),
    ):
        assert cli.main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    for pattern, header in headers:
        header = header.replace("x_1,...,x_d", "x_1,x_2")  # the 2-d model's states
        braces = re.fullmatch(r"(.*)\{(.*)\}(.*)", pattern)
        names = ([braces[1] + alt + braces[3] for alt in braces[2].split(",")]
                 if braces else [pattern])
        files = [f for name in names for f in sorted(out.glob(name))]
        assert len(files) >= len(names), pattern
        for f in files:
            lines = f.read_text(encoding="utf-8").splitlines()
            assert next(line for line in lines if not line.startswith("#")) == header, f.name
