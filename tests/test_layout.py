"""Layout guards on `src/sglab/*.py`.

Reachability: every top-level function, class and UPPER_CASE constant is
read somewhere in `src/` or `demos/`. A definition counts as reached when
an AST `Name` or `Attribute` node loads its name; strings (such as
`__all__` entries) and imports do not. Code that only the tests read
belongs in the tests (see `tests/reference.py`).

One writer: only `fieldio.py` opens files or formats CSV, so every output
file goes through its `atomic_open`."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sglab"

# unreached by src/ and demos/, but traced by name in perfbench/spans.py
# and looked up by tests/test_perfbench_contract.py, so they stay until a
# change that may edit perfbench/ moves them
EXEMPT = {
    "backward_flow": "perfbench/spans.py traces it (particle reference of inverse_flows)",
    "solve_corrector_potential": "perfbench/spans.py traces it (reference of the "
                                 "Corrector step)",
}

CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*\Z")


def _defined(tree: ast.Module) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets
                      if isinstance(t, ast.Name) and CONSTANT.match(t.id)}
    return names


def _loaded(tree: ast.AST) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def _unreached() -> list:
    defined, loaded = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined |= _defined(tree)
        loaded |= _loaded(tree)
    for path in sorted((ROOT / "demos").glob("*.py")):
        loaded |= _loaded(ast.parse(path.read_text(encoding="utf-8")))
    return sorted(defined - loaded)


def test_every_definition_is_reached():
    assert [name for name in _unreached() if name not in EXEMPT] == []


def test_exemptions_are_still_needed():
    # an exempt name that src/ or demos/ reach again, or that left src/,
    # drops out of EXEMPT
    assert set(_unreached()) >= set(EXEMPT)


# calls that open or write a file: open and atomic_open by any name,
# csv.writer, and pathlib's write_text and write_bytes
OPENERS = {"open", "atomic_open"}
WRITER_METHODS = OPENERS | {"write_text", "write_bytes"}


def _file_writes(tree: ast.Module) -> list:
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id in OPENERS:
            calls.append((node.lineno, f.id))
        elif isinstance(f, ast.Attribute) and (
                f.attr in WRITER_METHODS
                or f.attr == "writer" and isinstance(f.value, ast.Name) and f.value.id == "csv"):
            calls.append((node.lineno, f.attr))
    return calls


def test_only_fieldio_writes_files():
    found = {path.name: _file_writes(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "fieldio.py"}
    assert {name: calls for name, calls in found.items() if calls} == {}


def test_file_write_scan_sees_fieldio():
    # the scan finds fieldio's own opens, so an empty result elsewhere
    # is not a blind scan
    names = {call for _, call in _file_writes(ast.parse(
        (PACKAGE / "fieldio.py").read_text(encoding="utf-8")))}
    assert {"open", "atomic_open", "writer"} <= names
