"""The package API is what the pipeline runs.

Every public module-level function and class in src/muxfec, and every
name in muxfec.__all__, has a program caller: it is used as a name or an
attribute in src/muxfec (leaving out __init__.py, which only re-exports),
in scripts/ or in perfbench/*.py, or perfbench looks it up by a string
equal to it (such as "stream_encode").  The only exceptions are the test
references in REFERENCES, each of which its module docstring names as a
reference.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

import muxfec

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "muxfec"

# module -> public names kept in src only as the references tests compare against
REFERENCES = {
    "channel": ("enumerate_admissible_patterns",),
    "decoder": ("check_pattern",),
}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _modules():
    return {p.stem: _tree(p) for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}


def _used_names():
    """Identifiers and attribute names in the program, and the strings perfbench looks up by."""
    trees = list(_modules().values())
    trees += [_tree(p) for p in sorted((ROOT / "scripts").glob("*.py"))]
    bench = [_tree(p) for p in sorted((ROOT / "perfbench").glob("*.py"))]
    used = set()
    for tree in trees + bench:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    for tree in bench:
        used.update(node.value for node in ast.walk(tree)
                    if isinstance(node, ast.Constant) and isinstance(node.value, str))
    return used


def _public_definitions():
    """(module, name) of every public module-level function and class."""
    return [
        (module, node.name)
        for module, tree in _modules().items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def _names_as_reference(module, name):
    """True when a sentence of the module docstring names `name` as a reference."""
    doc = ast.get_docstring(_modules()[module]) or ""
    sentences = re.split(r"\.\s", " ".join(doc.split()))
    return any(re.search(rf"\b{name}\b", s) and "reference" in s for s in sentences)


def test_every_public_name_has_a_program_caller():
    used = _used_names()
    references = {name for names in REFERENCES.values() for name in names}
    unused = sorted(f"{module}.{name}" for module, name in _public_definitions()
                    if name not in used and name not in references)
    unused += sorted(f"__all__: {name}" for name in muxfec.__all__
                     if name not in used and name not in references)
    assert not unused, f"public names with no program caller: {unused}"


def test_references_are_named_in_their_module_docstrings():
    defined = set(_public_definitions())
    for module, names in REFERENCES.items():
        for name in names:
            assert (module, name) in defined, f"{module}.{name} is not a public definition"
            assert _names_as_reference(module, name), (
                f"the {module} docstring does not name {name} as a reference")


def test_package_imports_only_the_standard_library():
    """Every import in src/muxfec names a standard-library module or muxfec
    itself: the package has no runtime dependency."""
    allowed = sys.stdlib_module_names | {"muxfec"}
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [] if node.level else [node.module]  # a relative import is muxfec's
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert not outside, f"imports outside the standard library: {outside}"


def test_stream_encode_runs_without_numpy():
    """In an interpreter where numpy cannot be imported, stream_encode on
    the example code sends push's packets, slot by slot, over 3n seeded
    slots with symbols past q^2 and negative ones."""
    code = """
import sys
sys.modules["numpy"] = None
sys.path[:0] = sys.argv[1:]
from muxfec.muxcode import build_mux_code, select_parameters
from muxfec.stream import StreamState, stream_encode
from test_stream import seeded_messages
code = build_mux_code(select_parameters(12, 6, 4, 2), seed=0)
msgs = seeded_messages(code, 3 * code.params.n, 0, extreme=True)
state = StreamState(code)
assert stream_encode(msgs, code) == [state.push(v_t, u_t) for v_t, u_t in msgs]
"""
    argv = [sys.executable, "-I", "-c", code, str(ROOT / "src"), str(ROOT / "tests")]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
