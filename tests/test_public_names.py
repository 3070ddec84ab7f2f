"""Every public top-level name of ``src/popsim`` is used by what the commands
run: named in ``src/popsim`` outside its own definition, imported by the
benchmark harness in ``perfbench/``, or kept on purpose in ``KEPT``.  A
helper only the tests call belongs in the tests (``tests/oracles.py``)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "popsim"
PERFBENCH = ROOT / "perfbench"

KEPT = {
    "epidemic_spec": "the epidemic's geometric-sum law, which the first-passage work builds on",
    "sources_reaching": "the layered-graph route among the three cross-checked influence routes",
}


def _defined(tree):
    """(name, node) of each public function, class and assignment at the top
    level of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def _named(node, skip):
    """Every identifier ``node`` reads, imports or looks up as an attribute,
    outside the subtree ``skip``."""
    if node is skip:
        return
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.alias):
        yield node.name
    for child in ast.iter_child_nodes(node):
        yield from _named(child, skip)


def _perfbench_imports():
    names = set()
    for path in PERFBENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "popsim":
                names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_is_used_by_the_package_or_the_benchmark():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    imported = _perfbench_imports()
    defined, unused = set(), []
    for module, tree in trees.items():
        for name, node in _defined(tree):
            defined.add(name)
            if name.startswith("_") or name in imported or name in KEPT:
                continue
            if not any(name in _named(other, node) for other in trees.values()):
                unused.append(f"{module}: {name}")
    assert unused == []
    assert set(KEPT) <= defined

