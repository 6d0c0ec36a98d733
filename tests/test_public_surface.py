"""Every public name and method in ``src/repro`` has a caller.

A module-level ``def`` or ``class`` whose name does not start with ``_``
must be referenced (as a name, an attribute or an import) by the program
outside its own definition: elsewhere in ``src/repro`` (package
``__init__.py`` re-exports do not count), or in ``benchmarks/`` or
``examples/``. The other ways to stay are being wrapped by one of the
spine's probe ``TARGETS``, or being a test oracle listed below with the
reason a test needs it. Code only its own tests reach is deleted instead.

A public method (a ``def`` in a public module-level class, not ``_``- or
dunder-named) obeys the same rule, with its own body in place of the
definition; it also stays when it overrides, or is overridden by, a
same-named method of its class hierarchy (dispatch reaches it through the
base), or when a probe names it as ``Class.method`` (a ``Class.*``
wildcard keeps no single method: it resolves without any one of them).
"""

import ast
from pathlib import Path
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: Names kept only for tests, and why: a reference the code under test is
#: checked against, or a reader of a format the CLI writes.
TEST_ORACLES: Dict[str, str] = {
    "MeanSquaredError": "the second loss head of the gradient checks in tests/conftest.py",
    "allreduce_cost": "closed-form tree allreduce cost the collective clock is checked against",
    "tree_bcast_order": "reference binomial broadcast edge list for the tree collectives",
    "registered_segments": "lists this process's live shm segments for the leak checks",
    "message_counts": "per-rank send counter the trace invariant tests read",
    "bytes_by_rank": "per-rank byte counter the trace invariant tests read",
    "round_count": "collective round counter the trace invariant tests read",
    "staleness_stats": "applied-update staleness counter the PS zoo tests read",
    "from_jsonl": "reads back the JSONL trace `repro run --trace` writes",
    "results_from_json": "reads back the JSON archive `repro run --json` writes",
    "run_methods": "public API: exported in repro.__all__",
    "FaultPlan.lose_message": "builds lost-forever channels, which FaultPlan.from_spec cannot spell",
}


def _probe_targets() -> Set[str]:
    """Top-level names the spine's probes wrap (read as text, not imported)."""
    text = (ROOT / "benchmarks" / "spine" / "probes.py").read_text()
    return set(re.findall(r'Target\(\s*f?"[^":]*:([A-Za-z_]\w*)', text))


def _probe_methods() -> Set[str]:
    """``Class.method`` targets the spine's probes wrap (wildcards excluded)."""
    text = (ROOT / "benchmarks" / "spine" / "probes.py").read_text()
    # Spell out the f-string prefixes (``_CTX = "module:Class"``) first.
    for const, value in re.findall(r'^(_[A-Z]+) = "([^"]*)"$', text, re.M):
        text = text.replace("{%s}" % const, value)
    return set(re.findall(r'Target\(\s*f?"[^":]*:([A-Za-z_]\w*\.[A-Za-z_]\w*)"', text))


def _referenced(tree: ast.AST, skip: Optional[ast.AST] = None) -> Set[str]:
    """Names, attributes and imported names used in ``tree``, outside ``skip``."""
    names: Set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        stack.extend(ast.iter_child_nodes(node))
    return names


def _program() -> Tuple[Dict[Path, ast.Module], Dict[Path, Set[str]]]:
    """Parsed ``src/repro`` modules, and the names each program file uses."""
    modules = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
    trees = {p: ast.parse(p.read_text(), str(p)) for p in modules}
    elsewhere: Dict[Path, Set[str]] = {p: _referenced(t) for p, t in trees.items()}
    for extra in ("benchmarks", "examples"):
        for p in sorted((ROOT / extra).rglob("*.py")):
            elsewhere[p] = _referenced(ast.parse(p.read_text(), str(p)))
    return trees, elsewhere


def _orphans(keep: Set[str]) -> List[Tuple[str, str]]:
    trees, elsewhere = _program()
    orphans = []
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("_") or name in keep:
                continue
            if name in _referenced(tree, skip=node):
                continue
            if any(name in refs for p, refs in elsewhere.items() if p != path):
                continue
            orphans.append((str(path.relative_to(ROOT)), name))
    return orphans


def _classes(trees: Dict[Path, ast.Module]) -> Iterator[Tuple[Path, ast.ClassDef]]:
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                yield path, node


def _methods(cls: ast.ClassDef) -> Dict[str, ast.AST]:
    return {node.name: node for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _base_names(cls: ast.ClassDef) -> List[str]:
    return [b.id if isinstance(b, ast.Name) else b.attr for b in cls.bases
            if isinstance(b, (ast.Name, ast.Attribute))]


def _method_orphans(keep: Set[str]) -> List[Tuple[str, str]]:
    trees, elsewhere = _program()
    classes = list(_classes(trees))
    methods = {cls.name: set(_methods(cls)) for _, cls in classes}
    parents = {cls.name: _base_names(cls) for _, cls in classes}
    children: Dict[str, List[str]] = {}
    for name, bases in parents.items():
        for base in bases:
            children.setdefault(base, []).append(name)

    def lineage(name: str) -> Set[str]:
        """Every class above or below ``name`` that ``src/repro`` defines."""
        found: Set[str] = set()
        for edges in (parents, children):
            todo = list(edges.get(name, ()))
            while todo:
                other = todo.pop()
                if other in methods and other not in found:
                    found.add(other)
                    todo.extend(edges.get(other, ()))
        return found

    orphans = []
    for path, cls in classes:
        if cls.name.startswith("_"):
            continue
        related = lineage(cls.name)
        for name, node in _methods(cls).items():
            qualified = f"{cls.name}.{name}"
            if name.startswith("_") or qualified in keep:
                continue
            if any(name in methods[other] for other in related):
                continue
            if name in _referenced(trees[path], skip=node):
                continue
            if any(name in refs for p, refs in elsewhere.items() if p != path):
                continue
            orphans.append((str(path.relative_to(ROOT)), qualified))
    return orphans


def test_every_public_name_has_a_caller():
    orphans = _orphans(_probe_targets() | set(TEST_ORACLES))
    assert not orphans, "public names only tests reach (delete them): " + ", ".join(
        f"{path}:{name}" for path, name in orphans)


def test_every_public_method_has_a_caller():
    orphans = _method_orphans(_probe_methods() | set(TEST_ORACLES))
    assert not orphans, "public methods only tests reach (delete them): " + ", ".join(
        f"{path}:{name}" for path, name in orphans)


def test_test_oracles_stay_few_and_real():
    # Each entry has a reason and is exempt only while the program has no
    # caller for it: one that gains a caller leaves the list.
    assert len(TEST_ORACLES) <= 12
    assert all(reason.strip() for reason in TEST_ORACLES.values())
    unreached = _orphans(_probe_targets()) + _method_orphans(_probe_methods())
    assert {name for _, name in unreached} == set(TEST_ORACLES)
