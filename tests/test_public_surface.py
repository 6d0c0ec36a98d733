"""Every public name in ``src/repro`` has a caller.

A module-level ``def`` or ``class`` whose name does not start with ``_``
must be referenced (as a name, an attribute or an import) by the program
outside its own definition: elsewhere in ``src/repro`` (package
``__init__.py`` re-exports do not count), or in ``benchmarks/`` or
``examples/``. The other ways to stay are being wrapped by one of the
spine's probe ``TARGETS``, or being a test oracle listed below with the
reason a test needs it. Code only its own tests reach is deleted instead.
"""

import ast
from pathlib import Path
import re
from typing import Dict, List, Optional, Set, Tuple

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
}


def _probe_targets() -> Set[str]:
    """Top-level names the spine's probes wrap (read as text, not imported)."""
    text = (ROOT / "benchmarks" / "spine" / "probes.py").read_text()
    return set(re.findall(r'Target\(\s*f?"[^":]*:([A-Za-z_]\w*)', text))


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


def _orphans(keep: Set[str]) -> List[Tuple[str, str]]:
    modules = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
    trees = {p: ast.parse(p.read_text(), str(p)) for p in modules}
    elsewhere: Dict[Path, Set[str]] = {p: _referenced(t) for p, t in trees.items()}
    for extra in ("benchmarks", "examples"):
        for p in sorted((ROOT / extra).rglob("*.py")):
            elsewhere[p] = _referenced(ast.parse(p.read_text(), str(p)))
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


def test_every_public_name_has_a_caller():
    orphans = _orphans(_probe_targets() | set(TEST_ORACLES))
    assert not orphans, "public names only tests reach (delete them): " + ", ".join(
        f"{path}:{name}" for path, name in orphans)


def test_test_oracles_stay_few_and_real():
    # Each entry has a reason and is exempt only while the program has no
    # caller for it: one that gains a caller leaves the list.
    assert len(TEST_ORACLES) <= 11
    assert all(reason.strip() for reason in TEST_ORACLES.values())
    assert {name for _, name in _orphans(_probe_targets())} == set(TEST_ORACLES)
