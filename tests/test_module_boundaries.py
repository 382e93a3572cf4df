"""Import rules checked on the source of every deskmt module.

No module reaches into another module's private names. A name that starts
with one underscore is private to the module that defines it; the check
fails on `from .other import _name` (or `from deskmt.other import _name`)
and on `other._name` where `other` is bound to a deskmt module.

No module imports `multiprocessing`, `concurrent` or `threading`. The
library runs in one process; a pool has to come with a benchmark that
shows it pays on this system.

Every import sits at module level, never inside a function or method, and
the graph of deskmt modules those imports draw has no cycle. A function-local
import that hides a cycle is a sign that code sits in the wrong module.
"""

import ast
import os

import deskmt

PACKAGE = "deskmt"
SRC = os.path.dirname(deskmt.__file__)
CONCURRENCY_MODULES = ("multiprocessing", "concurrent", "threading")


def _module_sources():
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname), encoding="utf-8") as fh:
                yield fname, fh.read()


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _is_package_module(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == PACKAGE


def private_uses(source: str) -> list[str]:
    """`line: text` of every cross-module private access in a module's source."""
    tree = ast.parse(source)
    modules = set()  # names bound to deskmt modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_package_module(node):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{node.lineno}: from {'.' * node.level}"
                                 f"{node.module or ''} import {alias.name}")
                elif node.module in (None, PACKAGE):
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == PACKAGE:
                    modules.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            base = node.value
            if isinstance(base, ast.Name) and base.id in modules:
                found.append(f"{node.lineno}: {base.id}.{node.attr}")
    return found


def concurrency_imports(source: str) -> list[str]:
    """`line: module` of every absolute import of a process or thread module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        found += [f"{node.lineno}: {name}" for name in names
                  if name.split(".")[0] in CONCURRENCY_MODULES]
    return found


def local_imports(source: str) -> list[str]:
    """`line: function` of every import statement inside a function body."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            found += [f"{inner.lineno}: {node.name}" for inner in ast.walk(node)
                      if isinstance(inner, (ast.Import, ast.ImportFrom))]
    return sorted(set(found), key=lambda item: int(item.split(":")[0]))


def package_imports(source: str) -> set[str]:
    """deskmt modules a module imports at module level."""
    found = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom) and _is_package_module(node):
            parts = (node.module or "").split(".")
            if parts[0] == PACKAGE:
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:  # `from . import a, b` names the modules themselves
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == PACKAGE and len(parts) > 1:
                    found.add(parts[1])
    return found


def import_cycle(graph: dict[str, set[str]]) -> list[str]:
    """One cycle of the module graph as a closed path, or [] when it is acyclic."""
    done, path = set(), []

    def visit(module):
        if module in path:
            return path[path.index(module):] + [module]
        if module in done:
            return []
        path.append(module)
        for dep in sorted(graph.get(module, ())):
            cycle = visit(dep)
            if cycle:
                return cycle
        path.pop()
        done.add(module)
        return []

    for module in sorted(graph):
        cycle = visit(module)
        if cycle:
            return cycle
    return []


def test_no_private_names_across_modules():
    offenders = {fname: private_uses(source) for fname, source in _module_sources()}
    assert {k: v for k, v in offenders.items() if v} == {}


def test_no_process_or_thread_pools():
    offenders = {fname: concurrency_imports(source)
                 for fname, source in _module_sources()}
    assert {k: v for k, v in offenders.items() if v} == {}


def test_detects_both_forms():
    source = ("from . import pipeline, tm\n"
              "from .search import run_search, _run_one\n"
              "from deskmt.tm import _split_tag\n"
              "x = pipeline._helper(tm.model_hash, self._caches, tm.__name__)\n")
    assert private_uses(source) == [
        "2: from .search import _run_one",
        "3: from deskmt.tm import _split_tag",
        "4: pipeline._helper",
    ]


def test_detects_concurrency_imports():
    source = ("import os, multiprocessing\n"
              "from concurrent.futures import ProcessPoolExecutor\n"
              "import threading as th\n"
              "from . import threading_notes\n"
              "from .util import threading\n")
    assert concurrency_imports(source) == [
        "1: multiprocessing",
        "2: concurrent.futures",
        "3: threading",
    ]


def test_no_function_local_imports():
    offenders = {fname: local_imports(source) for fname, source in _module_sources()}
    assert {k: v for k, v in offenders.items() if v} == {}


def test_module_graph_is_acyclic():
    graph = {fname[:-3]: package_imports(source)
             for fname, source in _module_sources()}
    assert import_cycle(graph) == []


def test_detects_local_imports():
    source = ("import os\n"
              "def f():\n"
              "    from .augment import translate_corpus\n"
              "    return translate_corpus\n"
              "class C:\n"
              "    def m(self):\n"
              "        if self:\n"
              "            import json\n")
    assert local_imports(source) == ["3: f", "8: m"]


def test_detects_cycles():
    assert package_imports("from . import tm, augment\n"
                           "from .metrics import bleu\n"
                           "from deskmt.rerank import rerank\n"
                           "import deskmt.search\n"
                           "import numpy\n"
                           "def f():\n"
                           "    from .cli import main\n") == {
        "tm", "augment", "metrics", "rerank", "search"}
    graph = {"tm": {"lm"}, "lm": set(), "metrics": {"tm", "augment"},
             "augment": {"rerank"}, "rerank": {"metrics"}}
    assert import_cycle(graph) == ["augment", "rerank", "metrics", "augment"]
    del graph["rerank"]
    assert import_cycle(graph) == []
