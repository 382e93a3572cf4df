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

Files are read in one place: no module but `util` calls `json.load` or
`json.loads`, so every reader gets `util.read_json`'s errors.

No module calls `corpus.strip_tag`. A domain tag is a dataset's label, never
a token of a sentence, so there is nothing to strip: a leading `<...>` token
is a word like any other.

Every public top-level function and class has a caller in the library or the
benchmark: another `src` module, `bench/`, or code of its own module outside
its own body. A name that only tests use is an oracle and belongs in
`tests/`, or it is listed in UNCALLED with the reason it stays.
"""

import ast
import os

import deskmt

PACKAGE = "deskmt"
SRC = os.path.dirname(deskmt.__file__)
BENCH = os.path.join(os.path.dirname(os.path.dirname(SRC)), "bench")
CONCURRENCY_MODULES = ("multiprocessing", "concurrent", "threading")

# Public names with no caller in src/ or bench/, each with why it stays.
UNCALLED = {
    "lm.perplexity": "the LM's own quality measure, for library users",
    "cache.cache_counts": "the decoder cache's hits, builds and evictions, the "
                          "source of its figures for run events and library users",
}


def _sources(directory):
    for fname in sorted(os.listdir(directory)):
        if fname.endswith(".py"):
            with open(os.path.join(directory, fname), encoding="utf-8") as fh:
                yield fname, fh.read()


def _module_sources():
    return _sources(SRC)


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


def json_reads(source: str) -> list[str]:
    """`line: call` of every `json.load` / `json.loads` a module makes."""
    tree = ast.parse(source)
    names = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names
             if alias.name == "json"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "json" and node.level == 0:
            found += [f"{node.lineno}: json.{alias.name}" for alias in node.names
                      if alias.name in ("load", "loads")]
        elif isinstance(node, ast.Attribute) and node.attr in ("load", "loads") \
                and isinstance(node.value, ast.Name) and node.value.id in names:
            found.append(f"{node.lineno}: json.{node.attr}")
    return found


def strip_tag_calls(source: str) -> list[str]:
    """`line` of every call of `strip_tag`, by name or as a module attribute."""
    return [str(node.lineno) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and (isinstance(node.func, ast.Name) and node.func.id == "strip_tag"
                 or isinstance(node.func, ast.Attribute) and node.func.attr == "strip_tag")]


def public_names(source: str) -> list[str]:
    """Public top-level functions and classes a module defines."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def package_references(source: str) -> set[tuple[str, str]]:
    """(module, name) of every deskmt module attribute a source names, as
    `from .m import name`, `from deskmt.m import name` or `m.name` with `m`
    bound to a deskmt module."""
    tree = ast.parse(source)
    modules = {}  # local name -> deskmt module
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_package_module(node):
            parts = (node.module or "").split(".")
            if parts[0] == PACKAGE:
                parts = parts[1:]
            if parts and parts[0]:
                found.update((parts[0], alias.name) for alias in node.names)
            else:
                modules.update({alias.asname or alias.name: alias.name
                                for alias in node.names})
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            found.add((modules[node.value.id], node.attr))
    return found


def own_uses(source: str, name: str) -> bool:
    """Whether a module's code outside the top-level definition of `name` uses it."""
    return any(isinstance(node, ast.Name) and node.id == name
               for top in ast.parse(source).body if getattr(top, "name", None) != name
               for node in ast.walk(top))


def uncalled(sources: dict[str, str], bench: list[str]) -> list[str]:
    """`module.name` of every public top-level function or class without a
    caller in another module, in `bench` or elsewhere in its own module."""
    refs = {module: package_references(source) for module, source in sources.items()}
    bench_refs = set().union(*(package_references(source) for source in bench))
    found = []
    for module, source in sources.items():
        outside = set().union(bench_refs, *(r for m, r in refs.items() if m != module))
        found += [f"{module}.{name}" for name in public_names(source)
                  if (module, name) not in outside and not own_uses(source, name)]
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


def test_only_util_parses_json():
    offenders = {fname: json_reads(source) for fname, source in _module_sources()
                 if fname != "util.py"}
    assert {k: v for k, v in offenders.items() if v} == {}


def test_nothing_strips_tags():
    offenders = {fname: strip_tag_calls(source) for fname, source in _module_sources()}
    assert {k: v for k, v in offenders.items() if v} == {}


def test_every_public_name_has_a_caller():
    sources = {fname[:-3]: source for fname, source in _module_sources()}
    bench = [source for _, source in _sources(BENCH)]
    assert sorted(uncalled(sources, bench)) == sorted(UNCALLED)


def test_detects_json_reads():
    source = ("import json\n"
              "import json as j\n"
              "from json import loads\n"
              "a = json.load(fh)\n"
              "b = j.loads(text)\n"
              "c = json.dumps(a)\n")
    assert json_reads(source) == ["3: json.loads", "4: json.load", "5: json.loads"]


def test_detects_strip_tag_calls():
    source = ("from .corpus import strip_tag\n"
              "from . import corpus\n"
              "a = strip_tag(x)\n"
              "b = [corpus.strip_tag(s) for s in xs]\n"
              "f = strip_tag\n")
    assert strip_tag_calls(source) == ["3", "4"]


def test_detects_uncalled_names():
    sources = {
        "tm": ("def score(): pass\n"
               "def rank(): return score()\n"
               "def oracle(): return oracle()\n"
               "class Model: pass\n"
               "def _helper(): pass\n"),
        "cli": ("from . import tm\n"
                "from .tm import Model\n"
                "def main(): return tm.rank()\n"),
    }
    assert uncalled(sources, []) == ["tm.oracle", "cli.main"]
    bench = ["def run():\n    from deskmt.tm import oracle\n",
             "from deskmt import cli\ncli.main()\n"]
    assert uncalled(sources, bench) == []
