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

No knob without a caller: every optional parameter of a function, method or
constructor in `src/`, private ones included, and every dataclass field with
a default is set by some call in `src/` or `bench/`, by keyword, by position
or through `**`, or it is listed in UNSET with the reason it stays. A value
nothing sets is the default's behaviour with a name on it: it goes, and its
default becomes the only behaviour. A call is matched to a definition by the
name it calls, so `x.step(...)` counts for every method named `step`;
`dataclasses.replace(obj, name=...)` sets a field of that name; a call
through an alias (`from m import f as g`) counts for `f`. A `**` argument
sets the keys of every dict it can be, when each is `dict(key=...)` or a
dict display with string keys, followed through the names it is assigned to
and the subscripts it takes of dict displays: `**WORKLOADS[name]["config"]`
sets the keys of every workload's "config". Any other `**` argument sets
every optional parameter of its callee.

No source in `src/` or `tests/` imports a name it never reads, so a deleted
caller takes its imports with it.
"""

import ast
import math
import os

import deskmt

PACKAGE = "deskmt"
SRC = os.path.dirname(deskmt.__file__)
BENCH = os.path.join(os.path.dirname(os.path.dirname(SRC)), "bench")
TESTS = os.path.dirname(os.path.abspath(__file__))
CONCURRENCY_MODULES = ("multiprocessing", "concurrent", "threading")

# Public names with no caller in src/ or bench/, each with why it stays.
UNCALLED = {
    "lm.perplexity": "the LM's own quality measure, for library users",
    "cache.cache_counts": "the decoder cache's hits, builds and evictions, the "
                          "source of its figures for run events and library users",
}

# Optional parameters and defaulted dataclass fields that no call in src/ or
# bench/ sets, each with why it stays.
UNSET = {
    "synth.make_spec.mismatch": "the gap between the two topic profiles, which "
                                "the domain-mismatch study sweeps (ROADMAP item 10)",
    "search.TrialResult.model_hash": "run_search sets it by assignment when it "
                                     "releases a trial's model",
    "pipeline.PipelineConfig.init_config": "the pipeline tests and golden shrink the "
                                           "init systems with it, so they run in seconds",
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def _optional(fn, bound: int) -> list[tuple[int | None, str]]:
    """(position, name) of every parameter of `fn` with a default. The
    position counts a call's positional arguments, after the `bound` ones a
    method call fills itself; it is None for a keyword-only parameter."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    found = [(i - bound, p.arg) for i, p in enumerate(positional) if i >= first]
    found += [(None, p.arg) for p, default in zip(args.kwonlyargs, args.kw_defaults)
              if default is not None]
    return found


def _init_field(value) -> bool:
    """Whether a dataclass field's value leaves it a constructor parameter."""
    return not (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"
                and any(k.arg == "init" and getattr(k.value, "value", True) is False
                        for k in value.keywords))


def knobs(source: str) -> list[tuple[str, str, int | None, bool]]:
    """(knob, callee, position, is_field) of every optional parameter of a
    module's top-level functions, methods and constructors, and of every
    dataclass field with a default.

    `knob` reads `function.name`, `Class.method.name` or `Class.name` (a
    constructor parameter or a field); `callee` is the name a call uses;
    `position` is as in `_optional`.
    """
    found = []
    for top in ast.parse(source).body:
        if isinstance(top, ast.FunctionDef):
            found += [(f"{top.name}.{name}", top.name, position, False)
                      for position, name in _optional(top, 0)]
        if not isinstance(top, ast.ClassDef):
            continue
        position = 0
        for node in top.body:
            if isinstance(node, ast.AnnAssign) and _is_dataclass(top) \
                    and _init_field(node.value):
                if node.value is not None:
                    found.append((f"{top.name}.{node.target.id}", top.name, position, True))
                position += 1
            elif isinstance(node, ast.FunctionDef) and (
                    node.name == "__init__" or not node.name.startswith("__")):
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in node.decorator_list)
                knob, callee = (top.name, top.name) if node.name == "__init__" \
                    else (f"{top.name}.{node.name}", node.name)
                found += [(f"{knob}.{name}", callee, position, False)
                          for position, name in _optional(node, 0 if static else 1)]
    return found


def _callee(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def _bindings(tree) -> dict[str, list]:
    """The values each name of a source is given by a one-name `=`, anywhere
    in the source."""
    found: dict[str, list] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            found.setdefault(node.targets[0].id, []).append(node.value)
    return found


def _values(expr, bindings, seen=frozenset()) -> list | None:
    """The expressions `expr` can evaluate to, followed through the names it
    is bound to and the subscripts of dict displays it takes; None when one
    of them cannot be followed."""
    if isinstance(expr, ast.Name):
        if expr.id in seen or expr.id not in bindings:
            return None
        found = []
        for value in bindings[expr.id]:
            got = _values(value, bindings, seen | {expr.id})
            if got is None:
                return None
            found += got
        return found
    if isinstance(expr, ast.Subscript):
        outer = _values(expr.value, bindings, seen)
        if outer is None or not all(isinstance(d, ast.Dict) for d in outer):
            return None
        key = expr.slice
        found = []
        for d in outer:
            for k, value in zip(d.keys, d.values):
                if not isinstance(key, ast.Constant) or \
                        isinstance(k, ast.Constant) and k.value == key.value:
                    got = _values(value, bindings, seen)
                    if got is None:
                        return None
                    found += got
        return found
    return [expr]


def _spread_keys(expr, bindings) -> set[str] | None:
    """The keys a `**expr` argument sets: known when every value it can take
    is `dict(key=...)` or a dict display with string keys, else None."""
    values = _values(expr, bindings)
    if values is None:
        return None
    keys = set()
    for value in values:
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "dict" \
                and not value.args and all(k.arg for k in value.keywords):
            keys |= {k.arg for k in value.keywords}
        elif isinstance(value, ast.Dict) and all(
                isinstance(k, ast.Constant) and isinstance(k.value, str) for k in value.keys):
            keys |= {k.value for k in value.keys}
        else:
            return None
    return keys


def set_arguments(sources: list[str]) -> tuple[set, dict, set]:
    """What the calls in `sources` set, by the name each calls: the (callee,
    keyword) pairs, the most positional arguments a call passes (a `*`
    argument passes them all), and the callees of a `**` argument whose keys
    are not known. A call through an imported alias counts for the name it
    imports."""
    keywords, positions, spread = set(), {}, set()
    for source in sources:
        tree = ast.parse(source)
        bindings = _bindings(tree)
        aliases = {alias.asname: alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) for alias in node.names
                   if alias.asname}
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call) or _callee(call) is None:
                continue
            callee = _callee(call)
            if isinstance(call.func, ast.Name):
                callee = aliases.get(callee, callee)
            count = math.inf if any(isinstance(a, ast.Starred) for a in call.args) \
                else len(call.args)
            positions[callee] = max(positions.get(callee, 0), count)
            for k in call.keywords:
                keys = {k.arg} if k.arg is not None else _spread_keys(k.value, bindings)
                if keys is None:
                    spread.add(callee)
                else:
                    keywords.update((callee, key) for key in keys)
    return keywords, positions, spread


def unset(sources: dict[str, str], callers: list[str]) -> list[str]:
    """`module.knob` of every knob of `sources` that no call in `callers` sets."""
    keywords, positions, spread = set_arguments(callers)
    found = []
    for module, source in sources.items():
        for knob, callee, position, is_field in knobs(source):
            name = knob.rsplit(".", 1)[1]
            if not ((callee, name) in keywords or callee in spread
                    or is_field and ("replace", name) in keywords
                    or position is not None and position < positions.get(callee, 0)):
                found.append(f"{module}.{knob}")
    return found


def unused_imports(source: str) -> list[str]:
    """`line: name` of every name an import binds that the source never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        for name in names:
            bound.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in read]


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


def test_every_optional_parameter_is_set():
    sources = {fname[:-3]: source for fname, source in _module_sources()}
    callers = list(sources.values()) + [source for _, source in _sources(BENCH)]
    assert sorted(unset(sources, callers)) == sorted(UNSET)


def test_no_unused_imports():
    offenders = {f"{where}/{fname}": unused_imports(source)
                 for where, directory in (("src", SRC), ("tests", TESTS))
                 for fname, source in _sources(directory)}
    assert {k: v for k, v in offenders.items() if v} == {}


def test_detects_unset_knobs():
    source = ("from dataclasses import dataclass, field\n"
              "def f(a, b=1, *, c=2, d=3): pass\n"
              "def g(x=0): pass\n"
              "class K:\n"
              "    def __init__(self, p, q=1): pass\n"
              "    def m(self, r=1, s=2): pass\n"
              "    @staticmethod\n"
              "    def n(t=1): pass\n"
              "    def __repr__(self, u=1): pass\n"
              "@dataclass\n"
              "class D:\n"
              "    w: int\n"
              "    memo: dict = field(default_factory=dict, init=False)\n"
              "    y: int = 0\n"
              "    z: int = field(default=1)\n")
    assert [knob for knob, *_ in knobs(source)] == [
        "f.b", "f.c", "f.d", "g.x", "K.q", "K.m.r", "K.m.s", "K.n.t", "D.y", "D.z"]
    everything = unset({"mod": source}, [])
    assert everything == [f"mod.{knob}" for knob, *_ in knobs(source)]
    callers = ["from mod import f, K, D\n"
               "settings = dict(c=5)\n"
               "f(0, 2, **settings)\n"
               "K(0, 1).m(1)\n"
               "K.n(*args)\n"
               "replace(D(0), z=2)\n",
               "from mod import g\n"
               "g(**kwargs)\n"
               "obj.y = 3\n"]
    assert unset({"mod": source}, callers) == ["mod.f.d", "mod.K.m.s", "mod.D.y"]


def test_detects_knobs_a_subscripted_literal_sets():
    source = ("def f(a=1, b=2, c=3, d=4, e=5): pass\n"
              "def g(x=0, y=1): pass\n")
    callers = ["from mod import f, g as h\n"
               "TABLE = {'one': {'config': {'a': 1}, 'other': {'e': 1}},\n"
               "         'two': {'config': dict(b=2)}, 'three': {}}\n"
               "def run(name):\n"
               "    spec = TABLE[name]\n"
               "    f(**spec['config'])\n"
               "    f(**TABLE['three'])\n"
               "    h(y=2)\n"]
    assert unset({"mod": source}, callers) == ["mod.f.c", "mod.f.d", "mod.f.e", "mod.g.x"]
    # a subscript of anything but a dict display sets every optional parameter
    assert unset({"mod": source}, ["def run(spec):\n    f(**spec['config'])\n"]) == [
        "mod.g.x", "mod.g.y"]
    assert unset({"mod": source}, ["T = {'k': load()}\nf(**T['k'])\n"]) == [
        "mod.g.x", "mod.g.y"]


def test_detects_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os, os.path\n"
              "import numpy as np\n"
              "from deskmt.tm import (\n"
              "    LexModel,\n"
              "    em_train,\n"
              ")\n"
              "def f(model: LexModel):\n"
              "    import json\n"
              "    return np.zeros(1)\n")
    assert unused_imports(source) == ["2: os", "4: em_train", "9: json"]
