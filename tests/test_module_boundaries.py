"""No deskmt module reaches into another module's private names.

A name that starts with one underscore is private to the module that
defines it. This test parses every module of the package and fails on
`from .other import _name` (or `from deskmt.other import _name`) and on
`other._name` where `other` is bound to a deskmt module.
"""

import ast
import os

import deskmt

PACKAGE = "deskmt"
SRC = os.path.dirname(deskmt.__file__)


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


def test_no_private_names_across_modules():
    offenders = {}
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname), encoding="utf-8") as fh:
                uses = private_uses(fh.read())
            if uses:
                offenders[fname] = uses
    assert offenders == {}


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
