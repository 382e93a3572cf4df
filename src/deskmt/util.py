"""Shared plumbing: deterministic hashing, seed derivation, stable JSON (also
written from arrays), file reading and atomic writes, and the distinct
values of an array."""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any

import numpy as np


class DataError(ValueError):
    """Malformed or unusable input data (maps to CLI exit code 2)."""


def stable_json_dumps(obj: Any) -> str:
    """Serialize to JSON with a byte-stable layout (sorted keys, fixed separators)."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def stable_json_object(members: dict[str, Any], texts: dict[str, str]) -> str:
    """`stable_json_dumps` of the object of `members` and `texts`, whose
    values are already the stable JSON text of theirs: each member is
    dumped on its own and every text is spliced in at its key's sorted
    position, so a writer formats its large members straight from arrays."""
    values = {key: stable_json_dumps(value) for key, value in members.items()} | texts
    return "{" + ",".join(f"{stable_json_dumps(key)}:{values[key]}"
                          for key in sorted(values)) + "}"


def pair_runs_json(ids: np.ndarray, values: np.ndarray, sizes: np.ndarray,
                   heads: np.ndarray | None = None) -> str:
    """The stable JSON text of a list of runs of [id, value] pairs: run i
    holds the next sizes[i] pairs of `ids` and `values`, as
    `[[id, value], ...]`, or as `[heads[i], [[id, value], ...]]` given a
    (runs, width) array of integer heads.

    The ids are integers and the values finite numbers, whose `repr` is
    the text `json` writes. The text is one `%` format of a template, with
    one template per run length, over the numbers as Python objects, so no
    list or string is built per pair or per run.
    """
    n, width = sizes.size, 0 if heads is None else heads.shape[1]
    numbers = np.empty(n * width + 2 * ids.size, dtype=object)
    at = width * (np.repeat(np.arange(n), sizes) + 1) + 2 * np.arange(ids.size)
    numbers[at] = ids
    numbers[at + 1] = values
    lengths = sizes.tolist()
    run = {size: "[" + ",".join(["[%d,%r]"] * size) + "]" for size in set(lengths)}
    if heads is not None:
        before = sizes.cumsum() - sizes
        numbers[(width * np.arange(n) + 2 * before)[:, None] + np.arange(width)] = heads
        head = "[[" + ",".join(["%d"] * width) + "],"
        run = {size: head + pairs + "]" for size, pairs in run.items()}
    return ("[" + ",".join(map(run.__getitem__, lengths)) + "]") % tuple(numbers.tolist())


def sha256_bytes(*parts: bytes) -> str:
    """Hash of the concatenated parts, without building the concatenation."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


def sha256_text(text: str) -> str:
    return sha256_bytes(text.encode("utf-8"))


def content_hash(obj: Any) -> str:
    """Hash of the stable JSON form of a JSON-serializable object."""
    return sha256_text(stable_json_dumps(obj))


def write_text_atomic(path: str, text: str) -> None:
    """Replace `path` with the UTF-8 bytes of `text` all at once."""
    write_bytes_atomic(path, text.encode("utf-8"))


def write_bytes_atomic(path: str, *parts: bytes) -> None:
    """Replace `path` with the concatenated parts all at once.

    The bytes go to `<path>.tmp` in the same directory first, which then
    replaces `path`; a process that dies partway leaves the previous file
    intact. (No fsync: this guards against crashes, not power loss.)
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_text(path: str, what: str) -> str:
    """The UTF-8 text of a file, with newlines translated as text-mode reading does.

    `\r\n` and `\r` become `\n` and no other character ends a line, so
    callers split lines with `.split("\n")`, never `str.splitlines` (which
    also splits on `\x0c`, `\u2028` and others). A file that cannot be read
    raises DataError naming `what` and the path; bytes that are not UTF-8
    raise DataError located as `path:line`.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise DataError(f"cannot read {what} {path}: {e}") from e
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        head = data[:e.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        lineno = head.count(b"\n") + 1
        raise DataError(f"{path}:{lineno}: {what} is not valid UTF-8 (byte {e.start})") from e
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_json(path: str, what: str) -> dict:
    """The JSON object a file holds; DataError if it is unreadable, not JSON or
    not an object (see `read_text`)."""
    text = read_text(path, what)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise DataError(f"{path}: {what} is not JSON: {e}") from e
    if not isinstance(doc, dict):
        raise DataError(f"{path}: {what} is not a JSON object")
    return doc


NUMBER = (int, float)


def doc_field(doc: Any, key: str, kind, what: str) -> Any:
    """`doc[key]`, checked against the type (or tuple of types) `kind`.

    A document that is not a JSON object, a missing key or a value of
    another type raises DataError naming `what` and the key. Booleans never
    pass as numbers.
    """
    if not isinstance(doc, dict):
        raise DataError(f"{what}: expected a JSON object, got {type(doc).__name__}")
    if key not in doc:
        raise DataError(f"{what}: missing key {key!r}")
    value = doc[key]
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise DataError(f"{what}: key {key!r} has the wrong type "
                        f"({type(value).__name__})")
    return value


def doc_float(doc: Any, key: str, what: str) -> float:
    """`doc[key]`, a number, as a float; DataError naming the key for a
    non-number or an integer past the float range."""
    value = doc_field(doc, key, NUMBER, what)
    try:
        return float(value)
    except OverflowError:
        raise DataError(f"{what}: key {key!r} is past the float range") from None


def doc_strings(doc: Any, key: str, what: str) -> tuple[str, ...]:
    """`doc[key]` as a tuple of strings; DataError naming the key otherwise."""
    values = doc_field(doc, key, list, what)
    if not all(isinstance(v, str) for v in values):
        raise DataError(f"{what}: key {key!r} must hold strings")
    return tuple(values)


def derive_seed(master: int, label: str) -> int:
    """Derive a stage-local RNG seed from a master seed and a stage label.

    Stable across runs and platforms; labels keep stages independent so adding
    a stage never perturbs another stage's randomness.
    """
    digest = hashlib.sha256(f"{master}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of an array in ascending order, as `np.unique`
    without options gives them, but by one sort: `np.unique` asks
    `np.ma.is_masked` on that path, which imports `numpy.ma` on first use."""
    ordered = np.sort(values, axis=None)
    first = np.ones(ordered.size, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    return ordered[first]
