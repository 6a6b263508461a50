"""Hypothesis mutations of valid documents and files, for loader fuzzing.

A spec loader must turn any document into either a spec or a one-line
``ValueError``.  :func:`mutated` starts from a valid document and changes
up to three of its fields: each one is replaced by an arbitrary
JSON-shaped value or deleted.  A cache or checkpoint reader must turn
any file into either its document or a miss; :func:`damaged` starts
from a valid file's bytes and corrupts, truncates or splices them.
"""

from __future__ import annotations

import copy

from hypothesis import strategies as st

#: Any value a JSON or YAML-subset document can hold.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=2**40)
    | st.floats()
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)

_DELETE = object()


def mutated(document: dict, paths: list[tuple]) -> st.SearchStrategy:
    """Copies of ``document`` with up to three of ``paths`` changed.  A
    path is a tuple of keys and list indexes; one whose parent a previous
    change replaced with a scalar is skipped."""
    changes = st.lists(
        st.tuples(st.sampled_from(paths), JSON_VALUES | st.just(_DELETE)),
        min_size=1,
        max_size=3,
    )

    def apply(edits: list) -> dict:
        doc = copy.deepcopy(document)
        for path, value in edits:
            parent = doc
            for key in path[:-1]:
                if not isinstance(parent, (dict, list)):
                    break
                try:
                    parent = parent[key]
                except (KeyError, IndexError, TypeError):
                    break
            else:
                last = path[-1]
                if isinstance(parent, dict):
                    if value is _DELETE:
                        parent.pop(last, None)
                    else:
                        parent[last] = value
                elif isinstance(parent, list) and isinstance(last, int) and last < len(parent):
                    if value is not _DELETE:
                        parent[last] = value
        return doc

    return changes.map(apply)


def assert_loads_or_refuses(load, document: dict):
    """``load(document)``, or ``None`` after it raised a one-line
    ``ValueError``."""
    try:
        return load(document)
    except ValueError as err:
        assert "\n" not in str(err), str(err)
        return None


def damaged(data: bytes) -> st.SearchStrategy:
    """Copies of ``data`` with 1-4 bytes overwritten, cut short, or with
    a span of up to 16 bytes replaced by up to 16 arbitrary ones."""

    def corrupt(edits: list) -> bytes:
        out = bytearray(data)
        for pos, value in edits:
            out[pos] = value
        return bytes(out)

    def splice(cut: tuple) -> bytes:
        start, length, insert = cut
        return data[:start] + insert + data[start + length :]

    positions = st.integers(0, len(data) - 1)
    return st.one_of(
        st.lists(st.tuples(positions, st.integers(0, 255)), min_size=1, max_size=4).map(corrupt),
        positions.map(lambda end: data[:end]),
        st.tuples(positions, st.integers(0, 16), st.binary(max_size=16)).map(splice),
    )
