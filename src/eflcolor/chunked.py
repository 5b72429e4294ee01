"""Chunked readers for the documents the CLI writes at scale.

:func:`read_pair_graph` and :func:`read_vertex_coloring` read a
{"n", "shared_pairs"} graph document or a {"palette", "assignments"}
vertex-coloring document from a binary file, its list decoded by
``json``'s C decoder a chunk of complete elements at a time, each chunk
placed and dropped before the next is read, so neither document is held
whole; the ints a read keeps are taken from one shared table.  They read
nothing else: a document with other keys, another key order or any
defect raises ValueError, for the whole-document readers of
:mod:`eflcolor.serialize` to read or report as they always have.  The
result is what those readers give for the same document.
"""

from __future__ import annotations

import json
import re
from itertools import chain, repeat

from .core import EflGraph, build_from_pairs
from .serialize import _Assignment, _numbered_coloring, fold_assignment

__all__ = ["read_pair_graph", "read_vertex_coloring"]

# bytes read at a time
_CHUNK = 1 << 16
# the whitespace JSON allows between tokens: no more, as json.loads
_WS = rb"[ \t\n\r]*"


def _list_chunks(fh, first: bytes, key: bytes, close: bytes, hook=None):
    """Reads the document {"<first>": <int>, "<key>": [...]}, keys in
    that order and nothing after it, from the binary file fh: yields the
    int, then the list's elements a chunk at a time, decoded by ``json``
    with object hook ``hook``.  Raises ValueError on any other document.

    Each element ends in ``close``, so a chunk is cut after the last
    ``close`` followed by a comma.  A cut inside a string or a nested
    value leaves a chunk that does not decode, so every cut that decodes
    falls between elements.  The document's tail is checked first: one
    with another key after the list (a graph's "cliques") is refused
    before any element is decoded.
    """
    fh.seek(max(0, fh.seek(0, 2) - 64))
    if not re.search(
        rb"(?:[0-9]%s%s|\[)%s\]%s\}%s\Z" % (_WS, close, _WS, _WS, _WS),
        fh.read(),
    ):
        raise ValueError("another document")
    fh.seek(0)
    buf = data = b""
    while b"[" not in buf:
        data = fh.read(_CHUNK)
        if not data:
            raise ValueError("another document")
        buf += data
    head = re.match(
        rb'%s\{%s"%s"%s:%s(-?(?:0|[1-9][0-9]*))%s,%s"%s"%s:%s\['
        % (_WS, _WS, first, _WS, _WS, _WS, _WS, key, _WS, _WS), buf
    )
    if head is None:
        raise ValueError("another document")
    yield int(head[1])
    decoder = json.JSONDecoder(object_hook=hook)
    buf = buf[head.end():]
    try:  # RecursionError: an element nested too deeply to decode
        while data:
            data = fh.read(_CHUNK)
            buf += data
            cut = buf.rfind(close + b",") + 1
            if cut:
                yield decoder.decode("[" + buf[:cut].decode() + "]")
                buf = buf[cut + 1:]
        text = "[" + buf.decode()
        items, end = decoder.raw_decode(text)
    except RecursionError:
        raise ValueError("another document") from None
    if not re.fullmatch(r"[ \t\n\r]*\}[ \t\n\r]*", text[end:]):
        raise ValueError("another document")
    yield items


def _interned_pairs(ints: dict, chunk: list):
    """A chunk of "shared_pairs" as tuples of the ints in ``ints``, where
    each is added the first time it is met; ValueError unless every entry
    is an [i, j] integer pair, by the screen of
    ``serialize.pairs_from_json``."""
    if not (set(map(type, chunk)) <= {list} and set(map(len, chunk)) <= {2}
            and set(map(type, chain.from_iterable(chunk))) <= {int}):
        raise ValueError("not integer pairs")
    flat = map(ints.setdefault, chain.from_iterable(chunk),
               chain.from_iterable(chunk))
    return zip(flat, flat)


def read_pair_graph(fh) -> EflGraph:
    """The graph of a {"n", "shared_pairs"} document in the binary file
    fh, as ``serialize.graph_from_json`` builds it, read a chunk of pairs
    at a time; ValueError on any other document, or on one that
    ``graph_from_json`` refuses."""
    chunks = _list_chunks(fh, b"n", b"shared_pairs", b"]")
    n = next(chunks)
    return build_from_pairs(n, chain.from_iterable(
        map(_interned_pairs, repeat({}), chunks)
    ))


def _folded(ints: dict, chunk: list):
    """A chunk of "assignments" with each color taken from ``ints``, as
    pairs are; ValueError unless ``fold_assignment`` folded every
    entry."""
    if not set(map(type, chunk)) <= {_Assignment}:
        raise ValueError("an entry did not fold")
    kind, a, b, c = list(zip(*chunk)) or [()] * 4
    return zip(kind, a, b, map(ints.setdefault, c, c))


def read_vertex_coloring(fh, g: EflGraph):
    """``serialize.vertex_coloring_on`` of g, a two-clique graph, and the
    {"palette", "assignments"} document in the binary file fh, read a
    chunk of entries at a time, each folded by ``fold_assignment`` and
    placed before the next chunk is read; ValueError on any other graph
    or document, or on an entry that does not fold or repeats a
    vertex."""
    if not g.is_two_clique:
        raise ValueError("not a two-clique graph")
    chunks = _list_chunks(fh, b"palette", b"assignments", b"}",
                          fold_assignment)
    palette = next(chunks)
    return _numbered_coloring(
        g, palette, chain.from_iterable(map(_folded, repeat({}), chunks))
    )
