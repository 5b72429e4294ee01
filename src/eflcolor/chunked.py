"""Chunked readers for the documents the CLI writes at scale.

:func:`read_graph` reads a {"n", "shared_pairs", "cliques"} graph
document, with either list or both, and :func:`read_vertex_coloring` a
{"palette", "assignments"} vertex-coloring document, from a binary file.
A list of pairs or of assignments is decoded by ``json``'s C decoder a
chunk of complete elements at a time, each chunk placed and dropped
before the next is read, and the ints a read keeps are taken from one
shared table; cliques are decoded one at a time, each screened by
``serialize.graph_from_json``'s own function and taken by the rule scan
of :func:`eflcolor.core.validate_keys` before the next.  So no document
is held whole.  They read nothing else: a document with other
keys, another key order or any defect raises ValueError, for the
whole-document readers of :mod:`eflcolor.serialize` to read or report
as they always have.  The result is what those readers give for the
same document.  The cyclic garbage collector is paused while a reader
builds its containers, none of which holds a cycle.
"""

from __future__ import annotations

import codecs
import json
import re
from itertools import chain, repeat

from .core import (
    EflGraph,
    Rejection,
    _gc_paused,
    build_from_pairs,
    validate_keys,
)
from .serialize import (
    _Assignment,
    _clique_keys,
    _numbered_coloring,
    fold_assignment,
)

__all__ = ["read_graph", "read_vertex_coloring"]

# bytes read at a time
_CHUNK = 1 << 16
# the whitespace JSON allows between tokens: no more, as json.loads
_SPACE = re.compile(r"[ \t\n\r]*")
# the end of a list whose elements end in "]" or "}" and hold no other
_LIST_END = {c: re.compile(r"\%s[ \t\n\r]*\]" % c) for c in "]}"}


class _Text:
    """The text of a binary file, decoded as UTF-8 a chunk at a time and
    read from the front: JSON values one at a time or a chunk of list
    elements at a time, and the tokens between them."""

    def __init__(self, fh):
        self.fh, self.text, self.pos = fh, "", 0
        self.utf8 = codecs.getincrementaldecoder("utf-8")()

    def more(self) -> bool:
        """Append the next chunk, dropping the text already read; False
        at the end of the file.  A chunk is at least as long as the text
        left unread, so a value that keeps failing to decode, cut off or
        invalid, is read in doubling steps, not again per chunk."""
        data = self.fh.read(max(_CHUNK, len(self.text) - self.pos))
        self.text = self.text[self.pos:] + self.utf8.decode(data, not data)
        self.pos = 0
        return bool(data)

    def take(self, token: str) -> bool:
        """Read past the whitespace JSON allows, then past token if it is
        next: the empty token reads past whitespace only."""
        while True:
            self.pos = _SPACE.match(self.text, self.pos).end()
            if len(self.text) - self.pos >= max(len(token), 1) \
                    or not self.more():
                break
        if not self.text.startswith(token, self.pos):
            return False
        self.pos += len(token)
        return True

    def need(self, *tokens):
        for token in tokens:
            if not self.take(token):
                raise ValueError("another document")

    def value(self, decoder):
        """The next JSON value, decoded once the text holds all of it:
        a value cut by the end of the text fails to decode, or, for a
        number or literal, ends where the text does."""
        self.take("")
        while True:
            try:
                value, end = decoder.raw_decode(self.text, self.pos)
            except RecursionError:  # nested too deeply, however it ends
                raise ValueError("another document") from None
            except ValueError:
                if self.more():
                    continue
                raise ValueError("another document") from None
            if end < len(self.text) or not self.more():
                self.pos = end
                return value

    def int_field(self, key: str, decoder) -> int:
        """The integer value of the object key that comes next."""
        self.need(f'"{key}"', ":")
        value = self.value(decoder)
        if type(value) is not int:
            raise ValueError("another document")
        return value

    def items(self, decoder):
        """Yields the elements of the list whose "[" was just read, one
        at a time, then reads its "]"."""
        if self.take("]"):
            return
        while True:
            yield self.value(decoder)
            if not self.take(","):
                self.need("]")
                return

    def chunks(self, decoder, close: str):
        """Yields the elements of the list whose "[" was just read, each
        ending in ``close`` and holding no other, as lists of a chunk of
        elements, then reads its "]".

        The list ends at the first ``close`` that a "]" follows, and a
        chunk at the last ``close`` followed by a comma.  A cut inside a
        string or a nested value leaves a chunk that does not decode, so
        every cut that decodes falls between elements.
        """
        if self.take("]"):
            return
        while True:
            end = _LIST_END[close].search(self.text, self.pos)
            cut = end.start() + 1 if end \
                else self.text.rfind(close + ",", self.pos) + 1
            if cut > self.pos:
                try:
                    yield decoder.decode("[" + self.text[self.pos:cut] + "]")
                except RecursionError:
                    raise ValueError("another document") from None
                if end:
                    self.pos = end.end()
                    return
                self.pos = cut + 1
            elif not self.more():
                raise ValueError("another document")

    def end(self):
        """ValueError unless the object closes and nothing follows it."""
        self.need("}", "")
        if self.pos < len(self.text):
            raise ValueError("another document")


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


def _folded(ints: dict, chunk: list):
    """A chunk of "assignments" with each color taken from ``ints``, as
    pairs are; ValueError unless ``fold_assignment`` folded every
    entry."""
    if not set(map(type, chunk)) <= {_Assignment}:
        raise ValueError("an entry did not fold")
    kind, a, b, c = list(zip(*chunk)) or [()] * 4
    return zip(kind, a, b, map(ints.setdefault, c, c))


def read_vertex_coloring(fh, g: EflGraph):
    """``serialize.vertex_coloring_on`` of g and the {"palette",
    "assignments"} document in the binary file fh, read a chunk of
    entries at a time, each folded by ``fold_assignment`` and placed
    before the next chunk is read; ValueError on any other document, or
    on an entry that does not fold or repeats a vertex."""
    text = _Text(fh)
    decoder = json.JSONDecoder(object_hook=fold_assignment)
    text.need("{")
    palette = text.int_field("palette", decoder)
    text.need(",", '"assignments"', ":", "[")
    with _gc_paused():
        coloring = _numbered_coloring(g, palette, chain.from_iterable(
            map(_folded, repeat({}), text.chunks(decoder, "}"))
        ))
    text.end()
    return coloring


def read_graph(fh) -> EflGraph:
    """The graph of a {"n", "shared_pairs", "cliques"} document in the
    binary file fh, with either list or both, as
    ``serialize.graph_from_json`` builds it; ValueError on any other
    document, or on one that ``graph_from_json`` refuses.

    The pairs are read a chunk at a time into ``build_from_pairs``, each
    int taken from one shared table.  A document that ends there is that
    pair graph.  The cliques, whose elements are nested lists that no cut
    of the text can separate, are decoded one at a time, each screened by
    ``graph_from_json``'s ``_clique_keys``, then taken by the rule scan
    before the next is read; the pairs, when listed, must be the graph's.
    """
    text, decoder = _Text(fh), json.JSONDecoder()
    text.need("{")
    n = text.int_field("n", decoder)
    text.need(",")
    listed = None
    with _gc_paused():
        if text.take('"shared_pairs"'):
            text.need(":", "[")
            listed = build_from_pairs(n, chain.from_iterable(map(
                _interned_pairs, repeat({}), text.chunks(decoder, "]")
            )))
            if not text.take(","):
                text.end()
                return listed
        text.need('"cliques"', ":", "[")
        g = validate_keys(map(_clique_keys, text.items(decoder)), n)
    text.end()
    if isinstance(g, Rejection) \
            or listed is not None and listed.pairs != g.pairs:
        raise ValueError("another document")
    return g
