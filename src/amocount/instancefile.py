"""Self-describing instance files.

A versioned JSON document with string vertex labels.  The canonical text
of a document is defined as ``json.dumps(body, indent=2, sort_keys=True) +
"\n"``, with the vertices and each edge array's rows in sorted order, so
that serialize(parse(text)) reproduces the bytes of any canonically written
file.  ``serialize_instance`` writes those bytes directly: with ``indent``
set, ``json.dumps`` runs its pure-Python encoder, which is slow on the
thousands of label pairs a large instance holds.

``parse_instance_text`` pauses automatic garbage collection while it
decodes the document and reads its rows, and restores the state it found
when the decode ends, also on an error.  ``json.loads`` makes one list per
edge row, and without the pause those lists start collector passes, some
of them over the whole heap.  With the pause, the complete graph on 960
vertices (0.46M edges) parses in 0.23 s instead of 0.48 s, and the one on
1900 vertices (1.8M edges) in 0.96 s instead of 2.46 s (best of 3, CPython
3.11.7 on a 2-vCPU VM).  Cyclic garbage that other threads make during a
decode waits until the decode ends.
"""

from __future__ import annotations

import gc
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote

from .graphs import _iter_bits
from .mec import BackgroundKnowledge, MecInstance, PartiallyDirectedGraph

FORMAT_NAME = "mec-count-instance"
FORMAT_VERSION = 1


class InstanceFormatError(ValueError):
    pass


@dataclass
class InstanceDocument:
    """An instance plus its label map and free-form metadata."""

    labels: tuple
    instance: MecInstance
    metadata: dict = field(default_factory=dict)


def _expect(cond, msg):
    if not cond:
        raise InstanceFormatError(msg)


def _label_pairs(raw, key, label_ids):
    _expect(isinstance(raw, list), f"'{key}' must be an array")
    pairs = []
    append = pairs.append
    # A bad item only stops this loop, and _raise_bad_pair finds the first
    # bad item again and names its fault.
    try:
        for item in raw:
            if type(item) is not list:
                break
            a, b = item
            u = label_ids[a]
            v = label_ids[b]
            if u == v:
                break
            append((u, v))
        else:
            return pairs
    except (ValueError, KeyError, TypeError):
        pass
    _raise_bad_pair(raw, key, label_ids)


def _label_masks(raw, key, label_ids):
    """The pairs of ``raw`` read as ``_label_pairs`` reads them, but ORed
    into one neighbour mask per vertex instead of listed."""
    _expect(isinstance(raw, list), f"'{key}' must be an array")
    n = len(label_ids)
    bit = [1 << v for v in range(n)]
    masks = [0] * n
    # This loop runs once per undirected edge of the instance.
    try:
        for item in raw:
            if type(item) is not list:
                break
            a, b = item
            u = label_ids[a]
            v = label_ids[b]
            if u == v:
                break
            masks[u] |= bit[v]
            masks[v] |= bit[u]
        else:
            return masks
    except (ValueError, KeyError, TypeError):
        pass
    _raise_bad_pair(raw, key, label_ids)


def _raise_bad_pair(raw, key, label_ids):
    """Raise the fault of the first bad item of ``raw``: its shape, then a
    label that is not a string, then an unknown label, then a self-loop."""
    for i, item in enumerate(raw):
        if not (type(item) is list and len(item) == 2):
            raise InstanceFormatError(f"{key}[{i}] must be a pair of labels")
        for lab in item:
            if not isinstance(lab, str):
                raise InstanceFormatError(f"{key}[{i}] must contain string labels")
            if lab not in label_ids:
                raise InstanceFormatError(f"{key}[{i}] references unknown label '{lab}'")
        if item[0] == item[1]:
            raise InstanceFormatError(f"{key}[{i}] is a self-loop")
    raise AssertionError(f"no bad item in '{key}'")


def _decode(text):
    """The labels, undirected neighbour masks, directed pairs, claim pairs
    and metadata of ``text``.  The decoded document dies on return, so no
    row list of it outlives this call."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InstanceFormatError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise InstanceFormatError("document is nested too deeply to decode") from None
    _expect(isinstance(doc, dict), "document must be a JSON object")
    _expect(doc.get("format") == FORMAT_NAME, f"'format' must be '{FORMAT_NAME}'")
    _expect(doc.get("version") == FORMAT_VERSION, f"'version' must be {FORMAT_VERSION}")
    raw_labels = doc.get("vertices")
    _expect(isinstance(raw_labels, list) and raw_labels, "'vertices' must be a non-empty array")
    for i, lab in enumerate(raw_labels):
        if not isinstance(lab, str):
            raise InstanceFormatError(f"vertices[{i}] must be a string label")
    labels = tuple(sorted(raw_labels))
    _expect(len(set(labels)) == len(labels), "'vertices' contains duplicate labels")
    label_ids = {lab: i for i, lab in enumerate(labels)}

    und = _label_masks(doc.get("undirected_edges", []), "undirected_edges", label_ids)
    dire = _label_pairs(doc.get("directed_edges", []), "directed_edges", label_ids)
    know = _label_pairs(doc.get("knowledge", []), "knowledge", label_ids)
    metadata = doc.get("metadata", {})
    _expect(isinstance(metadata, dict), "'metadata' must be an object")
    return labels, und, dire, know, metadata


def parse_instance_text(text: str) -> InstanceDocument:
    # One list per edge row would wake the cyclic collector, whose passes
    # scan the whole heap; the rows are freed by reference counting when
    # _decode returns, and JSON holds no cycle, so pausing leaves no garbage.
    enabled = gc.isenabled()
    gc.disable()
    try:
        labels, und, dire, know, metadata = _decode(text)
    finally:
        if enabled:
            gc.enable()
    try:
        graph = PartiallyDirectedGraph._from_masks(und, dire)
        knowledge = BackgroundKnowledge(know)
    except ValueError as e:
        raise InstanceFormatError(str(e)) from None
    return InstanceDocument(labels=labels, instance=MecInstance(graph, knowledge), metadata=metadata)


def load_instance(path) -> InstanceDocument:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise InstanceFormatError(f"not UTF-8 text: {e}") from None
    return parse_instance_text(text)


def serialize_instance(doc: InstanceDocument) -> str:
    """The canonical text of ``doc``, written without the indenting
    encoder on the arrays: each label is quoted once, and a row joins its
    first label's half and its second label's half.  Only ``metadata``
    goes through ``json.dumps``; nesting it one level deeper only indents
    its lines, since JSON escapes every newline inside a string.
    """
    labels = doc.labels
    g = doc.instance.graph
    opens, closes = {}, {}
    for label in labels:
        quoted = _quote(label)
        opens[label] = f"    [\n      {quoted},\n      "
        closes[label] = f"{quoted}\n    ]"

    def array(items):
        return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"

    def rows(pairs):  # sorted by label strings, which may repeat
        return array([opens[a] + closes[b] for a, b in sorted(pairs)])

    undirected = []  # one row per edge u-v with u < v, read off the masks
    for u, mask in enumerate(g.undirected_masks()):
        label = labels[u]
        undirected += [(label, labels[v]) for v in _iter_bits(mask >> u + 1 << u + 1)]
    parts = {
        "format": _quote(FORMAT_NAME),
        "version": str(FORMAT_VERSION),
        "vertices": array(["    " + _quote(label) for label in sorted(labels)]),
        "undirected_edges": rows(undirected),
        "directed_edges": rows((labels[u], labels[v]) for u, v in g.directed),
        "knowledge": rows((labels[u], labels[v]) for u, v in doc.instance.knowledge),
        "metadata": json.dumps(doc.metadata, indent=2, sort_keys=True).replace("\n", "\n  "),
    }
    return "{\n" + ",\n".join(f'  "{key}": {parts[key]}' for key in sorted(parts)) + "\n}\n"


def save_instance(doc: InstanceDocument, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_instance(doc))


def default_labels(n: int) -> tuple:
    width = len(str(n - 1)) if n > 1 else 1
    return tuple(f"v{i:0{width}d}" for i in range(n))
