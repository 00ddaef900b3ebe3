"""The JSON instance format: parsing, canonical serialization, diagnostics."""

import importlib
import json
import random
from pathlib import Path

import pytest

import amocount
from amocount.instancefile import (
    FORMAT_NAME,
    FORMAT_VERSION,
    InstanceDocument,
    InstanceFormatError,
    default_labels,
    load_instance,
    parse_instance_text,
    save_instance,
    serialize_instance,
)
from amocount.mec import BackgroundKnowledge, MecInstance, PartiallyDirectedGraph

GOOD = {
    "format": FORMAT_NAME,
    "version": FORMAT_VERSION,
    "vertices": ["a", "b", "c", "d"],
    "undirected_edges": [["a", "b"], ["b", "c"], ["a", "c"]],
    "directed_edges": [["a", "d"]],
    "knowledge": [["b", "a"]],
    "metadata": {"seed": 7},
}


def text(doc=None, **overrides):
    body = dict(doc or GOOD)
    body.update(overrides)
    return json.dumps(body)


class TestParse:
    def test_good_document(self):
        doc = parse_instance_text(text())
        assert doc.labels == ("a", "b", "c", "d")
        g = doc.instance.graph
        assert g.n == 4
        assert g.undirected == frozenset({(0, 1), (1, 2), (0, 2)})
        assert g.directed == frozenset({(0, 3)})
        assert doc.instance.knowledge == BackgroundKnowledge([(1, 0)])
        assert doc.metadata == {"seed": 7}
        assert doc.labels[3] == "d"

    def test_labels_are_sorted_for_ids(self):
        doc = parse_instance_text(text(vertices=["d", "c", "b", "a"]))
        assert doc.labels == ("a", "b", "c", "d")

    def test_optional_sections_default_empty(self):
        doc = parse_instance_text(
            json.dumps({"format": FORMAT_NAME, "version": FORMAT_VERSION, "vertices": ["x"]})
        )
        assert doc.instance.graph.n == 1
        assert len(doc.instance.knowledge) == 0
        assert doc.metadata == {}

    def test_json_error_reports_position(self):
        with pytest.raises(InstanceFormatError) as e:
            parse_instance_text('{"format": \n!')
        assert "line 2" in str(e.value)

    @pytest.mark.parametrize(
        "mutation,needle",
        [
            ({"format": "something-else"}, "'format'"),
            ({"version": 99}, "'version'"),
            ({"vertices": []}, "'vertices'"),
            ({"vertices": ["a", "a", "b", "c"]}, "duplicate"),
            ({"vertices": ["a", 3, "b", "c"]}, "vertices[1]"),
            ({"undirected_edges": [["a"]]}, "undirected_edges[0]"),
            ({"undirected_edges": [["a", "z"]]}, "unknown label 'z'"),
            ({"knowledge": [["a", "a"]]}, "self-loop"),
            ({"metadata": 5}, "'metadata'"),
        ],
    )
    def test_schema_violations(self, mutation, needle):
        with pytest.raises(InstanceFormatError) as e:
            parse_instance_text(text(**mutation))
        assert needle in str(e.value)

    @pytest.mark.parametrize(
        "mutation,message",
        [
            ({"undirected_edges": [["a", "b"], ["a"]]}, "undirected_edges[1] must be a pair of labels"),
            ({"directed_edges": [["a", 3]]}, "directed_edges[0] must contain string labels"),
            ({"undirected_edges": [["a", "z"]]}, "undirected_edges[0] references unknown label 'z'"),
            ({"knowledge": [["c", "c"]]}, "knowledge[0] is a self-loop"),
        ],
    )
    def test_edge_messages_are_exact(self, mutation, message):
        with pytest.raises(InstanceFormatError) as e:
            parse_instance_text(text(**mutation))
        assert str(e.value) == message

    @pytest.mark.parametrize(
        "mutation,message",
        [
            # an item's faults are tried in order: its shape, a label that is
            # not a string, an unknown label, a self-loop
            ({"undirected_edges": [["a", "b"], "ab"]},
             "undirected_edges[1] must be a pair of labels"),
            ({"undirected_edges": [{"a": 1, "b": 2}]},
             "undirected_edges[0] must be a pair of labels"),
            ({"directed_edges": [["a", "b", "c"]]}, "directed_edges[0] must be a pair of labels"),
            ({"directed_edges": [[3, "z"]]}, "directed_edges[0] must contain string labels"),
            ({"directed_edges": [["a", ["b"]]]}, "directed_edges[0] must contain string labels"),
            ({"knowledge": [["z", 3]]}, "knowledge[0] references unknown label 'z'"),
            ({"knowledge": [["a", "z"], ["c", "c"]]}, "knowledge[0] references unknown label 'z'"),
            ({"knowledge": [["z", "z"]]}, "knowledge[0] references unknown label 'z'"),
            ({"directed_edges": [["d", "d"]]}, "directed_edges[0] is a self-loop"),
            # the first bad item wins, and the lists are read in file order
            ({"undirected_edges": [["a", "b"], ["c", "c"], ["z"]]},
             "undirected_edges[1] is a self-loop"),
            ({"undirected_edges": [["a", "a"]], "knowledge": [["z"]]},
             "undirected_edges[0] is a self-loop"),
            ({"directed_edges": [["a", "d"], ["d", "e"]], "knowledge": [1]},
             "directed_edges[1] references unknown label 'e'"),
        ],
    )
    def test_first_bad_item_and_its_first_fault(self, mutation, message):
        with pytest.raises(InstanceFormatError) as e:
            parse_instance_text(text(**mutation))
        assert str(e.value) == message

    def test_edge_in_both_parts_is_rejected(self):
        with pytest.raises(InstanceFormatError):
            parse_instance_text(text(directed_edges=[["a", "b"]]))

    def test_non_object_document(self):
        with pytest.raises(InstanceFormatError):
            parse_instance_text("[1, 2]")


def seeded_document(seed):
    """A document over labels out of vertex order whose undirected rows
    repeat some pairs and reverse others, with directed edges and claims.
    Returns the document and the vertex count, undirected pairs and directed
    pairs it should parse to (a vertex is its label's sorted position)."""
    rng = random.Random(seed)
    n = rng.randint(2, 40)
    labels = [f"x{i}" for i in rng.sample(range(1000), n)]
    ids = sorted(labels)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    cut = rng.randint(1, len(pairs))
    und = pairs[:cut]
    und += rng.choices(und, k=rng.randint(0, len(und)))  # repeated pairs
    und = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in und]
    dire = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs[cut:][: rng.randint(0, 6)]]
    claims = [(u, v) for u, v in und + dire if rng.random() < 0.2]
    body = dict(
        GOOD,
        vertices=labels,
        undirected_edges=[[ids[u], ids[v]] for u, v in und],
        directed_edges=[[ids[u], ids[v]] for u, v in dire],
        knowledge=[[ids[u], ids[v]] for u, v in claims],
    )
    return body, n, und, dire


class TestParseIntoMasks:
    """The parser ORs each undirected row into neighbour masks as it reads
    it; the graph and every message stay those of the pairs."""

    @pytest.mark.parametrize("seed", range(20))
    def test_graph_equals_the_graph_of_the_pairs(self, seed):
        body, n, und, dire = seeded_document(seed)
        graph = parse_instance_text(json.dumps(body)).instance.graph
        expected = PartiallyDirectedGraph(n, und, dire)
        assert graph == expected
        assert graph.undirected_masks() == expected.undirected_masks()

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "row,message",
        [
            (["x", "x", "x"], "must be a pair of labels"),
            (["x", 3], "must contain string labels"),
            (["x", "zz"], "references unknown label 'zz'"),
            (["x", "x"], "is a self-loop"),
        ],
    )
    def test_bad_row_at_a_seeded_position(self, seed, row, message):
        body, _, _, _ = seeded_document(seed)
        rows = body["undirected_edges"]
        i = random.Random(seed).randint(0, len(rows))
        label = body["vertices"][0]
        rows.insert(i, [label if lab == "x" else lab for lab in row])
        with pytest.raises(InstanceFormatError) as e:
            parse_instance_text(json.dumps(body))
        assert str(e.value) == f"undirected_edges[{i}] {message}"

    @pytest.mark.parametrize("seed", range(4))
    def test_edge_directed_both_ways(self, seed):
        body, _, und, _ = seeded_document(seed)
        ids = sorted(body["vertices"])
        rows = body["directed_edges"]
        if not rows:  # direct an undirected pair instead
            pair = [ids[w] for w in und[0]]
            body["undirected_edges"] = [r for r in body["undirected_edges"] if set(r) != set(pair)]
            rows.append(pair)
        u, v = (ids.index(label) for label in rows[0])
        rows.insert(random.Random(seed).randint(1, len(rows)), [ids[v], ids[u]])
        with pytest.raises(InstanceFormatError) as e:
            parse_instance_text(json.dumps(body))
        assert str(e.value) == f"edge {v},{u} directed both ways"

    @pytest.mark.parametrize("seed", range(4))
    def test_edge_both_directed_and_undirected(self, seed):
        body, _, und, _ = seeded_document(seed)
        ids = sorted(body["vertices"])
        u, v = und[random.Random(seed).randrange(len(und))]
        rows = body["directed_edges"]
        rows.insert(random.Random(seed).randint(0, len(rows)), [ids[v], ids[u]])
        with pytest.raises(InstanceFormatError) as e:
            parse_instance_text(json.dumps(body))
        assert str(e.value) == f"edge {v},{u} is both directed and undirected"


class TestSerialize:
    def test_round_trip_is_identity_on_canonical_text(self):
        canonical = serialize_instance(parse_instance_text(text()))
        assert serialize_instance(parse_instance_text(canonical)) == canonical

    def test_arrays_come_out_sorted(self):
        doc = parse_instance_text(
            text(undirected_edges=[["c", "b"], ["a", "b"], ["a", "c"]])
        )
        body = json.loads(serialize_instance(doc))
        assert body["undirected_edges"] == [["a", "b"], ["a", "c"], ["b", "c"]]
        assert body["vertices"] == ["a", "b", "c", "d"]

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "inst.json"
        doc = parse_instance_text(text())
        save_instance(doc, path)
        again = load_instance(path)
        assert again.instance == doc.instance
        assert again.labels == doc.labels
        assert again.metadata == doc.metadata

    def test_serialize_fresh_document(self):
        g = PartiallyDirectedGraph(3, [(0, 1)], [(1, 2)])
        doc = InstanceDocument(
            labels=default_labels(3),
            instance=MecInstance(g, BackgroundKnowledge([(0, 1)])),
        )
        body = json.loads(serialize_instance(doc))
        assert body["vertices"] == ["v0", "v1", "v2"]
        assert body["directed_edges"] == [["v1", "v2"]]
        assert body["knowledge"] == [["v0", "v1"]]

    @pytest.mark.parametrize("seed", range(6))
    def test_undirected_rows_are_the_edge_pairs(self, seed):
        # labels out of vertex order: a row keeps the lower vertex first
        rng = random.Random(seed)
        n = rng.randint(2, 30)
        labels = tuple(f"x{i}" for i in rng.sample(range(1000), n))
        g = PartiallyDirectedGraph(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        )
        doc = InstanceDocument(labels, MecInstance(g, BackgroundKnowledge()))
        body = json.loads(serialize_instance(doc))
        assert body["undirected_edges"] == sorted([labels[u], labels[v]] for u, v in g.undirected)


def reference_text(doc):
    """The canonical text by its definition: the indenting JSON encoder on
    the whole body."""
    labels = doc.labels
    g = doc.instance.graph
    body = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "vertices": sorted(labels),
        "undirected_edges": sorted([labels[u], labels[v]] for u, v in g.undirected),
        "directed_edges": sorted([labels[u], labels[v]] for u, v in g.directed),
        "knowledge": sorted([labels[u], labels[v]] for u, v in doc.instance.knowledge),
        "metadata": doc.metadata,
    }
    return json.dumps(body, indent=2, sort_keys=True) + "\n"


# quotes, backslashes, control characters, non-ASCII and an emoji (which
# the encoder writes as a surrogate pair)
LABEL_CHARS = 'ab"\\\n\t\x00/ \x7f\u00e9\u4e2d\U0001F600'


def random_metadata(rng, depth=0):
    """A JSON object, empty or nested up to three levels."""
    meta = {}
    for _ in range(rng.choice([0, 0, 1, 3]) if depth else rng.randint(0, 4)):
        key = "".join(rng.choice(LABEL_CHARS) for _ in range(rng.randint(0, 3)))
        kind = rng.randrange(7)
        if kind == 0 and depth < 3:
            meta[key] = random_metadata(rng, depth + 1)
        elif kind == 1:
            meta[key] = [rng.randint(-5, 5), rng.random(), None, True, []][: rng.randint(0, 5)]
        elif kind == 2:
            meta[key] = "".join(rng.choice(LABEL_CHARS) for _ in range(rng.randint(0, 5)))
        else:
            meta[key] = rng.choice([0, -3, 2.5, 1e-7, False, None, {}, [], 10**20])
    return meta


def random_document(seed):
    """A document built directly, so its labels may repeat: labels out of
    vertex order, with the characters JSON escapes, sometimes one vertex,
    sometimes no directed edges or claims, and free-form metadata."""
    rng = random.Random(seed)
    n = 1 if seed % 10 == 0 else rng.randint(2, 14)
    pool = rng.randint(1, 3) if seed % 7 == 0 else None  # few distinct labels

    def label():
        length = rng.randint(0, pool or 4)
        return "".join(rng.choice(LABEL_CHARS[: pool or None]) for _ in range(length))

    labels = tuple(label() for _ in range(n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    cut = rng.randint(0, len(pairs))
    rank = list(range(n))
    rng.shuffle(rank)  # directed edges follow a random order, so no cycle
    directed = [(u, v) if rank[u] < rank[v] else (v, u) for u, v in pairs[cut:]]
    directed = directed[: rng.choice([0, rng.randint(0, len(directed))])]
    claims = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in pairs if rng.random() < 0.15]
    graph = PartiallyDirectedGraph(n, pairs[:cut], directed)
    instance = MecInstance(graph, BackgroundKnowledge(claims))
    return InstanceDocument(labels, instance, random_metadata(rng))


class TestCanonicalBytes:
    """The writer produces the bytes of the indenting JSON encoder on the
    whole body without running it on the arrays."""

    def test_random_documents(self):
        shapes = set()
        for seed in range(400):
            doc = random_document(seed)
            assert serialize_instance(doc) == reference_text(doc), seed
            g = doc.instance.graph
            shapes |= {
                "one vertex" if g.n == 1 else "more",
                "repeated labels" if len(set(doc.labels)) < g.n else "distinct labels",
                "no directed edges" if not g.directed else "directed edges",
                "no claims" if not doc.instance.knowledge else "claims",
                "nested metadata" if any(type(v) is dict for v in doc.metadata.values())
                else "empty metadata" if not doc.metadata else "flat metadata",
            }
        assert len(shapes) == 11  # every case above occurs

    @pytest.mark.parametrize("name", ["dense_amo", "sparse_long", "psi_wide"])
    def test_benchmark_pools_round_trip(self, name, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        workloads = importlib.import_module("workloads")
        for text, _ in workloads.build(amocount, name, 1):
            doc = parse_instance_text(text)
            assert serialize_instance(doc) == text
            assert reference_text(doc) == text


class TestDefaultLabels:
    def test_zero_padding_tracks_size(self):
        assert default_labels(3) == ("v0", "v1", "v2")
        labels = default_labels(12)
        assert labels[0] == "v00" and labels[11] == "v11"
        assert default_labels(1) == ("v0",)
