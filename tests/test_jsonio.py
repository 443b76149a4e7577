import itertools
import json
import random
import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from totalcolour import (
    IncompleteColouringError,
    ParseError,
    SearchBudget,
    TotalColouring,
    complete_graph,
    crown_graph,
    crown_total_colouring,
    direct_product,
    exact_chi_total,
    knm_total_colouring,
    make_graph,
    path_graph,
    verify_total,
)
from totalcolour import jsonio
from totalcolour.colouring import check_cover

import graph_decode_reference
from conftest import random_graph


def test_graph_round_trip_is_identity():
    g = make_graph(4, [(3, 1), (0, 2)], labels=["a", "b", "c", "d"])
    obj = jsonio.graph_to_obj(g)
    assert obj == {"n": 4, "edges": [[0, 2], [1, 3]], "labels": ["a", "b", "c", "d"]}
    again = jsonio.graph_from_obj(json.loads(json.dumps(obj)))
    assert again == g
    assert jsonio.graph_to_obj(again) == obj


def test_graph_from_obj_rejects_malformed():
    for bad in (
        [],
        {"n": -1, "edges": []},
        {"n": 2},
        {"n": 2, "edges": [[0]]},
        {"n": 2, "edges": [[0, "x"]]},
        {"n": 2, "edges": [[0, 0]]},
        {"n": 2, "edges": [[0, 5]]},
        {"n": True, "edges": []},
        {"n": 2, "edges": [], "labels": [1, 2]},
    ):
        with pytest.raises(ParseError):
            jsonio.graph_from_obj(bad)


ENTRY_DEFECTS = (
    "exact-repeat", "reversed-repeat", "self-loop", "below-0", "at-or-above-n",
    "bool", "float", "str", "length-1", "length-3", "not-a-list",
)


def _bad_entry(draw, kind, n, entries):
    """One ``[u, v]`` entry with the given defect, for an n-vertex graph whose
    good entries are ``entries``."""
    end = st.integers(0, max(n - 1, 0))
    if kind.endswith("repeat"):
        u, v = draw(st.sampled_from(entries)) if entries else [0, 1]
        return [u, v] if kind == "exact-repeat" else [v, u]
    u, v = draw(end), draw(end)
    if kind == "self-loop":
        return [u, u]
    if kind == "below-0":
        return draw(st.permutations([u, draw(st.integers(-3, -1))]))
    if kind == "at-or-above-n":
        return draw(st.permutations([u, draw(st.integers(n, n + 2))]))
    if kind in ("bool", "float", "str"):
        odd = {"bool": st.booleans(), "float": st.floats(-1, n + 1), "str": st.text(max_size=2)}
        return draw(st.permutations([u, draw(odd[kind])]))
    if kind == "length-1":
        return [u]
    if kind == "length-3":
        return [u, v, draw(end)]
    return draw(st.sampled_from([None, u, "0 1", {"u": u, "v": v}, (u, v)]))


@st.composite
def _graph_documents(draw):
    """A graph document: its edges sorted and canonical, shuffled, or flipped,
    with up to three bad entries planted anywhere, and labels of any count."""
    n = draw(st.integers(0, 6))
    pairs = [list(p) for p in itertools.combinations(range(n), 2)]
    entries = draw(st.lists(st.sampled_from(pairs), unique_by=tuple)) if pairs else []
    order = draw(st.sampled_from(["sorted", "shuffled", "flipped"]))
    if order == "sorted":
        entries.sort()
    else:
        entries = draw(st.permutations(entries))
    if order == "flipped":
        entries = [[v, u] if draw(st.booleans()) else [u, v] for u, v in entries]
    good = list(entries)
    for kind in draw(st.lists(st.sampled_from(ENTRY_DEFECTS), max_size=3)):
        entry = _bad_entry(draw, kind, n, good)
        entries.insert(draw(st.integers(0, len(entries))), entry)
    doc = {"n": n, "edges": entries}
    if draw(st.booleans()):
        doc["labels"] = draw(st.lists(st.text(max_size=2), min_size=max(n - 1, 0), max_size=n + 1))
    return doc


def _decoded_graph(decode, doc):
    try:
        return decode(doc)
    except ParseError as exc:
        return f"ParseError: {exc}"


@settings(max_examples=400, deadline=None)
@given(_graph_documents())
def test_graph_decoder_matches_the_two_loop_reference(doc):
    """The one-loop decoder gives the graph the reference gives, or the
    ParseError it raises, with the same message."""
    expected = _decoded_graph(graph_decode_reference.graph_from_obj, doc)
    assert _decoded_graph(jsonio.graph_from_obj, doc) == expected


def test_colouring_round_trip():
    tc = knm_total_colouring(4, 3)
    obj = jsonio.colouring_to_obj(tc)
    assert len(obj["vertex_colours"]) == 12
    assert all(len(e) == 3 for e in obj["edge_colours"])
    again = jsonio.colouring_from_obj(json.loads(json.dumps(obj)))
    assert again == tc


def test_colouring_from_obj_rejects_malformed():
    for bad in (
        {"vertex_colours": [0], "edge_colours": [[0, 1]]},
        {"vertex_colours": [-1], "edge_colours": []},
        {"vertex_colours": [0, 1], "edge_colours": [[0, 0, 1]]},
        {"vertex_colours": "zz", "edge_colours": []},
        {"vertex_colours": [0, 1], "edge_colours": [[0, 1, 0], [1, 0, 2]]},
        {"vertex_colours": [0, 1], "edge_colours": [[0, 1, 0], [0, 1, 2]]},
        {"vertex_colours": [0, 1], "edge_colours": [[0, 1, -1]]},
        "nope",
    ):
        with pytest.raises(ParseError):
            jsonio.colouring_from_obj(bad)


DEFECTS = (
    "bool", "short", "self-loop", "out-of-range",
    "exact-repeat", "reversed-repeat", "foreign-pair", "negative",
)


def _plant(r, g, triples, defect):
    """``triples`` with one entry of the given defect at a random position,
    or None when the graph leaves no room for it."""
    triples = [list(t) for t in triples]
    non_edges = [
        (u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)
    ]
    if not triples or (defect == "foreign-pair" and not non_edges):
        return None
    if defect.endswith("repeat"):
        u, v, _ = r.choice(triples)
        pair = [u, v] if defect == "exact-repeat" else [v, u]
        triples.insert(r.randrange(len(triples) + 1), pair + [r.randrange(3)])
        return triples
    at = r.randrange(len(triples))
    u, v, c = triples[at]
    if defect == "bool":
        triples[at][r.randrange(3)] = r.random() < 0.5
    elif defect == "short":
        triples[at] = triples[at][: r.randrange(3)]
    elif defect == "self-loop":
        triples[at] = [u, u, c]
    elif defect == "out-of-range":
        triples[at] = [u, g.n + r.randrange(3), c]
    elif defect == "foreign-pair":
        triples[at] = [*r.choice(non_edges), c]
    else:
        triples[at] = [u, v, -1 - r.randrange(3)]
    return triples


def _shuffled_flipped(r, triples):
    """The triples in random order, each entry of three ints flipped at random;
    a planted bool or short entry stays as written, so its message is unchanged."""
    out = []
    for t in r.sample(triples, len(triples)):
        ints = len(t) == 3 and all(type(x) is int for x in t)
        out.append([t[1], t[0], t[2]] if ints and r.random() < 0.5 else t)
    return out


def _decoded(graph, vertex_colours, triples):
    """The bundle's graph and colouring, or the text of the error its decode
    or cover check raises."""
    doc = {
        "graph": graph,
        "colouring": {"vertex_colours": vertex_colours, "edge_colours": triples},
    }
    try:
        g, tc, _ = jsonio.bundle_from_obj(json.loads(json.dumps(doc)))
        check_cover(g, tc)
    except (ParseError, IncompleteColouringError) as exc:
        return f"{type(exc).__name__}: {exc}"
    in_order = [tuple(t[:2]) for t in triples] == list(g.edges)
    assert (tc.edges is g.edges) == in_order
    return g, tc


def test_decode_against_the_graph_matches_any_order():
    """A bundle in the graph's edge order decodes in one pass, sharing the
    graph's edges; listed in any other order it decodes through from_parts.
    Both give the same colouring, or the same error for the same defect."""
    r = random.Random(2121)
    shared = errors = 0
    for _ in range(600):
        g = random_graph(r, max_n=8, p=0.5)
        graph = jsonio.graph_to_obj(g)
        vcs = [r.randrange(4) for _ in range(g.n)]
        triples = [[u, v, r.randrange(4)] for u, v in g.edges]
        defect = r.choice(DEFECTS) if r.random() < 0.6 else None
        if defect is not None:
            triples = _plant(r, g, triples, defect)
            if triples is None:
                continue
        written = _decoded(graph, vcs, triples)
        assert isinstance(written, str) == (defect is not None), (defect, written)
        assert _decoded(graph, vcs, _shuffled_flipped(r, triples)) == written
        if isinstance(written, str):
            errors += 1
        else:
            shared += written[1].edges is written[0].edges
    assert shared > 150 and errors > 250


def test_bundle_round_trip():
    g = crown_graph(3)
    tc = crown_total_colouring(3).colouring
    report = verify_total(g, tc)
    obj = jsonio.bundle_to_obj(g, tc, report, meta={"construction": "crown"})
    g2, tc2, rep2 = jsonio.bundle_from_obj(json.loads(json.dumps(obj)))
    assert g2 == g
    assert tc2 == tc
    assert rep2["valid"] is True
    assert rep2["colours_used"] == 3


def test_report_violations_encoding():
    from totalcolour import TotalColouring

    k2 = complete_graph(2)
    rep = verify_total(k2, TotalColouring.from_parts([0, 1], [(0, 1, 0)]))
    obj = jsonio.report_to_obj(rep)
    assert obj["valid"] is False
    assert obj["violations"] == [[["v", 0], ["e", 0, 1], 0]]
    # P3 coloured 0, 0, 1 with both edges 2: a vertex-vertex and an edge-edge
    # conflict; each listed element equals its JSON encoding as a tuple
    p3 = path_graph(3)
    rep = verify_total(p3, TotalColouring.from_parts([0, 0, 1], [(0, 1, 2), (1, 2, 2)]))
    obj = jsonio.report_to_obj(rep)
    assert obj["violations"] == [
        [["v", 0], ["v", 1], 0],
        [["e", 0, 1], ["e", 1, 2], 2],
    ]
    for (a, b, c), listed in zip(rep.violations, obj["violations"]):
        assert [list(a), list(b), c] == listed
    read_back = json.loads(json.dumps(obj))["violations"]
    assert [(tuple(a), tuple(b), c) for a, b, c in read_back] == rep.violations


def test_oracle_result_schema():
    g, _ = direct_product(complete_graph(2), complete_graph(2))
    res = exact_chi_total(g, SearchBudget(max_seconds=10.0))
    obj = jsonio.oracle_result_to_obj(g, res)
    assert set(obj) == {"graph", "chi_total", "lower", "upper", "nodes", "status"}
    assert obj["status"] == "exact"
    assert obj["chi_total"] == 3


def test_dot_export_crown3():
    g = crown_graph(3)
    tc = crown_total_colouring(3).colouring
    dot = jsonio.to_dot(g, tc)
    assert dot.startswith("graph G {")
    assert dot.count(" -- ") == 6
    assert dot.count("fillcolor=") == 6
    fills = {line.split('fillcolor="')[1][:7] for line in dot.splitlines() if "fillcolor" in line}
    assert len(fills) == 3


def test_dot_export_edgeless_and_wrapped_colours():
    from totalcolour import TotalColouring, edgeless_graph

    g = edgeless_graph(2)
    tc = TotalColouring.from_parts([0, len(jsonio.DOT_PALETTE) + 1], [])
    dot = jsonio.to_dot(g, tc)
    assert " -- " not in dot
    assert "(wrapped)" in dot


def test_dot_labels_are_escaped():
    import re

    from totalcolour import TotalColouring

    g = make_graph(4, [(0, 1), (2, 3)], ['a"b', "c\\", '\\"', "plain"])
    tc = TotalColouring.from_parts([0, 1, 0, 1], [(0, 1, 2), (2, 3, 2)])
    escaped = ['a\\"b', "c\\\\", '\\\\\\"', "plain"]
    # a DOT quoted string runs to the first quote that no backslash escapes
    quoted = re.compile(r'^  \d+ \[label="((?:[^"\\]|\\.)*)"', re.M)
    assert quoted.findall(jsonio.to_dot(g)) == escaped
    assert quoted.findall(jsonio.to_dot(g, tc)) == [
        f"{e}\\nc{c}" for e, c in zip(escaped, tc.vertex_colours)
    ]


def test_load_json_failures(tmp_path, malformed_json_files):
    with pytest.raises(ParseError):
        jsonio.load_json(tmp_path / "missing.json")
    for bad in malformed_json_files:
        with pytest.raises(ParseError):
            jsonio.load_json(bad)


def test_crlf_line_endings_load_the_same_graph(tmp_path):
    text = json.dumps({"n": 3, "edges": [[0, 1], [1, 2]], "labels": ["a", "b", "c"]}, indent=2)
    unix, dos = tmp_path / "unix.json", tmp_path / "dos.json"
    unix.write_bytes(text.encode())
    dos.write_bytes(text.replace("\n", "\r\n").encode())
    assert b"\r\n" in dos.read_bytes()
    graphs = [jsonio.graph_from_obj(jsonio.load_json(path)) for path in (unix, dos)]
    assert graphs[0] == graphs[1] == make_graph(3, [(0, 1), (1, 2)], ("a", "b", "c"))


def test_the_first_repeated_key_in_document_order_is_named(tmp_path):
    path = tmp_path / "repeated.json"
    path.write_text('{"a": 0, "b": 0, "b": 1, "a": 1}')
    with pytest.raises(ParseError, match="repeated key 'a'$"):
        jsonio.load_json(path)


def test_repeated_key_check_is_linear(tmp_path):
    # the last of 50,000 keys given again: counting each key's copies in
    # turn would take a quadratic number of steps to reach it
    keys = [f"k{i}" for i in range(50_000)]
    path = tmp_path / "many.json"
    path.write_text("{" + ",".join(f'"{k}": 0' for k in keys + keys[-1:]) + "}")
    start = time.perf_counter()
    with pytest.raises(ParseError, match="repeated key 'k49999'$"):
        jsonio.load_json(path)
    assert time.perf_counter() - start < 2.0


def test_save_json_is_compact_and_indented_bundles_still_load(tmp_path):
    tc = knm_total_colouring(4, 3)
    g, _ = direct_product(complete_graph(4), complete_graph(3))
    bundle = jsonio.bundle_to_obj(g, tc, verify_total(g, tc), {"construction": "knm"})
    compact, indented = tmp_path / "compact.json", tmp_path / "indented.json"
    jsonio.save_json(compact, bundle)
    assert compact.read_text() == json.dumps(bundle, separators=(",", ":")) + "\n"
    # the layout older versions wrote
    indented.write_text(json.dumps(bundle, indent=2) + "\n")
    assert jsonio.load_json(indented) == jsonio.load_json(compact) == bundle


def _triples(count):
    return [[i, i + 1 + i % 7, i % 5] for i in range(count)]


@pytest.mark.parametrize(
    "count",
    [0, jsonio._SLICE - 1, jsonio._SLICE, jsonio._SLICE + 1, 2 * jsonio._SLICE + 1],
)
def test_save_json_slices_are_byte_identical(tmp_path, count):
    """The slice writer gives the text json.dumps gives, at every slice boundary."""
    labels = ['q"uote', "back\\slash", "caf\u00e9", "\u2603 snow", "tab\there", "\U0001f600"]
    docs = [
        _triples(count),
        {"colouring": {"vertex_colours": list(range(count)), "edge_colours": _triples(count)}},
        {"graph": {"n": 3, "edges": _triples(count), "labels": labels}, "meta": {}},
        {"a": {"b": {"c": [_triples(count), {}, []]}}, "\u00e9\"k": [None, True, 1.5]},
        {"meta": {}, "report": {"valid": False, "violations": [[["v", 0], ["e", 0, 1], 0]]}},
        {},
        [],
        {1: _triples(count)},  # json.dumps turns the int key into "1"
    ]
    path = tmp_path / "doc.json"
    for doc in docs:
        jsonio.save_json(path, doc)
        assert path.read_bytes() == (json.dumps(doc, separators=(",", ":")) + "\n").encode()


# a quote, a backslash, a control character, non-ASCII and an astral character
ESCAPED = st.text(st.sampled_from('a"\\/\té☃\U0001f600'), max_size=3)


@st.composite
def _records(draw, count):
    """A graph with ``count`` edges and up to three isolated vertices placed
    anywhere; a colouring of it from a palette with gaps that holds 10**6,
    with conflicts planted at random; its report; and meta."""
    r = random.Random(draw(st.integers(0, 2**32)))
    k = next(k for k in itertools.count() if k * (k - 1) // 2 >= count)
    n = k + draw(st.integers(0, 3))
    place = r.sample(range(n), n)
    pairs = r.sample(list(itertools.combinations(range(k), 2)), count)
    labels = draw(st.none() | st.lists(ESCAPED, min_size=n, max_size=n))
    g = make_graph(n, [(place[u], place[v]) for u, v in pairs], labels)
    step = draw(st.sampled_from([1, 3, 997]))
    colours = [step * i for i in range(n + count)]
    if colours:
        colours[r.randrange(n + count)] = 10**6
        for _ in range(draw(st.integers(0, 3))):
            colours[r.randrange(n + count)] = r.choice(colours)
    if count and draw(st.booleans()):  # vertex u takes the colour of edge uv
        e = r.randrange(count)
        colours[g.edges[e][0]] = colours[n + e]
    tc = TotalColouring(colours[:n], g.edges, colours[n:])
    meta = draw(st.sampled_from([None, {}]) | st.fixed_dictionaries(
        {"construction": st.just("lift"), "params": st.lists(ESCAPED, max_size=3)}
    ))
    return g, tc, verify_total(g, tc), meta


def _dumped(obj):
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode()


@pytest.mark.parametrize(
    "count",
    [0, jsonio._SLICE - 1, jsonio._SLICE, jsonio._SLICE + 1, 2 * jsonio._SLICE + 1],
)
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_record_writers_give_the_bytes_of_json_dumps(tmp_path, count, data):
    """``colour -o`` and ``product -o`` files, written from the records a slice
    at a time, are the compact json.dumps of ``bundle_to_obj`` and
    ``graph_to_obj``, and what they print without ``-o`` is its text with
    ``indent=2``."""
    g, tc, report, meta = data.draw(_records(count))
    path = tmp_path / "out.json"
    jsonio.save_bundle(path, g, tc, report, meta)
    assert path.read_bytes() == _dumped(jsonio.bundle_to_obj(g, tc, report, meta))
    jsonio.save_graph(path, g)
    assert path.read_bytes() == _dumped(jsonio.graph_to_obj(g))
    indented = "".join(jsonio.bundle_text(g, tc, report, meta, indent=True))
    assert indented == json.dumps(jsonio.bundle_to_obj(g, tc, report, meta), indent=2)
    indented = "".join(jsonio.graph_text(g, indent=True))
    assert indented == json.dumps(jsonio.graph_to_obj(g), indent=2)


def test_bundle_write_needs_no_memory_per_edge(tmp_path):
    """The K20 x K19 bundle, 1.47 MB of text, is written with an allocation
    peak under 1 MB: per-edge lists, or the whole text as one string, would
    take more (save_json of bundle_to_obj peaks at about 11 MB)."""
    tc = knm_total_colouring(20, 19)
    g, _ = direct_product(complete_graph(20), complete_graph(19))
    report = verify_total(g, tc)
    path = tmp_path / "k20.json"
    tracemalloc.start()
    try:
        jsonio.save_bundle(path, g, tc, report, {"construction": "knm", "params": [20, 19]})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 1_400_000
    assert peak < 1_000_000
