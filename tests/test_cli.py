import gc
import itertools
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import totalcolour
from totalcolour import (
    complete_graph,
    direct_product,
    edgeless_graph,
    jsonio,
    kn_k2_total_colouring,
    make_graph,
    verify_total,
)
from totalcolour import cli
from totalcolour.cli import main


@pytest.fixture
def k2_file(tmp_path):
    path = tmp_path / "k2.json"
    jsonio.save_json(path, jsonio.graph_to_obj(complete_graph(2)))
    return str(path)


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.json"
    jsonio.save_json(path, jsonio.graph_to_obj(complete_graph(3)))
    return str(path)


def test_product_k2_k2(k2_file, tmp_path, capsys):
    out = tmp_path / "prod.json"
    assert main(["product", k2_file, k2_file, "-o", str(out)]) == 0
    captured = capsys.readouterr()
    assert "|V|=4 |E|=2 max_degree=1" in captured.out
    g = jsonio.graph_from_obj(jsonio.load_json(out))
    assert g.n == 4 and len(g.edges) == 2


def test_product_with_edgeless_factor(k3_file, tmp_path, capsys):
    e3 = tmp_path / "e3.json"
    jsonio.save_json(e3, jsonio.graph_to_obj(edgeless_graph(3)))
    out = tmp_path / "prod.json"
    assert main(["product", k3_file, str(e3), "-o", str(out)]) == 0
    assert "|V|=9 |E|=0" in capsys.readouterr().out


def test_product_to_stdout(k2_file, capsys):
    assert main(["product", k2_file, k2_file]) == 0
    captured = capsys.readouterr()
    obj = json.loads(captured.out)
    assert obj["n"] == 4
    assert "|V|=4" in captured.err  # stats go to stderr in stdout mode


def _labelled_complete(n):
    """K_n with labels holding a quote, a backslash, non-ASCII and an astral
    character, as CI's labelled product factors hold."""
    return make_graph(n, list(itertools.combinations(range(n), 2)),
                      [f'"\\\u00e9\U0001f600{i}' for i in range(n)])


def test_stdout_is_json_dumps_with_indent_2(tmp_path, capsys):
    """``colour`` and ``product`` without ``-o`` print the bytes of
    ``json.dumps(obj, indent=2)``: here the K20 x K19 bundle, a product whose
    labels need escapes, and an edgeless product and its bundle, whose empty
    lists print as ``[]``."""

    def printed(argv):
        assert main(argv) == 0
        return capsys.readouterr().out

    def bundle(g, tc, meta):
        obj = jsonio.bundle_to_obj(g, tc, verify_total(g, tc), meta)
        return json.dumps(obj, indent=2) + "\n"

    k20, _ = direct_product(complete_graph(20), complete_graph(19))
    meta = {"construction": "knm", "params": [20, 19], "colours_used": 343, "max_degree": 342}
    want = bundle(k20, totalcolour.knm_total_colouring(20, 19), meta)
    assert printed(["colour", "knm", "20", "19"]) == want
    factors = {"lk12": _labelled_complete(12), "lk7": _labelled_complete(7), "e2": edgeless_graph(2)}
    paths = {name: str(tmp_path / f"{name}.json") for name in factors}
    for name, g in factors.items():
        jsonio.save_graph(paths[name], g)
    for g, h in [("lk12", "lk7"), ("e2", "e2")]:
        prod, _ = direct_product(factors[g], factors[h])
        want = json.dumps(jsonio.graph_to_obj(prod), indent=2) + "\n"
        assert printed(["product", paths[g], paths[h]]) == want
    e6, _ = direct_product(complete_graph(3), factors["e2"])
    meta = {"construction": "kn-bipartite", "params": [3, paths["e2"]],
            "colours_used": 1, "max_degree": 0}
    want = bundle(e6, totalcolour.kn_times_bipartite(3, factors["e2"]), meta)
    assert '"edges": [],' in want and '"edge_colours": []' in want
    assert printed(["colour", "kn-bipartite", "3", paths["e2"]]) == want


def test_product_malformed_file_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["product", str(bad), str(bad)]) == 2


def test_product_empty_factor_exits_3(k2_file, tmp_path):
    empty = tmp_path / "empty.json"
    jsonio.save_json(empty, {"n": 0, "edges": []})
    assert main(["product", k2_file, str(empty)]) == 3


def test_colour_knm_4_3(tmp_path, capsys):
    out = tmp_path / "bundle.json"
    assert main(["colour", "knm", "4", "3", "-o", str(out)]) == 0
    bundle = jsonio.load_json(out)
    assert bundle["report"]["valid"] is True
    assert bundle["report"]["colours_used"] == 7
    assert bundle["meta"]["construction"] == "knm"


def test_colour_knm_open_problem_exits_4(tmp_path, capsys):
    out = tmp_path / "bundle.json"
    assert main(["colour", "knm", "3", "3", "-o", str(out)]) == 4
    assert not out.exists()  # no colouring is emitted
    assert "open problem" in capsys.readouterr().err


def test_colour_knm_bad_params_exit_3():
    assert main(["colour", "knm", "2", "4"]) == 3


def test_colour_crown(tmp_path):
    out = tmp_path / "crown.json"
    assert main(["colour", "crown", "5", "-o", str(out)]) == 0
    bundle = jsonio.load_json(out)
    assert bundle["graph"]["n"] == 10
    assert bundle["report"]["colours_used"] == 5
    assert main(["colour", "crown", "32", "-o", str(out)]) == 0
    assert jsonio.load_json(out)["report"]["colours_used"] == 32


def test_colour_lift_and_verify_round_trip(k3_file, tmp_path):
    from totalcolour import kn_k2_total_colouring, cycle_graph

    f_path = tmp_path / "f.json"
    jsonio.save_json(f_path, jsonio.colouring_to_obj(kn_k2_total_colouring(3)))
    h_path = tmp_path / "c6.json"
    jsonio.save_json(h_path, jsonio.graph_to_obj(cycle_graph(6)))
    out = tmp_path / "lifted.json"
    assert main(["colour", "lift", k3_file, str(f_path), str(h_path), "-o", str(out)]) == 0
    bundle = jsonio.load_json(out)
    assert bundle["report"]["colours_used"] == 5
    assert main(["verify", str(out)]) == 0


def test_colour_kn_bipartite(tmp_path):
    h_path = tmp_path / "p4.json"
    from totalcolour import path_graph

    jsonio.save_json(h_path, jsonio.graph_to_obj(path_graph(4)))
    out = tmp_path / "bundle.json"
    assert main(["colour", "kn-bipartite", "4", str(h_path), "-o", str(out)]) == 0
    assert jsonio.load_json(out)["report"]["colours_used"] == 7


@pytest.mark.parametrize("kind", ["kn-bipartite", "lift"])
def test_colour_over_an_h_with_no_vertices_exits_3(kind, k3_file, tmp_path, capsys):
    empty = tmp_path / "empty.json"
    jsonio.save_json(empty, {"n": 0, "edges": []})
    f_path = tmp_path / "f.json"
    jsonio.save_json(f_path, jsonio.colouring_to_obj(kn_k2_total_colouring(3)))
    args = ["3", str(empty)] if kind == "kn-bipartite" else [k3_file, str(f_path), str(empty)]
    assert main(["colour", kind, *args, "-o", str(tmp_path / "out.json")]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: direct product factors must have at least one vertex\n"
    assert not (tmp_path / "out.json").exists()


def test_verify_detects_corruption(tmp_path, capsys):
    out = tmp_path / "bundle.json"
    main(["colour", "crown", "4", "-o", str(out)])
    bundle = jsonio.load_json(out)

    graph_path = tmp_path / "graph.json"
    col_path = tmp_path / "col.json"
    jsonio.save_json(graph_path, bundle["graph"])
    jsonio.save_json(col_path, bundle["colouring"])
    assert main(["verify", str(graph_path), str(col_path)]) == 0

    corrupted = json.loads(json.dumps(bundle["colouring"]))
    corrupted["edge_colours"][0][2] = bundle["colouring"]["vertex_colours"][
        corrupted["edge_colours"][0][0]
    ]
    jsonio.save_json(col_path, corrupted)
    capsys.readouterr()
    assert main(["verify", str(graph_path), str(col_path)]) == 1
    assert "INVALID" in capsys.readouterr().out

    dropped = json.loads(json.dumps(bundle["colouring"]))
    dropped["edge_colours"] = dropped["edge_colours"][1:]
    jsonio.save_json(col_path, dropped)
    assert main(["verify", str(graph_path), str(col_path)]) == 2

    repeated = json.loads(json.dumps(bundle))
    u, v, c = repeated["colouring"]["edge_colours"][0]
    repeated["colouring"]["edge_colours"].append([v, u, c])
    jsonio.save_json(out, repeated)
    capsys.readouterr()
    assert main(["verify", str(out)]) == 2
    assert "coloured more than once" in capsys.readouterr().err


@pytest.fixture
def knm_4_3_bundle(tmp_path):
    out = tmp_path / "bundle.json"
    assert main(["colour", "knm", "4", "3", "-o", str(out)]) == 0
    return out


def test_verify_lists_each_conflict_in_its_json_encoding(knm_4_3_bundle, capsys):
    bundle = jsonio.load_json(knm_4_3_bundle)
    vertex_colours = bundle["colouring"]["vertex_colours"]
    vertex_colours[0] = vertex_colours[4]
    jsonio.save_json(knm_4_3_bundle, bundle)
    capsys.readouterr()
    assert main(["verify", str(knm_4_3_bundle)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "INVALID: 4 conflicts (showing at most 20)",
        '  ["v", 0] / ["v", 4] share colour 2',
        '  ["v", 0] / ["v", 7] share colour 2',
        '  ["v", 0] / ["v", 10] share colour 2',
        '  ["v", 0] / ["e", 0, 11] share colour 2',
    ]


def test_verify_lists_at_most_20_conflicts(knm_4_3_bundle, capsys):
    bundle = jsonio.load_json(knm_4_3_bundle)
    bundle["colouring"]["vertex_colours"] = [0] * bundle["graph"]["n"]
    jsonio.save_json(knm_4_3_bundle, bundle)
    g, tc, _ = jsonio.bundle_from_obj(bundle)
    listed = jsonio.report_to_obj(verify_total(g, tc))["violations"]
    capsys.readouterr()
    assert main(["verify", str(knm_4_3_bundle)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(listed) == 44  # 36 edges join two 0s; 4 edges coloured 0 meet both ends
    assert lines[0] == "INVALID: 44 conflicts (showing at most 20)"
    assert lines[1:] == [
        f"  {json.dumps(a)} / {json.dumps(b)} share colour {c}" for a, b, c in listed[:20]
    ]


def test_chi_exact_exit_0(tmp_path, capsys):
    g, = [jsonio.graph_to_obj(make_graph(4, [(0, 1), (2, 3)]))]
    path = tmp_path / "2k2.json"
    jsonio.save_json(path, g)
    assert main(["chi", str(path), "--seconds", "10"]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    obj = json.loads(line)
    assert obj["status"] == "exact" and obj["chi_total"] == 3


def test_chi_long_cycle_exits_0(tmp_path, capsys):
    from totalcolour import cycle_graph

    path = tmp_path / "c601.json"
    jsonio.save_json(path, jsonio.graph_to_obj(cycle_graph(601)))
    assert main(["chi", str(path), "--nodes", "150000"]) == 0
    obj = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert (obj["status"], obj["chi_total"], obj["nodes"]) == ("exact", 4, 0)


def test_internal_error_exits_6(k2_file, monkeypatch, capsys):
    def boom(args):
        raise RuntimeError("solver bug")

    monkeypatch.setattr(cli, "cmd_product", boom)
    assert main(["product", k2_file, k2_file]) == cli.EXIT_INTERNAL == 6
    assert "internal error: RuntimeError: solver bug" in capsys.readouterr().err


def test_main_restores_the_callers_gc_state(knm_4_3_bundle, tmp_path, monkeypatch, capsys):
    # the cyclic GC is off while a handler runs, whatever its exit code, and
    # is back in the caller's state afterwards, off included
    planted = tmp_path / "planted.json"
    bundle = jsonio.load_json(knm_4_3_bundle)
    bundle["colouring"]["vertex_colours"][0] = bundle["colouring"]["vertex_colours"][4]
    jsonio.save_json(planted, bundle)
    seen = []

    def boom(args):
        seen.append(gc.isenabled())
        raise RuntimeError("solver bug")

    runs = [
        (["verify", str(knm_4_3_bundle)], 0),
        (["verify", str(planted)], 1),
        (["verify", str(tmp_path / "missing.json")], 2),
    ]
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            for argv, code in runs:
                assert main(argv) == code
                assert gc.isenabled() is enabled
            with monkeypatch.context() as m:
                m.setattr(cli, "cmd_verify", boom)
                assert main(["verify", str(knm_4_3_bundle)]) == 6
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert seen == [False, False]
    capsys.readouterr()


def test_chi_timeout_exit_5(tmp_path, capsys):
    # K9 x K5 stays open at 150,000 nodes: the local search finds no
    # (Δ+1)-colouring, and half a second settles nothing
    g, _ = direct_product(complete_graph(9), complete_graph(5))
    path = tmp_path / "big.json"
    jsonio.save_json(path, jsonio.graph_to_obj(g))
    assert main(["chi", str(path), "--seconds", "0.5"]) == 5
    captured = capsys.readouterr()
    assert captured.err == ""  # no size warning: the oracle budgets itself
    obj = json.loads(captured.out.strip().splitlines()[-1])
    assert obj["status"] in ("timed_out", "lower_bound_only")
    assert obj["chi_total"] is None


@pytest.mark.parametrize("seconds", ["nan", "inf"])
def test_chi_rejects_a_non_finite_seconds_limit(k3_file, capsys, seconds):
    # a wall-clock limit that never expires is no limit: exit 3 before searching
    assert main(["chi", k3_file, "--seconds", seconds]) == cli.EXIT_PRECONDITION == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: wall-clock limit must be finite, got {seconds}\n"


def test_chi_batch(tmp_path, capsys):
    paths = []
    for name, g in [("c6", make_graph(6, [(i, (i + 1) % 6) for i in range(6)])),
                    ("2k2", make_graph(4, [(0, 1), (2, 3)]))]:
        p = tmp_path / f"{name}.json"
        jsonio.save_json(p, jsonio.graph_to_obj(g))
        paths.append(str(p))
    assert main(["chi", *paths, "--seconds", "10"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert [json.loads(l)["chi_total"] for l in lines] == [3, 3]


def test_chi_batch_with_malformed_second_file_exits_2(k2_file, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["chi", k2_file, str(bad), "--seconds", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # the first file's answer is not printed either
    assert captured.err.startswith("error: cannot read JSON")


def test_undecodable_files_exit_2(malformed_json_files, capsys):
    for bad in malformed_json_files:
        for argv in (["verify", str(bad)], ["chi", str(bad), "--nodes", "10"]):
            capsys.readouterr()
            assert main(argv) == 2, (argv, capsys.readouterr().err)
            assert capsys.readouterr().err.startswith("error: cannot read JSON")


@pytest.mark.parametrize(
    "argv, text, key",
    [
        (["chi", "--nodes", "10"], '{"n": 2, "edges": [[0, 1]], "n": 5}', "n"),
        (
            ["verify"],
            '{"graph": {"n": 2, "edges": [[0, 1]]}, '
            '"colouring": {"vertex_colours": [0, 1], "edge_colours": [[0, 1, 2]]}, '
            '"graph": {"n": 2, "edges": []}}',
            "graph",
        ),
        (
            ["verify"],
            '{"graph": {"n": 2, "edges": [[0, 1]]}, "colouring": '
            '{"vertex_colours": [0, 0], "edge_colours": [[0, 1, 2]], '
            '"vertex_colours": [0, 1]}}',
            "vertex_colours",
        ),
    ],
    ids=["graph", "bundle", "colouring-in-bundle"],
)
def test_repeated_keys_exit_2(argv, text, key, tmp_path, capsys):
    """A key given twice makes a document ambiguous, at any depth."""
    path = tmp_path / "repeated.json"
    path.write_text(text)
    assert main([*argv[:1], str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot read JSON from {path}: repeated key {key!r}\n"


def test_chi_without_budget_flags_leaves_the_default_to_the_oracle(k2_file, monkeypatch):
    budgets = []
    real = totalcolour.oracle.exact_chi_total

    def spy(g, budget=None):
        budgets.append(budget)
        return real(g, budget)

    monkeypatch.setattr(totalcolour.oracle, "exact_chi_total", spy)
    assert main(["chi", k2_file, k2_file]) == 0
    assert budgets == [None, None]
    assert main(["chi", k2_file, "--nodes", "7"]) == 0
    assert budgets[-1] == totalcolour.SearchBudget(max_nodes=7)


def _loaded_after(code: str) -> list[str]:
    """The package's modules, any process-pool module, and ``dataclasses`` or
    ``pathlib`` if loaded, in a fresh interpreter after running ``code``.

    It runs with ``-S``, so that a module preloaded by a ``site`` ``.pth``
    file does not show, and finds the package where this process did."""
    report = (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('totalcolour', 'concurrent', 'multiprocessing', 'dataclasses', 'pathlib'))))"
    )
    home = os.path.dirname(os.path.dirname(totalcolour.__file__))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code + report],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": home},
    )
    return json.loads(proc.stdout.splitlines()[-1])


# what every command runs: the CLI, the JSON layer and the verifier
CLI_MODULES = [
    "totalcolour",
    "totalcolour.cli",
    "totalcolour.colouring",
    "totalcolour.errors",
    "totalcolour.graph_core",
    "totalcolour.jsonio",
]


def test_cli_import_starts_no_process_pool():
    assert _loaded_after("import totalcolour") == ["totalcolour"]
    assert _loaded_after("import totalcolour.cli") == CLI_MODULES


@pytest.mark.parametrize(
    "argv, more",
    [
        (["colour", "knm", "4", "3", "-o", "{out}"],
         ["constructions", "edge_colouring", "products"]),
        (["verify", "{bundle}"], []),
        (["verify", "{graph}", "{colouring}"], []),
        (["export-dot", "{bundle}", "-o", "{out}"], []),
        (["chi", "{k3}", "--nodes", "1000"], ["edge_colouring", "oracle"]),
        (["product", "{k3}", "{k3}", "-o", "{out}"], ["products"]),
    ],
    ids=["colour", "verify-bundle", "verify-pair", "export-dot", "chi", "product"],
)
def test_each_command_loads_only_the_modules_it_runs(argv, more, k3_file, tmp_path):
    paths = {name: tmp_path / f"{name}.json" for name in ("out", "bundle", "graph", "colouring")}
    assert main(["colour", "knm", "4", "3", "-o", str(paths["bundle"])]) == 0
    doc = jsonio.load_json(paths["bundle"])
    jsonio.save_json(paths["graph"], doc["graph"])
    jsonio.save_json(paths["colouring"], doc["colouring"])
    paths["k3"] = k3_file
    argv = [a.format(**paths) for a in argv]
    code = f"from totalcolour.cli import main\nassert main({argv!r}) == 0"
    expected = sorted(CLI_MODULES + [f"totalcolour.{m}" for m in more])
    assert _loaded_after(code) == expected


def test_chi_loads_neither_argparse_nor_gettext(k3_file):
    # the command line is read from one table; argparse would load gettext,
    # and building an argparse parser loads locale
    code = (
        "import sys\nfrom totalcolour.cli import main\n"
        f"assert main({['chi', k3_file, '--nodes', '1000']!r}) == 0\n"
        "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))"
    )
    home = os.path.dirname(os.path.dirname(totalcolour.__file__))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": home},
    )
    assert proc.stdout.splitlines()[-1] == "[]"


def test_colour_dot_format(tmp_path):
    out = tmp_path / "crown.dot"
    assert main(["colour", "crown", "3", "--format", "dot", "-o", str(out)]) == 0
    assert out.read_text().startswith("graph G {")


def test_export_dot(tmp_path):
    bundle_path = tmp_path / "crown3.json"
    main(["colour", "crown", "3", "-o", str(bundle_path)])
    out = tmp_path / "crown3.dot"
    assert main(["export-dot", str(bundle_path), "-o", str(out)]) == 0
    dot = out.read_text()
    assert dot.count(" -- ") == 6
    assert dot.count("fillcolor=") == 6


@pytest.mark.parametrize("target", ["missing/out", ""], ids=["missing-dir", "a-dir"])
@pytest.mark.parametrize(
    "argv",
    [
        ["colour", "knm", "4", "3"],
        ["colour", "knm", "4", "3", "--format", "dot"],
        ["product", "{k2}", "{k2}"],
        ["export-dot", "{bundle}"],
    ],
    ids=["colour-json", "colour-dot", "product", "export-dot"],
)
def test_unwritable_output_exits_2(argv, target, k2_file, tmp_path, capsys, monkeypatch):
    bundle = tmp_path / "bundle.json"
    assert main(["colour", "crown", "3", "-o", str(bundle)]) == 0
    capsys.readouterr()
    built = []  # the target is refused before any product is built

    def build(*a):
        built.append(a)

    # the handlers read these from their modules when they run
    monkeypatch.setattr(totalcolour.constructions, "knm_total_colouring", build)
    monkeypatch.setattr(totalcolour.products, "direct_product", build)
    out = tmp_path / target
    argv = [a.format(k2=k2_file, bundle=bundle) for a in argv] + ["-o", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert built == []


def test_main_runs_repeatedly_in_one_process(k3_file, tmp_path, capsys, monkeypatch):
    # each call gives, in sequence, the exit code and stdout it gives alone:
    # no state carries from one call to the next
    monkeypatch.setenv("COLUMNS", "80")  # the same terminal width for every call
    bundle = str(tmp_path / "bundle.json")
    argvs = [
        ["colour", "knm", "4", "3", "-o", bundle],
        ["verify", bundle],
        ["chi", k3_file, "--nodes", "1000"],
        ["chi", "--nodes", "x", k3_file],
        ["chi", "--help"],
        ["verify", bundle],
    ]

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # a bad argv exits 2, --help 0
            code = ("exit", exc.code)
        return code, capsys.readouterr().out

    alone = [run(argv) for argv in argvs]
    assert [code for code, _ in alone] == [0, 0, 0, ("exit", 2), ("exit", 0), 0]
    assert [run(argv) for argv in argvs] == alone


def test_export_dot_corrupted_bundle_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"graph": 3}')
    assert main(["export-dot", str(bad)]) == 2


@pytest.mark.parametrize(
    "doc, line",
    [
        (
            {
                "graph": {"n": 3, "edges": [[0, 1], [1, 2]]},
                "colouring": {"vertex_colours": [0, 1], "edge_colours": [[0, 1, 2]]},
            },
            "(2 missing, 0 unknown)",
        ),
        (
            {
                "graph": {"n": 2, "edges": [[0, 1]]},
                "colouring": {"vertex_colours": [0, 1], "edge_colours": []},
            },
            "(1 missing, 0 unknown)",
        ),
    ],
    ids=["short-vertex-list", "missing-edge"],
)
def test_export_dot_incomplete_bundle_exits_2(tmp_path, capsys, doc, line):
    """export-dot runs the cover check that verify runs, with the same message."""
    path = tmp_path / "incomplete.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    verify_err = capsys.readouterr().err
    assert main(["export-dot", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == verify_err == (
        f"error: colouring does not match the graph's elements {line}\n"
    )


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "totalcolour.cli", "colour", "knm", "3", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 4
    assert "open problem" in proc.stderr



REPEATED = "invalid colouring: edge (0,1) is coloured more than once"
PATH = {"n": 3, "edges": [[0, 1], [1, 2]]}


@pytest.mark.parametrize(
    "graph, edge_colours, message",
    [
        (
            {"n": 2, "edges": [[0, 5], [0, "x"]]},
            [[0, 1, 2]],
            "invalid graph: edge (0,5) has an endpoint outside [0,2)",
        ),
        (
            {"n": 2, "edges": [[0, 1]]},
            [[0, 0, 1], [0, "x", 1]],
            "invalid colouring: self-loop on vertex 0",
        ),
        ({"n": 2, "edges": [[0, 1]]}, [[1, 0, 1], [1, 0, 2]], REPEATED),
        ({"n": 2, "edges": [[0, 1]]}, [[0, 1, 1], [1, 0, 2]], REPEATED),
        # bad entries after a prefix listed in the graph's edge order
        (PATH, [[0, 1, 0], [1, 2, True]], "bad edge colour entry [1, 2, True]"),
        (
            PATH,
            [[0, 1, 0], [1, 2, 1], [1, 2, 2]],
            "invalid colouring: edge (1,2) is coloured more than once",
        ),
        (
            PATH,
            [[0, 1, 0], [1, 2, 1], [2, 1, 2]],
            "invalid colouring: edge (1,2) is coloured more than once",
        ),
        (
            PATH,
            [[0, 1, 0], [1, 2, -1]],
            "invalid colouring: negative colour -1 on edge (1,2)",
        ),
    ],
    ids=[
        "range-before-type", "self-loop-before-type", "exact-repeat", "reversed-repeat",
        "aligned-then-bool", "aligned-then-repeat", "aligned-then-reversed-repeat",
        "aligned-then-negative",
    ],
)
def test_decode_errors_follow_list_order(tmp_path, capsys, graph, edge_colours, message):
    """Each entry is checked as it is decoded, so the first bad one is named,
    and a repeated pair is named canonically whichever way it was listed.
    The bundle and the two-file form of verify say the same."""
    colouring = {"vertex_colours": list(range(graph["n"])), "edge_colours": edge_colours}
    bundle, graph_path, colouring_path = (
        tmp_path / name for name in ("bundle.json", "graph.json", "colouring.json")
    )
    bundle.write_text(json.dumps({"graph": graph, "colouring": colouring}))
    graph_path.write_text(json.dumps(graph))
    colouring_path.write_text(json.dumps(colouring))
    for paths in ([bundle], [graph_path, colouring_path]):
        assert main(["verify", *map(str, paths)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


# ------------------------------------------------------------ exit-code fuzz

_KEYS = ["n", "edges", "labels", "vertex_colours", "edge_colours", "graph", "colouring", "report"]
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 8) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=2), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def _graph_docs(draw):
    """{"n", "edges", "labels"?}: a valid graph half the time, else one whose
    n, endpoints and labels may each be off by one."""
    slack = 0 if draw(st.booleans()) else 1
    n = draw(st.integers(1 - 2 * slack, 6))
    ends = st.integers(-slack, n - 1 + slack) if n + slack else st.just(0)
    pairs = st.lists(ends, min_size=2, max_size=2).filter(lambda e: slack or e[0] != e[1])
    doc = {"n": n, "edges": draw(st.lists(pairs, max_size=8))}
    if draw(st.booleans()):
        doc["labels"] = draw(
            st.lists(st.text(max_size=2), min_size=max(n - slack, 0), max_size=n + slack)
        )
    return doc


@st.composite
def _colouring_docs(draw, graph=None):
    """Colours for ``graph``'s listed elements, or a colouring of no graph."""
    colours = st.integers(-1 if draw(st.booleans()) else 0, 5)
    if graph is not None and draw(st.booleans()):
        count = max(graph["n"], 0)
        vertex_colours = draw(st.lists(colours, min_size=count, max_size=count))
        edge_colours = [[u, v, draw(colours)] for u, v in graph["edges"]]
    else:
        vertex_colours = draw(st.lists(colours, max_size=7))
        triples = st.lists(st.integers(-1, 6), min_size=3, max_size=3)
        edge_colours = draw(st.lists(triples, max_size=8))
    return {"vertex_colours": vertex_colours, "edge_colours": edge_colours}


@st.composite
def _cli_inputs(draw):
    """A graph G, a colouring F of G, a graph H and a bundle B, each at
    times replaced by an arbitrary JSON value."""
    g = draw(_graph_docs())
    f = draw(_colouring_docs(g) | _json_values)
    h = draw(_graph_docs() | _json_values)
    b_graph = draw(_graph_docs())
    b = {"graph": b_graph, "colouring": draw(_colouring_docs(b_graph))}
    if draw(st.booleans()):
        b["report"] = draw(_json_values)
    return [draw(st.just(g) | _json_values), f, h, draw(st.just(b) | _json_values)]


@settings(max_examples=60, deadline=None)
@given(_cli_inputs())
def test_cli_exit_codes_stay_in_0_to_5(tmp_path_factory, docs):
    """Whatever the documents hold, every command ends in a library error
    with its exit code, never in an internal error (exit 6)."""
    work = tmp_path_factory.getbasetemp() / "cli-fuzz"
    work.mkdir(exist_ok=True)
    g, f, h, b = paths = [str(work / f"{name}.json") for name in "gfhb"]
    for path, doc in zip(paths, docs):
        with open(path, "w") as fh:
            json.dump(doc, fh)
    out = str(work / "out")
    for argv in [
        ["verify", b],
        ["verify", g, f],
        ["product", g, h, "-o", out],
        ["chi", g, "--nodes", "300"],
        ["export-dot", b, "-o", out],
        ["colour", "lift", g, f, h, "-o", out],
        ["colour", "kn-bipartite", "1", h, "-o", out],
        ["colour", "kn-bipartite", "3", h, "-o", out],
    ]:
        assert 0 <= main(argv) <= 5, argv
