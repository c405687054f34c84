import concurrent.futures
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lllcolor import cli
from lllcolor.cli import main
from lllcolor.graphs import cycle_graph, path_graph


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def csv_rows(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    return [line.split(",") for line in lines]


@pytest.fixture
def hexagon_file(tmp_path):
    path = tmp_path / "c6.edges"
    path.write_text(cycle_graph(6).to_edge_list())
    return str(path)


@pytest.fixture
def path_file(tmp_path):
    path = tmp_path / "p5.edges"
    path.write_text(path_graph(5).to_edge_list())
    return str(path)


# -- gamma ---------------------------------------------------------------------

def test_gamma_single_girth(capsys):
    code, out = run_cli(capsys, "gamma", "--girth", "5")
    assert code == 0
    assert "# schema=1" in out
    rows = csv_rows(out)
    assert rows[0] == ["girth", "r", "gamma", "tau", "rho"]
    assert rows[1][0] == "5" and rows[1][2] == "1.731"


def test_gamma_girth4_floors_to_girth5(capsys):
    _, out4 = run_cli(capsys, "gamma", "--girth", "4")
    _, out5 = run_cli(capsys, "gamma", "--girth", "5")
    assert csv_rows(out4)[1][1:] == csv_rows(out5)[1][1:]


def test_gamma_summary_with_palette(capsys):
    code, out = run_cli(capsys, "gamma", "--summary", "--delta", "11")
    assert code == 0
    rows = csv_rows(out)
    table = {int(r[0]): (r[2], int(r[5])) for r in rows[1:]}
    assert table[3] == ("1.731", 39)
    assert table[7] == ("1.326", 35)
    assert table[53] == ("0.493", 26)
    assert table[219] == ("0.323", 25)


def test_gamma_table_range(capsys):
    code, out = run_cli(capsys, "gamma", "--table", "5", "7")
    assert code == 0
    rows = csv_rows(out)
    assert [r[0] for r in rows[1:]] == ["5", "6", "7"]
    assert [r[2] for r in rows[1:]] == ["1.731", "1.488", "1.326"]


def test_gamma_requires_selection(capsys):
    code, _ = run_cli(capsys, "gamma")
    assert code == 4


def test_gamma_long_girths_need_four_colors_at_degree_two(capsys):
    # the scaled residual of the old solver failed at 678, phi overflowed at
    # 1547 and underflowed at 3000
    code, out = run_cli(capsys, "gamma", "--girth", "678", "1547", "3000", "1000000", "--delta", "2")
    assert code == 0
    rows = csv_rows(out)[1:]
    assert [r[0] for r in rows] == ["678", "1547", "3000", "1000000"]
    assert [r[5] for r in rows] == ["4"] * 4


def test_gamma_tolerance_below_float_spacing(capsys):
    code, out = run_cli(capsys, "gamma", "--girth", "5", "--tol", "1e-300")
    assert code == 0
    assert csv_rows(out)[1][2] == "1.731"


def test_gamma_table_solves_each_length_once_per_step(capsys, solve_tau_calls):
    # each length is bracketed, spot-checked and closed in on once, the
    # 1e-6 palette column goes on from the 1e-4 bisection instead of
    # bracketing, spot-checking and bisecting again from scratch, which took
    # 6,526 calls, and each row prints the solution its bisection kept
    # instead of solving at its slack again, which took 116 more; a step
    # solves only when its midpoint lies in the band around the crossing,
    # where solving at every midpoint took 3,028 calls
    code, out = run_cli(capsys, "gamma", "--table", "5", "120", "--delta", "11")
    assert code == 0 and len(csv_rows(out)) == 117
    assert solve_tau_calls == [1749]


# -- color / verify --------------------------------------------------------------

def test_color_hexagon_auto_palette(capsys, hexagon_file):
    code, out = run_cli(capsys, "color", hexagon_file, "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["K"] == 5  # derived from maxdeg 2 and girth 6
    assert payload["verdict"] == {"proper": True, "acyclic": True}
    assert len(payload["colors"]) == 6
    assert payload["stats"]["seed"] == 7


def test_color_tree_reports_zero_steps(capsys, path_file):
    code, out = run_cli(capsys, "color", path_file, "--seed", "3")
    payload = json.loads(out)
    assert code == 0 and payload["stats"]["steps"] == 0


def test_color_long_path_auto_palette(capsys, tmp_path):
    # the forest branch of the auto palette: girth() is one search, not n of them
    graph = tmp_path / "p50000.edges"
    graph.write_text(path_graph(50000).to_edge_list())
    code, out = run_cli(capsys, "color", str(graph), "--seed", "1")
    payload = json.loads(out)
    assert code == 0 and payload["K"] == 3 and payload["verdict"] == {"proper": True, "acyclic": True}


def test_color_palette_too_small(capsys, path_file):
    code, _ = run_cli(capsys, "color", path_file, "--k", "2", "--seed", "1")
    assert code == 4


def test_color_missing_file(capsys):
    code, _ = run_cli(capsys, "color", "/nonexistent/graph.edges")
    assert code == 4


def test_color_reproducible(capsys, hexagon_file):
    _, first = run_cli(capsys, "color", hexagon_file, "--seed", "11")
    _, second = run_cli(capsys, "color", hexagon_file, "--seed", "11")
    assert first == second


def test_verify_roundtrip(capsys, tmp_path, hexagon_file):
    coloring_path = tmp_path / "coloring.json"
    code, _ = run_cli(capsys, "color", hexagon_file, "--seed", "7", "--out", str(coloring_path))
    assert code == 0
    code, out = run_cli(capsys, "verify", hexagon_file, str(coloring_path))
    assert code == 0 and json.loads(out)["acyclic"] is True
    payload = json.loads(coloring_path.read_text())
    payload["colors"][1] = payload["colors"][0]  # break properness
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(payload))
    code, out = run_cli(capsys, "verify", hexagon_file, str(broken))
    assert code == 1 and json.loads(out)["proper"] is False


def test_verify_rejects_colors_outside_palette(capsys, tmp_path, path_file):
    coloring = tmp_path / "coloring.json"
    for colors in ([0, 99, 1, 2], [0, -1, 1, 2]):
        coloring.write_text(json.dumps({"K": 3, "colors": colors}))
        code, out = run_cli(capsys, "verify", path_file, str(coloring))
        assert code == 1 and json.loads(out)["proper"] is False


def test_verify_prints_the_witness_walk(capsys, tmp_path, monkeypatch):
    # an alternating hexagon is one bichromatic cycle; the witness is the
    # verifier's walk in its own order, not the sorted edge tuple
    monkeypatch.chdir(tmp_path)
    Path("c6.edges").write_text(cycle_graph(6).to_edge_list())
    Path("c6.json").write_text(json.dumps({"K": 3, "colors": [0, 1, 0, 1, 0, 1]}))
    code, out = run_cli(capsys, "verify", "c6.edges", "c6.json")
    assert code == 1
    assert out == (
        '{\n  "acyclic": false,\n  "config": {\n    "coloring": "c6.json",\n    "command": "verify",\n'
        '    "graph": "c6.edges"\n  },\n  "proper": true,\n  "schema": 1,\n'
        '  "witness": [\n    4,\n    5,\n    0,\n    1,\n    2,\n    3\n  ]\n}\n'
    )


def test_huge_palette_on_a_path(capsys, tmp_path, path_file):
    # the color draw and the verifier cost nothing per palette color, so
    # K = 10^9 is as quick as K = 3
    coloring = tmp_path / "coloring.json"
    code, _ = run_cli(capsys, "color", path_file, "--k", "1000000000", "--seed", "5", "--out", str(coloring))
    payload = json.loads(coloring.read_text())
    assert code == 0 and payload["K"] == 10**9
    assert payload["verdict"] == {"proper": True, "acyclic": True}
    code, out = run_cli(capsys, "verify", path_file, str(coloring))
    assert code == 0 and json.loads(out)["acyclic"] is True
    coloring.write_text(json.dumps({"K": 10**9, "colors": [7, 10**9 - 1, 7, 10**9 - 1]}))
    code, out = run_cli(capsys, "verify", path_file, str(coloring))
    assert code == 0 and json.loads(out)["proper"] is True


@pytest.mark.parametrize(
    "payload",
    [
        {"colors": [0, 1, 0, 1]},
        {"K": "3", "colors": [0, 1, 0, 1]},
        {"K": 3.0, "colors": [0, 1, 0, 1]},
        {"K": True, "colors": [0, 1, 0, 1]},
        {"K": 3, "colors": "0101"},
        {"K": 3, "colors": [0, "a", 0, 1]},
        {"K": 3, "colors": [0, 1.0, 0, 1]},
        {"K": 3, "colors": [0, None, 0, 1]},
        [3, [0, 1, 0, 1]],
    ],
    ids=["no-K", "K-str", "K-float", "K-bool", "colors-str", "color-str", "color-float", "color-null", "not-object"],
)
def test_verify_malformed_coloring_is_input_error(capsys, tmp_path, path_file, payload):
    coloring = tmp_path / "coloring.json"
    coloring.write_text(json.dumps(payload))
    code = main(["verify", path_file, str(coloring)])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("lllcolor: error:")


# -- sat --------------------------------------------------------------------------

def test_sat_trivial_instance(capsys, tmp_path):
    cnf = tmp_path / "one.cnf"
    cnf.write_text("p cnf 2 1\n1 2 0\n")
    code, out = run_cli(capsys, "sat", str(cnf), "--seed", "5")
    payload = json.loads(out)
    assert code == 0 and payload["satisfied"] is True
    assert payload["stats"]["steps"] <= 5


def test_sat_unsatisfiable_hits_limit(capsys, tmp_path):
    cnf = tmp_path / "unsat.cnf"
    cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
    code, out = run_cli(capsys, "sat", str(cnf), "--seed", "5", "--step-limit", "30")
    payload = json.loads(out)
    assert code == 3
    assert payload["terminated"] is False and payload["assignment"] is None


def test_sat_chain_instances_solved(capsys, tmp_path):
    import random

    from conftest import chain_3sat

    rng = random.Random(2)
    for trial in range(5):
        n_vars, clauses = chain_3sat(8, rng)
        body = "".join(" ".join(map(str, c)) + " 0\n" for c in clauses)
        cnf = tmp_path / f"chain{trial}.cnf"
        cnf.write_text(f"p cnf {n_vars} {len(clauses)}\n{body}")
        code, out = run_cli(capsys, "sat", str(cnf), "--seed", str(trial))
        assert code == 0 and json.loads(out)["satisfied"] is True


def test_sat_parse_error(capsys, tmp_path):
    cnf = tmp_path / "bad.cnf"
    cnf.write_text("hello\n")
    code, _ = run_cli(capsys, "sat", str(cnf))
    assert code == 4


def test_sat_stats_block_is_the_run_record(capsys, tmp_path):
    cnf = tmp_path / "one.cnf"
    cnf.write_text("p cnf 1 1\n1 0\n")
    code, out = run_cli(capsys, "sat", str(cnf), "--seed", "2")
    stats = json.loads(out)["stats"]
    assert code == 0 and set(stats) == {"seed", "steps", "phases", "trace"}
    assert stats["seed"] == 2 and all(len(entry) == 2 for entry in stats["trace"])
    assert stats["steps"] == len(stats["trace"])
    assert stats["phases"] == sum(1 for _, depth in stats["trace"] if depth == 0)


def test_sat_output_streams_its_trace(tmp_path):
    # an unsatisfiable formula runs to its step limit, so the trace is the
    # bulk of the output; writing it must not hold a text copy of it
    import tracemalloc

    from lllcolor.dimacs import clause_system, read_dimacs
    from lllcolor.engine import m_algorithm

    patterns = [(a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)]
    clauses = [tuple(s * (3 * copy + v + 1) for v, s in enumerate(p)) for copy in range(25) for p in patterns]
    cnf = tmp_path / "unsat.cnf"
    cnf.write_text("p cnf 75 200\n" + "".join(" ".join(map(str, c)) + " 0\n" for c in clauses))
    system = clause_system(*read_dimacs(cnf))
    tracemalloc.start()
    try:
        m_algorithm(system, seed=1, step_limit=20000)
        run_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        code = main(["sat", str(cnf), "--seed", "1", "--step-limit", "20000", "--out", str(tmp_path / "out.json")])
        cli_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and len(json.loads((tmp_path / "out.json").read_text())["stats"]["trace"]) == 20000
    assert cli_peak <= 1.5 * run_peak, (cli_peak, run_peak)


@pytest.mark.parametrize(
    "command, suffix, text",
    [("color", "edges", "p edges 1000001 0\n"), ("sat", "cnf", "p cnf 1000001 1\n1 0\n")],
)
def test_header_counts_above_the_cap_are_input_errors(capsys, tmp_path, command, suffix, text):
    # refused at the header line, before one list per declared vertex or
    # variable is allocated
    path = tmp_path / f"huge.{suffix}"
    path.write_text(text)
    code = main([command, str(path), "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "1000001" in captured.err


# -- bounds -------------------------------------------------------------------------

def test_bounds_table(capsys):
    code, out = run_cli(capsys, "bounds", "--p", "1/8", "--delta", "2", "--n", "4")
    assert code == 0
    rows = csv_rows(out)
    assert rows[0] == ["n", "q_exact", "q_float", "phase_bound", "base_pow"]
    q_by_n = {r[0]: r[1] for r in rows[1:6]}
    assert q_by_n["2"] == "1/32"
    summary = rows[-1]
    assert summary[:2] == ["True", "True"] and summary[3] == "1"  # T_1 = p*m = 1/8


def test_bounds_zero_probability(capsys):
    _, out = run_cli(capsys, "bounds", "--p", "0", "--delta", "3", "--n", "3")
    rows = csv_rows(out)
    assert [r[1] for r in rows[1:5]] == ["1", "0", "0", "0"]


def test_bounds_condition_fails(capsys):
    code, out = run_cli(capsys, "bounds", "--p", "2/5", "--delta", "2", "--n", "2")
    assert code == 0
    summary = csv_rows(out)[-1]
    assert summary[0] == "False" and summary[3] == ""
    # at the boundary p = 3^3/4^4 the exact base is 1, though the float reads 0.9999999999999998
    code, out = run_cli(capsys, "bounds", "--p", "27/256", "--delta", "4", "--n", "2")
    assert code == 0 and csv_rows(out)[-1] == ["False", "False", "1", ""]


def test_bounds_bad_delta(capsys):
    code, _ = run_cli(capsys, "bounds", "--p", "1/8", "--delta", "1", "--n", "2")
    assert code == 4


# -- bench ---------------------------------------------------------------------------

def test_bench_cycle(capsys):
    code, out = run_cli(capsys, "bench", "--generator", "cycle:6", "--runs", "100", "--k", "5", "--seed-base", "1")
    assert code == 0
    rows = csv_rows(out)
    data = [r for r in rows if r[0].isdigit() and len(r) == 4]
    assert len(data) == 100
    assert all(r[3] == "True" for r in data)
    assert "pr_steps_ge_n" in out


def test_bench_single_vertex(capsys):
    code, out = run_cli(capsys, "bench", "--generator", "cycle:1", "--runs", "3", "--seed-base", "0")
    assert code == 0
    data = [r for r in csv_rows(out) if len(r) == 4 and r[0].isdigit()]
    assert [r[1] for r in data] == ["0", "0", "0"]


def test_bench_parallel_matches_serial(capsys):
    args = ("bench", "--generator", "cycle:8", "--runs", "8", "--k", "4", "--seed-base", "3")
    _, serial = run_cli(capsys, *args, "--jobs", "1")
    _, parallel = run_cli(capsys, *args, "--jobs", "2")
    assert csv_rows(serial) == [r for r in csv_rows(parallel)]


@pytest.mark.parametrize(
    "jobs, runs, cpus, workers",
    [("64", "5", 3, 3), ("64", "2", 8, 2), ("2", "5", 8, 2), ("64", "5", None, None), ("3", "1", 8, None)],
)
def test_bench_pool_is_capped(capsys, monkeypatch, jobs, runs, cpus, workers):
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)  # cmd_bench imports it on use
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    argv = ("bench", "--generator", "cycle:6", "--k", "5", "--seed-base", "1", "--runs", runs)
    code, out = run_cli(capsys, *argv, "--jobs", jobs)
    assert code == 0 and pools == ([workers] if workers else [])
    assert csv_rows(out) == csv_rows(run_cli(capsys, *argv, "--jobs", "1")[1])


def test_bench_bad_generator(capsys):
    code, _ = run_cli(capsys, "bench", "--generator", "torus:3", "--runs", "1")
    assert code == 4


def test_bench_long_cycle_auto_palette(capsys):
    # the girth search peels a cycle after its first start, so 20,000
    # vertices take one search, not one per vertex
    for length in (678, 20000):
        code, out = run_cli(capsys, "bench", "--generator", f"cycle:{length}", "--runs", "1", "--seed-base", "1")
        assert code == 0
        config = json.loads(out.splitlines()[1].removeprefix("# config="))
        assert config["k"] == 4


# -- dice -----------------------------------------------------------------------------

def test_dice_reproducible(capsys):
    _, first = run_cli(capsys, "dice", "--trials", "2000", "--seed", "9")
    _, second = run_cli(capsys, "dice", "--trials", "2000", "--seed", "9")
    assert first == second
    assert "estimate=" in first and "exact=0.177491" in first


def test_dice_zero_trials(capsys):
    code, _ = run_cli(capsys, "dice", "--trials", "0")
    assert code == 4


def test_dice_phases_cap_keeps_z_defined(capsys):
    code, out = run_cli(capsys, "dice", "--trials", "10", "--seed", "1", "--phases", str(cli.MAX_DICE_PHASES))
    assert code == 0 and "z=-0.000" in out and "nan" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ("sat", "{cnf}", "--step-limit", "-1"),
        ("color", "{graph}", "--step-limit", "-1"),
        ("bench", "--generator", "cycle:6", "--runs", "2", "--step-limit", "-1"),
        ("bench", "--generator", "cycle:6", "--runs", "0"),
        ("bench", "--generator", "cycle:6", "--runs", "2", "--jobs", "0"),
        ("bench", "--generator", "cycle:-5", "--runs", "1"),
        ("bench", "--generator", "gnp:5", "--runs", "1"),
        ("bench", "--generator", "gnp:5,1.5", "--runs", "1"),
        ("bench", "--generator", "random-regular:3,5", "--runs", "1"),
        ("bench", "--generator", "random-regular:30,20", "--runs", "1"),
        ("bench", "--generator", "regular:5,30", "--runs", "1"),
        ("bench", "--generator", "random-regular:999998,1000000", "--runs", "1"),
        ("bench", "--generator", "cycle:1000001", "--runs", "1"),
        ("bench", "--generator", "random-regular:3,1000002", "--runs", "1"),
        ("bench", "--generator", "gnp:100000,0.5", "--runs", "1"),
        ("bench", "--generator", "cycle:6", "--runs", "1000001"),
        ("bounds", "--p", "1/0", "--delta", "2"),
        ("bounds", "--p", "1/8", "--delta", "2", "--n", "-2"),
        ("bounds", "--p", "1/8", "--delta", "2", "--prefactor", "4"),
        ("color", "{negative}"),
        ("gamma", "--girth", "5", "--tol", "nan"),
        ("gamma", "--girth", "5", "--tol", "inf"),
        ("gamma", "--girth", "99999999999"),
        ("gamma", "--table", "3", "99999999999"),
        ("gamma", "--girth", "5", "--delta", "0"),
        ("dice", "--trials", "10", "--phases", "-1"),
        ("dice", "--trials", "10", "--phases", "0"),
        ("dice", "--trials", "1000001"),
        ("dice", "--trials", "10", "--phases", "863"),
        ("gamma", "--table", "3", "10003"),
        ("bounds", "--p", "1", "--delta", "10", "--n", "300"),
        ("bounds", "--p", "1/8", "--delta", "1" + "0" * 400),
        ("bounds", "--p", "1/8", "--delta", "3", "--m", "1" + "0" * 400),
        ("bounds", "--p", "1/8", "--delta", "3", "--n", "5", "--prefactor", "4"),
        ("gamma", "--girth", "5", "--delta", "1" + "0" * 400),
        ("sat", "{negative_cnf}"),
        ("gamma", "--girth", *["5"] * 10_001),
        ("sat", "{cnf_token}"),
        ("sat", "{cnf_beyond}"),
        ("sat", "{cnf_empty_clause}"),
        ("sat", "{cnf_count}"),
        ("color", "{edges_token}"),
        ("color", "{edgeless}", "--k", "-1"),
        ("color", "{edgeless}", "--k", "0"),
        ("bench", "--generator", "gnp:3,0", "--runs", "1", "--k", "-7"),
        ("verify", "{edgeless}", "{negative_palette}"),
        ("verify", "{edgeless}", "{zero_palette}"),
        ("color", "{edges_second_header}"),
        ("sat", "{cnf_second_header}"),
        ("color", "{edges_before_header}"),
        ("sat", "{cnf_underscore_token}"),
        ("sat", "{cnf_digit_token}"),
        ("sat", "{cnf_header_underscore}"),
        ("color", "{edges_underscore_token}"),
        ("color", "{edges_digit_token}"),
        ("verify", "{edges_header_underscore}", "{zero_palette}"),
        ("bench", "--generator", "cycle:6", "--runs", "5", "--seed-base", "-2"),
        ("color", "{graph}", "--seed", "-3"),
        ("bench", "--generator", "random-regular:3,10", "--runs", "1", "--gen-seed", "-1"),
    ],
    ids=[
        "sat-step-limit", "color-step-limit", "bench-step-limit", "bench-runs", "bench-jobs",
        "cycle-negative", "gnp-arity", "gnp-prob", "regular-odd", "regular-dense", "regular-alias",
        "regular-edges", "cycle-huge", "regular-huge",
        "gnp-pairs", "bench-runs-huge", "bounds-p-zero-den", "bounds-n",
        "bounds-prefactor-refused", "color-negative-vertices", "gamma-tol-nan",
        "gamma-tol-inf", "gamma-girth-huge", "gamma-table-huge", "gamma-delta-zero",
        "dice-phases-negative", "dice-phases-zero", "dice-trials-huge",
        "dice-phases-underflow", "gamma-table-rows", "bounds-float-overflow", "bounds-delta-huge",
        "bounds-m-huge", "bounds-prefactor-refused-after-n", "gamma-delta-huge", "sat-negative-variables",
        "gamma-girth-rows", "sat-token", "sat-literal-beyond", "sat-empty-clause", "sat-count-mismatch",
        "color-vertex-token", "color-palette-negative", "color-palette-zero", "bench-palette-negative",
        "verify-palette-negative", "verify-palette-zero", "color-second-header", "sat-second-header",
        "color-edges-before-header", "sat-underscore", "sat-non-ascii-digit", "sat-header-underscore",
        "color-underscore", "color-non-ascii-digit", "verify-header-underscore",
        "bench-negative-seed-base", "color-negative-seed", "bench-negative-gen-seed",
    ],
)
def test_bad_request_is_one_line_input_error(capsys, tmp_path, hexagon_file, argv):
    cnf = tmp_path / "one.cnf"
    cnf.write_text("p cnf 2 1\n1 2 0\n")
    negative = tmp_path / "negative.edges"
    negative.write_text("p edges -3 0\n")
    negative_cnf = tmp_path / "negative.cnf"
    negative_cnf.write_text("p cnf -2 0\n")
    paths = {"cnf": cnf, "graph": hexagon_file, "negative": negative, "negative_cnf": negative_cnf}
    malformed = {
        "cnf_token": "p cnf 2 1\n1 x 0\n",
        "cnf_beyond": "p cnf 2 1\n1 3 0\n",
        "cnf_empty_clause": "p cnf 2 1\n0\n",
        "cnf_count": "p cnf 2 3\n1 2 0\n",
        "edges_token": "p edges 3 1\n0 a\n",
        "edgeless": "p edges 3 0\n",
        "negative_palette": '{"K": -4, "colors": []}',
        "zero_palette": '{"K": 0, "colors": []}',
        "edges_second_header": "p edges 3 1\n0 1\np edges 5 1\n",
        "cnf_second_header": "p cnf 5 1\n5 0\np cnf 2 1\n",
        "edges_before_header": "0 1\n1 2\np edges 3 2\n",
        "cnf_underscore_token": "p cnf 12 1\n1_0 0\n",
        "cnf_digit_token": "p cnf 3 1\n\u0663 0\n",
        "cnf_header_underscore": "p cnf 1_2 1\n1 0\n",
        "edges_underscore_token": "p edges 11 1\n1_0 2\n",
        "edges_digit_token": "p edges 4 1\n\u0663 2\n",
        "edges_header_underscore": "p edges 1_2 0\n",
    }
    for name, text in malformed.items():
        paths[name] = tmp_path / name
        paths[name].write_text(text)
    try:
        code = main([a.format(**paths) for a in argv])
    except SystemExit as exc:  # the parser's refusal, before any command runs
        code = exc.code
        assert "--prefactor" in argv
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("lllcolor: error:")
    if "--prefactor" in argv:  # the removed option, which T_n replaced
        assert captured.err == "lllcolor: error: unrecognized arguments: --prefactor 4\n"
    if argv[1].endswith("_token}"):  # a non-integer token names its line
        assert "line 2:" in captured.err
    if argv[1].endswith("_second_header}"):  # so does a second header
        assert "line 3: second header" in captured.err
    if argv[1].endswith("header_underscore}"):  # a header is held to the same tokens
        assert "line 1: '1_2' is not an ASCII integer" in captured.err
    if argv[1] == "{edges_before_header}":  # as DIMACS refuses a clause before its problem line
        assert "line 1: edge before the header" in captured.err


def test_unknown_flag_is_input_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gamma", "--bogus"])
    assert exc.value.code == 4


def test_each_command_takes_exactly_these_options():
    # every option is a setting that tests and the benchmark must cover, so
    # one that appears or returns shows here as an edit
    import argparse

    (commands,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    got = {
        name: " ".join(o for a in sub._actions for o in a.option_strings if o not in ("-h", "--help"))
        for name, sub in commands.choices.items()
    }
    assert got == {
        "gamma": "--girth --table --summary --delta --tol --out",
        "color": "--k --seed --step-limit --out",
        "verify": "--out",
        "sat": "--seed --step-limit --out",
        "bounds": "--p --delta --n --m --out",
        "bench": "--generator --gen-seed --runs --seed-base --k --step-limit --jobs --out",
        "dice": "--trials --seed --phases --out",
    }


# -- start-up -------------------------------------------------------------------

STARTUP_PROBE = """
import json, sys
import lllcolor.cli
loaded = lambda: sorted(
    m for m in sys.modules
    if m.split(".")[0] in {"lllcolor", "networkx", "concurrent", "multiprocessing", "dataclasses", "inspect", "csv"}
)
seen = {"import": loaded()}
for name, argv in json.loads(sys.argv[1]):
    assert lllcolor.cli.main(argv) == 0, name
    seen[name] = loaded()
print(json.dumps(seen))
"""


def test_commands_import_only_what_they_run(tmp_path, hexagon_file):
    # a fresh interpreter: `import lllcolor.cli` loads no library module and
    # no process pool, `sat` loads only dimacs, the driver, engine and the
    # JSON emitter (no witness forests, no csv), a random-regular bench with
    # one job neither starts nor imports a pool and loads no JSON emitter,
    # the coloring commands reach the driver without the variable engine,
    # color and verify load no csv, verify loads only graphs, the emitter
    # and the verifier, which never reaches the detector, dice loads the
    # witness module and nothing more, and no command loads dataclasses or
    # inspect (their import costs every process ~15 ms)
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 2\n1 -2 0\n2 3 0\n")
    coloring = str(tmp_path / "color.json")
    sat, bench, color, verify, gamma, bounds, dice = runs = [
        ("sat", ["sat", str(cnf), "--seed", "1", "--out", str(tmp_path / "sat.json")]),
        ("bench", ["bench", "--generator", "random-regular:3,10", "--runs", "2", "--jobs", "1",
                   "--out", str(tmp_path / "bench.csv")]),
        ("color", ["color", hexagon_file, "--seed", "1", "--out", coloring]),
        ("verify", ["verify", hexagon_file, coloring, "--out", str(tmp_path / "verify.json")]),
        ("gamma", ["gamma", "--girth", "5", "--delta", "11", "--out", str(tmp_path / "gamma.csv")]),
        ("bounds", ["bounds", "--p", "1/8", "--delta", "3", "--n", "5", "--out", str(tmp_path / "bounds.csv")]),
        ("dice", ["dice", "--trials", "10", "--seed", "1", "--out", str(tmp_path / "dice.txt")]),
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    # sat loads engine and color loads coloring, and bench loads csv, so
    # the coloring commands also run in a process of their own, verify in
    # one more, and bench first in a last one, followed by dice
    seen, coloring_only, verify_only, after_bench = (
        json.loads(subprocess.run(
            [sys.executable, "-c", STARTUP_PROBE, json.dumps(process_runs)],
            capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
        ).stdout)
        for process_runs in (runs, [color, verify, bench], [verify], [bench, dice])
    )
    assert seen["import"] == ["lllcolor", "lllcolor.cli"]
    assert seen["sat"] == [
        "lllcolor", "lllcolor.cli", "lllcolor.dimacs", "lllcolor.driver", "lllcolor.engine", "lllcolor.jsonout",
    ]
    assert {m for m in seen["bench"] if not m.startswith("lllcolor")} == {"csv"}
    assert "lllcolor.coloring" in seen["bench"]
    assert "lllcolor.driver" in after_bench["bench"]  # bench runs first there
    assert "lllcolor.engine" not in after_bench["bench"]
    for name in ("bench", "color", "verify"):
        assert "lllcolor.engine" not in coloring_only[name], name
    for name in ("color", "verify"):
        assert "csv" not in coloring_only[name], name
    assert verify_only["verify"] == [
        "lllcolor", "lllcolor.cli", "lllcolor.graphs", "lllcolor.jsonout", "lllcolor.verify",
    ]
    assert "lllcolor.jsonout" not in after_bench["bench"]
    assert set(after_bench["dice"]) - set(after_bench["bench"]) == {"lllcolor.witness"}
    assert {"lllcolor.bounds", "lllcolor.gamma"} <= set(seen["bounds"])  # every command ran
    for name, _ in runs:
        assert not {"dataclasses", "inspect"} & set(seen[name]), name


FOOTPRINT_PROBE = """
import json, sys
heavy = lambda: sorted(
    m for m in ("decimal", "fractions", "lllcolor.bounds", "lllcolor.engine", "lllcolor.graphs") if m in sys.modules
)
from lllcolor.gamma import q_coloring_series
seen = {"series": heavy()}
import lllcolor.cli
for name, argv in json.loads(sys.argv[1]):
    assert lllcolor.cli.main(argv) == 0, name
    seen[name] = heavy()
print(json.dumps(seen))
"""


def test_gamma_and_color_load_no_exact_arithmetic(tmp_path, hexagon_file):
    # fresh interpreters: the float series, the gamma command and the
    # auto palette of color reach the shared power-series helper without
    # bounds, so fractions and decimal stay unloaded; the analytic side
    # takes ContractError and the vertex cap from the package, so series,
    # gamma and bounds load neither engine nor graphs; color loads graphs
    # and reaches the resampling driver without the engine
    runs = [
        [
            ("gamma", ["gamma", "--girth", "5", "--delta", "11", "--out", str(tmp_path / "gamma.csv")]),
            ("color", ["color", hexagon_file, "--seed", "1", "--out", str(tmp_path / "color.json")]),
        ],
        [("bounds", ["bounds", "--p", "1/8", "--delta", "3", "--n", "20", "--out", str(tmp_path / "bounds.csv")])],
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    seen = [
        json.loads(subprocess.run(
            [sys.executable, "-c", FOOTPRINT_PROBE, json.dumps(process_runs)],
            capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
        ).stdout)
        for process_runs in runs
    ]
    assert seen == [
        {"series": [], "gamma": [], "color": ["lllcolor.graphs"]},
        {"series": [], "bounds": ["decimal", "fractions", "lllcolor.bounds"]},
    ]


# -- golden bytes ----------------------------------------------------------------

# (argv, exit code, sha256 of stdout), run in order in one directory; each
# `color` row's stdout is saved as <graph stem>.json for the `verify` row
# after it.  A change that alters output bytes on purpose updates its rows.
GOLDEN = [
    (("color", "petersen.edges", "--k", "5", "--seed", "6"), 0,
     "47e09f2cf8560e30a2097941f4cabd63a0fe7f18a1913dd199325d34d55ac58f"),
    (("verify", "petersen.edges", "petersen.json"), 0,
     "754c936b0c4155177946508cdee105067352ed7ef2f10d47e2b812ce8b20bd9a"),
    (("color", "c101.edges", "--seed", "5"), 0,
     "dbca2cd063158715104253af496eeee05e31755d9779fda306f5499240932978"),
    (("verify", "c101.edges", "c101.json"), 0,
     "db4c724b0179da189f87afa1a0acc0ef9971ca9b79505ff81391c2ba4c1e3682"),
    (("color", "gnp.edges", "--seed", "7"), 0,
     "180b6f0bb3efeb33facc2a453fc472ecc645e62ce683e7465b426bc40da99a51"),
    (("verify", "gnp.edges", "gnp.json"), 0,
     "8076746100383c6a88cf7ea42862b23742461bbf44e175d3ed69d1a58d986b15"),
    (("sat", "chain.cnf", "--seed", "11"), 0,
     "6d674ac778fe167eb01ca8336c6a44b18f59f1e38239562ae8b5364a4f5fca2f"),
    (("bounds", "--p", "1/8", "--delta", "3", "--n", "70"), 0,
     "d5b996514dc0b83c13ad5ea458003e234b660097d9cd15a67417e2ca87e995ff"),
    (("gamma", "--table", "5", "120", "--delta", "11"), 0,
     "8ed52f04074c26a22d6eb853c502c95008504260f9c2077c4fd4a5b06c6d8840"),
    (("bench", "--generator", "random-regular:19,20", "--k", "37", "--runs", "40", "--seed-base", "7",
      "--jobs", "1"), 0,
     "21622d3d97e298d89f466cd61400377640d829b1917145c993faf82e924c40e7"),
    (("bench", "--generator", "cycle:7", "--seed-base", "1"), 0,
     "6b945524950708c5d33670f52e8bf3f0a89bae0dd4481a0d1b8adc3ebc37ae3c"),
    (("dice", "--trials", "1000", "--seed", "1"), 0,
     "3f5a148057657c6e1e93a0b4b776651b7739b2a42b80c2a204569a9d97e2ee39"),
]


def test_every_command_keeps_its_bytes(capsys, tmp_path, monkeypatch):
    import hashlib
    import random

    from conftest import chain_3sat
    from lllcolor.graphs import gnp_graph, petersen_graph

    monkeypatch.chdir(tmp_path)
    Path("petersen.edges").write_text(petersen_graph().to_edge_list())
    Path("c101.edges").write_text(cycle_graph(101).to_edge_list())
    Path("gnp.edges").write_text(gnp_graph(40, 0.15, seed=5).to_edge_list())
    n_vars, clauses = chain_3sat(60, random.Random(1))
    body = "".join(" ".join(map(str, c)) + " 0\n" for c in clauses)
    Path("chain.cnf").write_text(f"p cnf {n_vars} {len(clauses)}\n{body}")
    got = {}
    for argv, _, _ in GOLDEN:
        code, out = run_cli(capsys, *argv)
        if argv[0] == "color":
            Path(argv[1]).with_suffix(".json").write_text(out)
        got[argv] = (code, hashlib.sha256(out.encode()).hexdigest())
    assert got == {argv: (code, digest) for argv, code, digest in GOLDEN}
