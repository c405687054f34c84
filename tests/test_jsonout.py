"""The streamed JSON emitter writes json.dumps's bytes."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lllcolor import cmd_common
from lllcolor.cli import main
from lllcolor.graphs import cycle_graph, petersen_graph
from lllcolor.jsonout import BLOCK_CHARS, RUN, json_blocks

from conftest import chain_3sat


def dumped(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


ints = st.one_of(st.integers(), st.integers(-(2**300), 2**300))
strings = st.one_of(
    st.text(),
    st.sampled_from(['"quoted"', "back\\slash", "\x00\x07\x1f\n\r\t", "naïve ☃ \U0001d11e", " "]),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    ints,
    st.floats(),
    st.sampled_from([1e-7, 1.5e300, -2.5e-310, 1e16, 5e-324, float("inf")]),
    strings,
)
runs = st.one_of(
    st.lists(ints),
    st.lists(st.tuples(ints, ints)),
    st.lists(st.lists(ints, min_size=2, max_size=2)),
    st.lists(st.one_of(st.tuples(ints, ints), st.lists(ints, min_size=2, max_size=2))),
    st.lists(st.one_of(ints, st.booleans())),  # bools are no ints in JSON
    st.lists(st.tuples(ints, st.one_of(ints, st.booleans(), st.none()))),
    st.lists(st.lists(ints, max_size=3)),
)
payloads = st.recursive(
    st.one_of(scalars, runs),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(strings, inner, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(payloads)
def test_emitter_gives_the_bytes_of_json_dumps(payload):
    assert "".join(json_blocks(payload)) == dumped(payload)


def test_keys_other_than_strings_are_refused():
    for payload in ({1: 2}, {"a": {"b": 1, 2: 3}}, [{None: 0}]):
        with pytest.raises(TypeError):
            "".join(json_blocks(payload))


def test_long_runs_stream_in_bounded_blocks():
    # runs longer than one str.join, nested as the sat trace is
    flat = list(range(-5, 3 * RUN + 7))
    pairs = [(i, i % 5) for i in range(4 * RUN + 3)]
    payload = {"a": flat, "b": {"trace": pairs, "lists": [list(p) for p in pairs]}, "c": [pairs, flat]}
    blocks = list(json_blocks(payload))
    assert "".join(blocks) == dumped(payload)
    longest_piece = len(dumped(pairs[:RUN])) * 2
    assert len(blocks) > 5 and max(map(len, blocks)) < BLOCK_CHARS + longest_piece


def test_command_payloads_are_written_as_json_dumps_would(capsys, tmp_path, monkeypatch):
    # the real sat, color and verify payloads, as each command hands them on
    emitted = []
    emit = cmd_common.emit

    def recording(content, out_path):
        emitted.append(content)
        emit(content, out_path)

    monkeypatch.setattr(cmd_common, "emit", recording)
    monkeypatch.chdir(tmp_path)
    n_vars, clauses = chain_3sat(300, random.Random(2))
    (tmp_path / "chain.cnf").write_text(
        f"p cnf {n_vars} {len(clauses)}\n" + "".join(" ".join(map(str, c)) + " 0\n" for c in clauses)
    )
    (tmp_path / "unsat.cnf").write_text("p cnf 1 2\n1 0\n-1 0\n")
    (tmp_path / "petersen.edges").write_text(petersen_graph().to_edge_list())
    (tmp_path / "hexagon.edges").write_text(cycle_graph(6).to_edge_list())
    (tmp_path / "alternating.json").write_text(json.dumps({"K": 2, "colors": [0, 1] * 3}))
    commands = [
        ["sat", "chain.cnf", "--seed", "3"],
        ["sat", "unsat.cnf", "--seed", "3", "--step-limit", "2000"],
        ["color", "petersen.edges", "--seed", "5", "--out", "petersen.json"],
        ["color", "petersen.edges", "--seed", "5", "--step-limit", "0"],
        ["verify", "petersen.edges", "petersen.json"],
        ["verify", "hexagon.edges", "alternating.json"],
    ]
    for argv in commands:
        capsys.readouterr()
        main(argv)
        out = (tmp_path / argv[-1]).read_text() if "--out" in argv else capsys.readouterr().out
        assert isinstance(emitted[-1], dict) and out == dumped(emitted[-1]), argv
    assert len(emitted) == len(commands)
    assert len(emitted[1]["stats"]["trace"]) == 2000 and emitted[5]["witness"]
