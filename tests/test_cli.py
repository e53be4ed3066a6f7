"""Command-line interface: reports, match flags, exit codes, determinism."""

import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import gstab
from gstab import __version__, graphs
from gstab.cli import (
    EXIT_CLOSED_STDOUT,
    EXIT_MISMATCH,
    EXIT_NOT_PERFECT,
    EXIT_OK,
    EXIT_PARAMS,
    EXIT_PARSE,
    EXIT_SIZE_GUARD,
    MAX_JSON_INDENT,
    main,
)
from gstab.errors import SizeGuardError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


@pytest.fixture
def graph_file(tmp_path):
    def write(name, n, edges):
        path = tmp_path / name
        path.write_text(json.dumps({"n": n, "edges": edges}))
        return str(path)
    return write


def test_graph_analyze_k2k1_oracle(capsys, graph_file):
    path = graph_file("k2k1.json", 3, [[1, 2]])
    code, payload, _ = run_cli(capsys, "graph", "analyze", path, "--oracle")
    assert code == EXIT_OK
    assert payload["classification"] == "NearlyGorensteinOnly"
    assert payload["N"] == 1
    assert payload["nearly_gorenstein"] is True
    assert payload["gorenstein"] is False
    assert payload["oracle"]["agreement"] is True
    assert payload["oracle"]["m_primary"] is True
    assert [c["dim"] for c in payload["components"]] == [1, 0]


def test_graph_analyze_paw_not_gps(capsys, graph_file):
    path = graph_file("paw.json", 4, [[1, 2], [1, 3], [2, 3], [3, 4]])
    code, payload, _ = run_cli(capsys, "graph", "analyze", path)
    assert code == EXIT_OK
    assert payload["classification"] == "NotGPS"
    assert payload["N"] is None
    assert payload["oracle"] is None


def test_graph_analyze_malformed_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    code, payload, err = run_cli(capsys, "graph", "analyze", str(path))
    assert code == EXIT_PARSE
    assert payload is None
    assert "FormatError" in err


def test_graph_analyze_missing_file(capsys):
    code, payload, _ = run_cli(capsys, "graph", "analyze", "/no/such/file.json")
    assert code == EXIT_PARSE
    assert payload is None


def test_graph_analyze_imperfect_input(capsys, graph_file):
    path = graph_file("c5.json", 5, [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]])
    code, payload, err = run_cli(capsys, "graph", "analyze", path)
    assert code == EXIT_NOT_PERFECT
    assert payload is None
    assert "NotPerfectError" in err


def test_graph_analyze_deterministic_output(capsys, graph_file):
    path = graph_file("k3.json", 3, [[1, 2], [1, 3], [2, 3]])
    main(["graph", "analyze", path, "--oracle"])
    first = capsys.readouterr().out
    main(["graph", "analyze", path, "--oracle"])
    second = capsys.readouterr().out
    assert first == second


# each file reads as a valid graph if true counts as the integer 1
@pytest.mark.parametrize("n, edges", [(True, []), (2, [[True, 2]]), (3, [[3, True]])])
def test_graph_analyze_rejects_bool_integers(capsys, graph_file, n, edges):
    path = graph_file("bool.json", n, edges)
    code, payload, err = run_cli(capsys, "graph", "analyze", path)
    assert code == EXIT_PARSE
    assert payload is None
    assert "FormatError" in err


# the reader leaves loops, labels outside 1..n and a negative count to
# `Graph`, whose refusal is still a parse error
@pytest.mark.parametrize("n, edges", [(3, [[2, 2]]), (3, [[1, 4]]), (3, [[0, 1]]), (-1, [])])
def test_graph_analyze_rejects_what_graph_refuses(capsys, graph_file, n, edges):
    path = graph_file("bad.json", n, edges)
    code, payload, err = run_cli(capsys, "graph", "analyze", path)
    assert code == EXIT_PARSE
    assert payload is None
    assert "FormatError" in err


def test_poset_analyze(capsys, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "elements": ["m", "p", "c1", "c2"],
        "covers": [["m", "p"], ["m", "c1"], ["c1", "c2"]],
    }))
    code, payload, _ = run_cli(capsys, "poset", "analyze", str(path), "--oracle")
    assert code == EXIT_OK
    assert payload["has_x_subposet"] is False
    assert payload["antichain_count"] == 7
    assert payload["comparability_graph"]["n"] == 4
    assert payload["classification"] == "NotGPS"
    assert payload["oracle"]["height"] == 4


def test_poset_analyze_unhashable_labels(capsys, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"elements": [[1], [2]], "covers": []}))
    code, payload, err = run_cli(capsys, "poset", "analyze", str(path))
    assert code == EXIT_PARSE
    assert payload is None
    assert "FormatError" in err


def _chain_file(tmp_path, n):
    path = tmp_path / f"chain{n}.json"
    path.write_text(json.dumps({"elements": list(range(n)),
                                "covers": [[i, i + 1] for i in range(n - 1)]}))
    return str(path)


def test_poset_analyze_size_guard_before_building(capsys, tmp_path, monkeypatch):
    """More elements than the perfection guard are refused once the file
    is decoded, before the relation is closed or the graph built."""
    monkeypatch.delenv("GSTAB_SIZE_LIMIT", raising=False)
    path = _chain_file(tmp_path, 5000)
    tracemalloc.start()
    try:
        code, payload, err = run_cli(capsys, "poset", "analyze", path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_SIZE_GUARD
    assert payload is None
    assert "perfection test limited to 12 vertices, got 5000" in err
    # the decoded file is about 1 MB of Python objects; the closed relation
    # alone would be hundreds of MB
    assert peak < 4 * 2**20
    code, _, err = run_cli(capsys, "poset", "analyze", _chain_file(tmp_path, 13))
    assert code == EXIT_SIZE_GUARD
    assert "perfection test limited to 12 vertices, got 13" in err


def test_poset_analyze_size_limit_raises_the_guard(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("GSTAB_SIZE_LIMIT", "13")
    code, payload, err = run_cli(capsys, "poset", "analyze", _chain_file(tmp_path, 13))
    assert code == EXIT_OK, err
    assert payload["comparability_graph"]["n"] == 13
    assert payload["classification"] == "Gorenstein"
    code, _, err = run_cli(capsys, "poset", "analyze", _chain_file(tmp_path, 14))
    assert code == EXIT_SIZE_GUARD
    assert "perfection test limited to 13 vertices, got 14" in err


def test_family_hmp_45(capsys):
    code, payload, _ = run_cli(capsys, "family", "hmp", "--a", "4", "--b", "5",
                               "--oracle")
    assert code == EXIT_OK
    assert payload["dim"] == 5
    assert payload["dim_match"] is True
    assert payload["oracle"]["height"] == 4
    assert payload["oracle"]["height_match"] is True


def test_family_hmp_46(capsys):
    code, payload, _ = run_cli(capsys, "family", "hmp", "--a", "4", "--b", "6",
                               "--oracle")
    assert code == EXIT_OK
    assert payload["oracle"]["height"] == 4
    assert payload["dim"] == 6


def test_family_hmp_bad_params(capsys):
    code, payload, err = run_cli(capsys, "family", "hmp", "--a", "3", "--b", "5")
    assert code == EXIT_PARAMS
    assert payload is None
    assert "ParameterError" in err


def test_family_hmp_oracle_size_guard(capsys):
    # b = 10 puts the cone dimension past the face-enumeration guard
    code, payload, err = run_cli(capsys, "family", "hmp", "--a", "9", "--b", "10",
                                 "--oracle")
    assert code == EXIT_SIZE_GUARD
    assert payload is None
    assert "SizeGuardError" in err


def test_family_hmp_size_guard(capsys, monkeypatch):
    """b - 1 poset elements above the perfection guard are refused before
    the poset is built; GSTAB_SIZE_LIMIT raises the guard."""
    monkeypatch.delenv("GSTAB_SIZE_LIMIT", raising=False)
    tracemalloc.start()
    try:
        code, payload, err = run_cli(capsys, "family", "hmp", "--a", "4", "--b", "1000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_SIZE_GUARD
    assert payload is None
    assert "limited to 12 vertices, got 999999" in err
    assert peak < 2**20
    code, _, _ = run_cli(capsys, "family", "hmp", "--a", "4", "--b", "14")
    assert code == EXIT_SIZE_GUARD
    monkeypatch.setenv("GSTAB_SIZE_LIMIT", "13")
    code, payload, _ = run_cli(capsys, "family", "hmp", "--a", "4", "--b", "14")
    assert code == EXIT_OK
    assert payload["dim"] == 14


def test_numsgp_gens(capsys):
    code, payload, _ = run_cli(capsys, "numsgp", "--gens", "3,4,5")
    assert code == EXIT_OK
    assert payload["type"] == 2
    assert payload["residue"] == 1
    assert payload["pseudo_frobenius"] == [1, 2]
    assert payload["gaps"] == [1, 2]


def test_numsgp_family(capsys):
    code, payload, _ = run_cli(capsys, "numsgp", "--family", "5", "3")
    assert code == EXIT_OK
    assert payload["type"] == 5
    assert payload["residue"] == 3
    assert payload["family"]["type_match"] is True
    assert payload["family"]["residue_match"] is True


def test_numsgp_builds_the_trace_once(capsys, monkeypatch):
    """The report builds five ideals: the canonical ideal, and the trace
    from a second canonical ideal, the semigroup, its quotient and the
    sum.  The residue reads the trace already built."""
    from gstab import numsgp

    built = []
    ideal = numsgp._ideal
    monkeypatch.setattr(numsgp, "_ideal", lambda *args: built.append(1) or ideal(*args))
    code, payload, _ = run_cli(capsys, "numsgp", "--family", "6", "4")
    assert code == EXIT_OK and payload["residue"] == 4
    assert len(built) == 5


def test_numsgp_gcd_error(capsys):
    code, payload, err = run_cli(capsys, "numsgp", "--gens", "2,4")
    assert code == EXIT_PARSE
    assert payload is None
    assert "FormatError" in err


def test_numsgp_table_size_guard(capsys):
    code, payload, err = run_cli(capsys, "numsgp", "--gens", "1000003,1000004")
    assert code == EXIT_SIZE_GUARD
    assert payload is None
    assert "SizeGuardError" in err


def test_numsgp_needs_exactly_one_input(capsys):
    code, _, _ = run_cli(capsys, "numsgp")
    assert code == EXIT_PARAMS
    code, _, _ = run_cli(capsys, "numsgp", "--gens", "2,3", "--family", "2", "1")
    assert code == EXIT_PARAMS


# digit-group underscores and non-ASCII digits ("\u0661\u0660" is 10 in
# Arabic-Indic digits), both of which `int` alone reads as 10
NOT_ASCII_INTEGERS = ["1_0", "\u0661\u0660"]


@pytest.mark.parametrize("text", NOT_ASCII_INTEGERS, ids=["underscore", "arabic_indic"])
def test_numsgp_gens_take_ascii_digits_only(capsys, text):
    """"1_0,3" is a bad generator list (exit 2), not <3, 10>."""
    code, payload, err = run_cli(capsys, "numsgp", "--gens", f"{text},3")
    assert code == EXIT_PARSE
    assert payload is None
    assert "FormatError" in err


def test_numsgp_gens_take_a_sign_and_surrounding_whitespace(capsys):
    code, payload, _ = run_cli(capsys, "numsgp", "--gens", " 3, +4 ,5 ")
    assert code == EXIT_OK
    assert payload["generators"] == [3, 4, 5]


@pytest.mark.parametrize("text", NOT_ASCII_INTEGERS, ids=["underscore", "arabic_indic"])
@pytest.mark.parametrize("argv", [
    ["--json-indent", "{}", "verify", "--max-n", "1"],
    ["family", "hmp", "--a", "{}", "--b", "5"],
    ["family", "hmp", "--a", "2", "--b", "{}"],
    ["numsgp", "--family", "{}", "3"],
    ["verify", "--max-n", "{}"],
], ids=["json-indent", "a", "b", "family", "max-n"])
def test_integer_options_take_ascii_digits_only(capsys, argv, text):
    """Every integer option reads ASCII digits only, and refuses anything
    else as argparse refuses a malformed `int` (exit 2)."""
    with pytest.raises(SystemExit) as exc:
        main([arg.format(text) for arg in argv])
    assert exc.value.code == EXIT_PARSE
    assert f"invalid int value: {text!r}" in capsys.readouterr().err


def test_integer_options_take_a_sign_and_surrounding_whitespace(capsys):
    code, payload, _ = run_cli(capsys, "--json-indent", " 0", "verify", "--max-n", "+1 ")
    assert code == EXIT_OK
    assert payload["graphs_checked"] == 1


def test_verify_max_n_1(capsys):
    code, payload, _ = run_cli(capsys, "verify", "--max-n", "1")
    assert code == EXIT_OK
    assert payload["graphs_checked"] == 1
    assert payload["perfect"] == 1
    assert payload["disagreements"] == 0


def test_verify_max_n_4(capsys):
    code, payload, _ = run_cli(capsys, "verify", "--max-n", "4")
    assert code == EXIT_OK
    assert payload["graphs_checked"] == 1 + 2 + 4 + 11
    assert payload["perfect"] == 18
    assert payload["disagreements"] == 0


def test_verify_size_guard(capsys):
    code, payload, err = run_cli(capsys, "verify", "--max-n", "20")
    assert code == EXIT_SIZE_GUARD
    assert payload is None
    assert "SizeGuardError" in err


def test_verify_default_limit_is_eight(capsys, monkeypatch):
    # 8 is the default (a run takes about 2 minutes, too long for this
    # suite); 9 still needs GSTAB_SIZE_LIMIT
    monkeypatch.delenv("GSTAB_SIZE_LIMIT", raising=False)
    code, payload, err = run_cli(capsys, "verify", "--max-n", "9")
    assert code == EXIT_SIZE_GUARD
    assert payload is None
    assert "verify limited to 8 vertices, got 9" in err


@pytest.mark.parametrize("max_n", ["0", "-1"])
def test_verify_max_n_below_one_is_parameter_error(capsys, max_n):
    code, payload, err = run_cli(capsys, "verify", "--max-n", max_n)
    assert code == EXIT_PARAMS
    assert payload is None
    assert "max_n must be at least 1" in err


@pytest.mark.parametrize("raw, reach", [("4", 8), ("9", 9), ("13", 13)])
def test_verify_limit_is_one_below_the_cone_guard(capsys, monkeypatch, raw, reach):
    """`verify` reaches one vertex below the face oracle's cone guard, for
    every value of GSTAB_SIZE_LIMIT."""
    from gstab.config import size_limit

    monkeypatch.setenv("GSTAB_SIZE_LIMIT", raw)
    assert size_limit("verify") == size_limit("face enumeration") - 1 == reach
    code, payload, err = run_cli(capsys, "verify", "--max-n", str(reach + 1))
    assert code == EXIT_SIZE_GUARD
    assert payload is None
    assert f"verify limited to {reach} vertices, got {reach + 1}" in err


def test_size_limit_env_leaves_perfection_guard_at_default(capsys, graph_file, monkeypatch):
    # an override of 8 vertices must not lower the perfection guard from
    # 12 to 8
    monkeypatch.setenv("GSTAB_SIZE_LIMIT", "8")
    path = graph_file("p12.json", 12, [[i, i + 1] for i in range(1, 12)])
    code, payload, err = run_cli(capsys, "graph", "analyze", path)
    assert code == EXIT_OK, err
    assert payload["classification"] == "Gorenstein"


@pytest.mark.parametrize("raw", ["abc", "-3"])
def test_malformed_size_limit_env(capsys, graph_file, monkeypatch, raw):
    monkeypatch.setenv("GSTAB_SIZE_LIMIT", raw)
    path = graph_file("k2.json", 2, [[1, 2]])
    for argv in (["graph", "analyze", path], ["verify", "--max-n", "1"]):
        code, payload, err = run_cli(capsys, *argv)
        assert code == EXIT_PARAMS
        assert payload is None
        assert "ParameterError" in err


def _edgeless_file(tmp_path, n):
    path = tmp_path / f"e{n}.json"
    path.write_text(json.dumps({"n": n, "edges": []}))
    return str(path)


def _antichain_file(tmp_path, n):
    path = tmp_path / f"a{n}.json"
    path.write_text(json.dumps({"elements": list(range(n)), "covers": []}))
    return str(path)


# the argv that asks a guard for n vertices (None: enumeration, which has
# no command of its own)
GUARD_ARGV = {
    "graph analyze": lambda tmp_path, n: ["graph", "analyze", _edgeless_file(tmp_path, n)],
    "poset analyze": lambda tmp_path, n: ["poset", "analyze", _antichain_file(tmp_path, n)],
    "family hmp": lambda tmp_path, n: ["family", "hmp", "--a", "4", "--b", str(n + 1)],
    "enumeration": None,
    "face oracle": lambda tmp_path, n: ["graph", "analyze", _edgeless_file(tmp_path, n),
                                        "--oracle"],
    "verify": lambda tmp_path, n: ["verify", "--max-n", str(n)],
}


# guard, GSTAB_SIZE_LIMIT, the most vertices it takes, its message at one more.
# Above 11 the perfection guard refuses a graph before the face oracle's
# guard could, so the face oracle is raised by 10.
GUARD_CASES = [
    ("graph analyze", None, 12, "perfection test limited to 12 vertices, got 13"),
    ("graph analyze", "13", 13, "perfection test limited to 13 vertices, got 14"),
    ("poset analyze", None, 12, "perfection test limited to 12 vertices, got 13"),
    ("poset analyze", "13", 13, "perfection test limited to 13 vertices, got 14"),
    ("family hmp", None, 12, "family hmp limited to 12 vertices, got 13"),
    ("family hmp", "13", 13, "family hmp limited to 13 vertices, got 14"),
    ("enumeration", None, 9, "enumeration limited to 9 vertices, got 10"),
    ("enumeration", "13", 14, "enumeration limited to 14 vertices, got 15"),
    ("face oracle", None, 8, "face enumeration limited to cone dimension 9, got 10"),
    ("face oracle", "10", 10, "face enumeration limited to cone dimension 11, got 12"),
    ("verify", None, 8, "verify limited to 8 vertices, got 9"),
    ("verify", "13", 13, "verify limited to 13 vertices, got 14"),
]


@pytest.mark.parametrize("guard, override, limit, message", GUARD_CASES,
                         ids=[f"{g}-{o or 'default'}" for g, o, _, _ in GUARD_CASES])
def test_size_guards(capsys, tmp_path, monkeypatch, guard, override, limit, message):
    """Every vertex and cone guard takes its limit and refuses one more
    with its message and exit 4, by default and under GSTAB_SIZE_LIMIT.
    Enumeration layers are stubbed out, so `verify` and the enumeration
    are driven to their limits without building a graph, and a refusal
    builds no layer."""
    if override is None:
        monkeypatch.delenv("GSTAB_SIZE_LIMIT", raising=False)
    else:
        monkeypatch.setenv("GSTAB_SIZE_LIMIT", override)
    built = []
    monkeypatch.setattr(graphs, "_canonical_masks", lambda n: built.append(n) or ())
    argv = GUARD_ARGV[guard]
    if argv is None:
        assert list(graphs.graphs_up_to_iso(limit)) == []
        with pytest.raises(SizeGuardError) as refused:
            next(graphs.graphs_up_to_iso(limit + 1))
        assert str(refused.value) == message
        assert built == [limit]
        return
    code, _, err = run_cli(capsys, *argv(tmp_path, limit))
    assert code == EXIT_OK, err
    built.clear()
    code, payload, err = run_cli(capsys, *argv(tmp_path, limit + 1))
    assert (code, payload, built) == (EXIT_SIZE_GUARD, None, [])
    assert err == json.dumps({"error": message, "kind": "SizeGuardError"}, sort_keys=True) + "\n"


MALFORMED_FILES = {
    # a UTF-16 byte-order mark, which is not UTF-8
    "not UTF-8": lambda command: b"\xff\xfe{}",
    # deeper than the JSON decoder's recursion limit
    "nested arrays": lambda command: b"[" * 200000,
    # longer than Python's limit on int-string conversion
    "5000-digit integer": lambda command: (
        b'{"n": ' + b"7" * 5000 + b', "edges": []}' if command == "graph"
        else b'{"elements": [' + b"7" * 5000 + b'], "covers": []}'),
}


@pytest.mark.parametrize("command", ["graph", "poset"])
@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_malformed_file_is_a_format_error(capsys, tmp_path, command, case):
    """A file that cannot be decoded ends with exit 2 and one JSON error
    line on stderr, not a traceback."""
    path = tmp_path / "input.json"
    path.write_bytes(MALFORMED_FILES[case](command))
    code, payload, err = run_cli(capsys, command, "analyze", str(path))
    assert (code, payload) == (EXIT_PARSE, None)
    assert err.count("\n") == 1
    assert json.loads(err)["kind"] == "FormatError"


@pytest.mark.parametrize("command, argv", [
    ("graph analyze", ["graph", "analyze", "{graph}"]),
    ("poset analyze", ["poset", "analyze", "{poset}"]),
    ("family hmp", ["family", "hmp", "--a", "4", "--b", "5"]),
    ("numsgp", ["numsgp", "--gens", "3,4,5"]),
    ("verify", ["verify", "--max-n", "1"]),
])
def test_report_header(capsys, tmp_path, command, argv):
    files = {"graph": tmp_path / "g.json", "poset": tmp_path / "p.json"}
    files["graph"].write_text(json.dumps({"n": 2, "edges": [[1, 2]]}))
    files["poset"].write_text(json.dumps({"elements": ["a", "b"], "covers": [["a", "b"]]}))
    argv = [arg.format(**files) for arg in argv]
    code, payload, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert (payload["tool"], payload["version"], payload["command"]) == \
        ("gstab", __version__, command)


@pytest.mark.parametrize("argv, digest", [
    (["verify", "--max-n", "5"],
     "734bff9876d526a9f4f8d9cb8618e9b6cfe630a228fc5f4b74ad5c032524cc7e"),
    (["family", "hmp", "--a", "5", "--b", "7", "--oracle"],
     "993020e51a9ce876efdbe7603c468d199814b5ca92e79994d437550e8faf67f3"),
    (["numsgp", "--family", "5", "3"],
     "d1b7c5dfd8d962276a79d94254eaae9ce1986ef8e7534c87d22bd823a049fc85"),
    (["numsgp", "--gens", "3,4,5"],
     "d593d15fb0d59a5b453f910d1f848b1551a688f12d2b0f7892891bd358b0bb32"),
    # four generators, conductor 493
    (["numsgp", "--gens", "47,53,59,61"],
     "8ef0c34ab948349ccea5270b0d67235f17286c0a146f052b1cccf80b490b2f08"),
])
def test_report_bytes_pinned(capsys, monkeypatch, argv, digest):
    monkeypatch.delenv("GSTAB_SIZE_LIMIT", raising=False)
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_json_indent_flag(capsys, graph_file):
    path = graph_file("k1.json", 1, [])
    for indent in (0, MAX_JSON_INDENT):
        code = main(["--json-indent", str(indent), "graph", "analyze", path])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        json.loads(out)


@pytest.mark.parametrize("indent", [-1, MAX_JSON_INDENT + 1])
def test_json_indent_out_of_range_is_a_parameter_error(capsys, graph_file, monkeypatch, indent):
    """An indent outside 0..16 is refused before the command runs, so
    nothing is computed or dumped."""
    runs = []
    monkeypatch.setattr("gstab.cli.classify", lambda *a, **k: runs.append(1))
    path = graph_file("k1.json", 1, [])
    code, payload, err = run_cli(capsys, "--json-indent", str(indent), "graph", "analyze", path)
    assert code == EXIT_PARAMS
    assert payload is None
    assert "ParameterError" in err and "--json-indent" in err
    assert runs == []


def test_graph_analyze_oracle_cone_guard_before_any_solve(capsys, graph_file, monkeypatch):
    """The library height route's cone guard surfaces as exit 4, and no
    system is solved first."""
    from gstab import toric

    solves = []
    gorenstein = toric._gorenstein
    monkeypatch.setattr(toric, "_gorenstein", lambda *a: solves.append(1) or gorenstein(*a))
    path = graph_file("e9.json", 9, [])
    code, payload, err = run_cli(capsys, "graph", "analyze", path, "--oracle")
    assert code == EXIT_SIZE_GUARD
    assert payload is None
    assert "SizeGuardError" in err
    assert solves == []


def test_mismatch_exit_code_is_distinct():
    assert EXIT_MISMATCH not in {EXIT_OK, EXIT_PARSE, EXIT_NOT_PERFECT,
                                 EXIT_SIZE_GUARD, EXIT_PARAMS}


def test_closed_stdout_exits_1_without_traceback(capsys, monkeypatch, tmp_path):
    class ClosedPipe(io.TextIOBase):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return sink.fileno()

    with open(tmp_path / "stdout", "w") as sink:
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main(["numsgp", "--family", "5", "3"])
        # stdout now points at devnull, so the flush at exit cannot fail
        assert os.path.samestat(os.fstat(sink.fileno()), os.stat(os.devnull))
    assert code == EXIT_CLOSED_STDOUT
    assert capsys.readouterr().err == ""


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["numsgp", "--family", "5", "3"]
    env = {**os.environ, "PYTHONPATH": str(Path(gstab.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-m", "gstab", *argv], env=env,
                         capture_output=True, text=True, check=False)
    assert run.returncode == EXIT_OK, run.stderr
    assert main(argv) == EXIT_OK
    assert run.stdout == capsys.readouterr().out
