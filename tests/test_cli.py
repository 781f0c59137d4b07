"""CLI subcommands: goldens, exit codes, schema validation, determinism."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import jsonschema
import pytest

import exporamsey
from exporamsey import cli
from exporamsey.cli import main
from exporamsey.tower import vertex_label

import schemas
from oracles import parse_dimacs


@pytest.fixture(autouse=True)
def records_match_json_dumps(monkeypatch):
    """Every record a test here prints must be json.dumps(record, indent=2) + newline."""
    dump = cli._dump

    def checked(obj, stream):
        buf = io.StringIO()
        dump(obj, buf)
        assert buf.getvalue() == json.dumps(obj, indent=2) + "\n"
        stream.write(buf.getvalue())

    monkeypatch.setattr(cli, "_dump", checked)


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def run_json(*argv):
    code, out = run_cli(*argv)
    return code, json.loads(out)


_SRC = str(Path(exporamsey.__file__).resolve().parents[1])
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def run_bounded(argv, timeout):
    """Run the CLI in a fresh interpreter; a run past `timeout` seconds fails the test."""
    done = subprocess.run([sys.executable, "-m", "exporamsey.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=_SRC), capture_output=True,
                          text=True, timeout=timeout)
    return done.returncode, done.stdout, done.stderr


def test_triples_enum_golden():
    code, data = run_json("triples", "enum", "--max", "16")
    assert code == 0
    assert len(data) == 5
    jsonschema.validate(data, schemas.TRIPLE_LIST)
    assert data[0] == {"a": "2", "b": "2", "c": "4"}
    assert data[3:] == [
        {"a": "2", "b": "4", "c": "16"},
        {"a": "4", "b": "2", "c": "16"},
    ]


def test_triples_enum_empty_and_csv():
    code, data = run_json("triples", "enum", "--max", "3")
    assert code == 0 and data == []
    code, out = run_cli("--format", "csv", "triples", "enum", "--max", "16")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a,b,c"
    assert len(lines) == 6


def test_structures_commands():
    code, data = run_json("structures", "fe1", "--seeds", "2,3,4", "--depth", "2")
    assert code == 0
    jsonschema.validate(data, schemas.LEVEL_RECORD)
    assert len(data["elements"]) == 7
    code, data = run_json("structures", "fs", "--seeds", "1,2,4")
    assert code == 0
    jsonschema.validate(data, schemas.LEVEL_RECORD)
    assert data["elements"] == [str(v) for v in range(1, 8)]
    code, data = run_json("structures", "fe2", "--seeds", "2,3,4", "--depth", "2")
    assert [e["value"] for e in data["elements"]] == [
        "2", "3", "4", "9", "16", "64", "262144",
    ]


def test_closure_command():
    code, data = run_json("closure", "--seeds", "2", "--depth", "2")
    assert code == 0
    jsonschema.validate(data, schemas.HYPERGRAPH_RECORD)
    assert [v["value"] for v in data["vertices"]] == ["2", "4", "16", "256"]
    assert data["edges"] == [[0, 0, 1], [0, 1, 2], [1, 0, 2], [1, 1, 3], [2, 0, 3]]


def test_color_solve_and_check(tmp_path):
    code, data = run_json("color", "solve", "--seeds", "2", "--depth", "2", "--k", "2")
    assert code == 0
    jsonschema.validate(data, schemas.SOLVE_RESULT)
    assert data["status"] == "SAT"
    coloring_file = tmp_path / "col.json"
    coloring_file.write_text(json.dumps(data["coloring"]))
    code, checked = run_json(
        "color", "check", "--seeds", "2", "--depth", "2",
        "--coloring", str(coloring_file),
    )
    assert code == 0
    jsonschema.validate(checked, schemas.CHECK_RESULT)
    assert checked["count"] == 0


def test_color_check_detects_monochromatic(tmp_path):
    bad = {"k": 2, "colors": {"2": 0, "4": 0, "16": 1, "256": 1}}
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(bad))
    code, checked = run_json(
        "color", "check", "--seeds", "2", "--depth", "2", "--coloring", str(f)
    )
    assert code == 0
    assert checked["count"] == 1
    assert checked["monochromatic_edges"] == [[0, 0, 1]]


def test_color_export_cnf_golden():
    code, out = run_cli("color", "export-cnf", "--seeds", "2", "--depth", "1", "--k", "2")
    assert code == 0
    nv, clauses, varmap = parse_dimacs(out)
    assert nv == 2
    assert clauses == [[1, 2], [-1, -2]]
    assert varmap == {0: 1, 1: 2}
    assert out.endswith("\n")
    assert "\r" not in out


def test_color_export_cnf_clause_limit(capsys):
    # 2 vertices at k = 3000 need 2 * (1 + 4498500) + 3000 clauses, past the 2**22 limit
    code, out = run_cli("color", "export-cnf", "--seeds", "2", "--depth", "1", "--k", "3000")
    assert (code, out) == (2, "")
    assert "9000002 clauses" in capsys.readouterr().err


def test_color_rule_count_json_and_csv():
    code, data = run_json(
        "color", "rule-count", "--rule", "n % 2", "--k", "2", "--max", "30,100"
    )
    assert code == 0
    jsonschema.validate(data, schemas.COUNTS_RESULT)
    assert data["counts"][0]["total"] == 4
    code, out = run_cli(
        "--format", "csv", "color", "rule-count", "--rule", "0", "--k", "1",
        "--max", "16",
    )
    assert code == 0
    assert out.splitlines()[0] == "N,cell,count"
    assert "16,total,5" in out.splitlines()


def test_rule_count_below_the_first_triple():
    rule = ("color", "rule-count", "--rule", "1 / (n - 2)", "--k", "2")  # fails at n = 2 only
    code, data = run_json(*rule, "--max", "3")
    assert code == 0
    assert data["counts"] == [{"N": "3", "k": 2, "per_cell": {"0": 0, "1": 0}, "total": 0,
                               "rainbow": 0, "triples": 0}]
    assert run_cli(*rule, "--max", "4") == (1, "")


def test_rule_count_many_bounds_in_one_run():
    rule = ("color", "rule-count", "--rule", "ilog2(n) % 3", "--k", "3")
    bounds = ["1000000000", "100000000", "100000000"]  # unsorted, with a duplicate
    code, out = run_cli(*rule, "--max", ",".join(bounds))
    singles = [run_json(*rule, "--max", b) for b in bounds]
    assert code == 0 and all(c == 0 for c, _ in singles)
    records = [data["counts"][0] for _, data in singles]
    expected = json.dumps({"rule": "ilog2(n) % 3", "k": 3, "counts": records}, indent=2) + "\n"
    assert out == expected
    code, out = run_cli("--format", "csv", *rule, "--max", ",".join(bounds))
    singles = [run_cli("--format", "csv", *rule, "--max", b) for b in bounds]
    assert code == 0
    assert out == "N,cell,count\n" + "".join(s.removeprefix("N,cell,count\n") for _, s in singles)


def test_triple_bound_over_limit_refused():
    over = str((2 ** 22 + 1) ** 2)  # square root one past the limit
    for fmt in ("json", "csv"):
        assert run_cli("--format", fmt, "triples", "enum", "--max", over) == (2, "")
        assert run_cli("--format", fmt, "color", "rule-count", "--rule", "n % 2",
                       "--max", f"16,{over}") == (2, "")
    assert run_cli("color", "rule-count", "--rule", "n % 2", f"--max=16,{over},-5") == (2, "")
    assert run_cli("triples", "enum", "--max", "-1") == (1, "")


def test_rule_count_over_cell_limit_refused():
    for fmt in ("json", "csv"):
        assert run_cli("--format", fmt, "color", "rule-count", "--rule", "n",
                       "--k", "1000000000000", "--max", "100") == (2, "")


def test_hypergraph_file_input(tmp_path):
    code, rec = run_json("closure", "--seeds", "2,3", "--depth", "1")
    f = tmp_path / "h.json"
    f.write_text(json.dumps(rec))
    code, data = run_json("color", "solve", "--hypergraph", str(f), "--k", "2")
    assert code == 0
    assert data["status"] == "SAT"


@pytest.mark.parametrize("meta", [{"depth": "x"}, ["not", "an", "object"]])
def test_malformed_hypergraph_meta_is_domain_error(tmp_path, capsys, meta):
    _, rec = run_json("closure", "--seeds", "2", "--depth", "1")
    rec["meta"] = meta
    f = tmp_path / "h.json"
    f.write_text(json.dumps(rec))
    code, out = run_cli("color", "solve", "--hypergraph", str(f), "--k", "2")
    assert (code, out) == (1, "")
    assert "malformed hypergraph record" in capsys.readouterr().err


def test_malformed_color_is_domain_error(tmp_path, capsys):
    f = tmp_path / "col.json"
    f.write_text(json.dumps({"k": 2, "colors": {"2": 0, "4": "x"}}))
    code, out = run_cli(
        "color", "check", "--seeds", "2", "--depth", "1", "--coloring", str(f)
    )
    assert (code, out) == (1, "")
    assert "malformed color for vertex 4" in capsys.readouterr().err


@pytest.mark.parametrize("rec", [
    {"k": 2, "colors": {"2": 0, "4": 1.7}},
    {"k": 2, "colors": {"2": 0, "4": True}},
    {"k": 2.9, "colors": {"2": 0, "4": 1}},
])
def test_non_integer_coloring_record_rejected(tmp_path, capsys, rec):
    f = tmp_path / "col.json"
    f.write_text(json.dumps(rec))
    code, out = run_cli(
        "color", "check", "--seeds", "2", "--depth", "1", "--coloring", str(f)
    )
    assert (code, out) == (1, "")
    assert "expected an integer or a decimal string" in capsys.readouterr().err


def test_non_integer_hypergraph_record_rejected(tmp_path, capsys):
    _, rec = run_json("closure", "--seeds", "2", "--depth", "1")
    two = rec["vertices"][0]
    f = tmp_path / "h.json"
    for bad in (
        dict(rec, edges=[[0.9, 0.2, 1.5]]),  # int() would read (0, 0, 1)
        dict(rec, vertices=[two, {"root": 2.7, "exp": "3", "value": "8"}], edges=[]),
        dict(rec, vertices=[two, {"root": "4", "exp": "1", "value": "4"}], edges=[]),
    ):
        f.write_text(json.dumps(bad))
        code, out = run_cli("color", "solve", "--hypergraph", str(f), "--k", "2")
        assert (code, out) == (1, "")
        assert "malformed hypergraph record" in capsys.readouterr().err


@pytest.mark.parametrize("vertices, edge, message", [
    (((2, 1), (3, 1), (2, 2)), [0, 1, 5], "edge (0, 1, 5) out of range"),
    (((2, 1), (3, 1), (2, 2)), [0, 1, 2], "not an exponential triple: (2, 3, 2^2)"),
    # value(b) has more bits than c's exponent, so it cannot divide it
    (((2, 1), (2, 5), (2, 1 << 20)), [0, 2, 1],
     "not an exponential triple: (2, 2^1048576, 2^5)"),
], ids=["out_of_range", "not_a_triple", "wide_b"])
def test_non_triple_hypergraph_edge_rejected(tmp_path, capsys, vertices, edge, message):
    f = tmp_path / "h.json"
    forms = [{"root": str(root), "exp": str(exp)} for root, exp in vertices]
    f.write_text(json.dumps({"vertices": forms, "edges": [edge]}))
    assert run_cli("color", "solve", "--hypergraph", str(f), "--k", "2") == (1, "")
    assert capsys.readouterr().err == f"error: {message}\n"


def test_hypergraph_record_past_the_caps_is_a_capacity_error(tmp_path, capsys):
    _, rec = run_json("closure", "--seeds", "2", "--depth", "1")
    f = tmp_path / "h.json"
    f.write_text(json.dumps(dict(rec, vertices=[{"root": str((1 << 12000) + 1), "exp": "1"}],
                                 edges=[])))
    assert run_cli("color", "solve", "--hypergraph", str(f), "--k", "2") == (2, "")
    assert capsys.readouterr().err == (
        "error: hypergraph vertex root of 12001 bits exceeds value_bit_cap 4096\n")


def test_near_tie_past_the_precision_ceiling_exits_2(tmp_path, capsys, monkeypatch):
    # 2^50508 < 3^31867 by a factor of 2^0.00001: the order check needs 64 bits of log2
    _, rec = run_json("closure", "--seeds", "2", "--depth", "1")
    f = tmp_path / "h.json"
    f.write_text(json.dumps(dict(rec, vertices=[{"root": "2", "exp": "50508"},
                                                {"root": "3", "exp": "31867"}], edges=[])))
    assert run_json("color", "solve", "--hypergraph", str(f), "--k", "2")[0] == 0
    capsys.readouterr()
    monkeypatch.setattr(exporamsey.tower, "_MAX_CMP_PRECISION", 32)
    assert run_cli("color", "solve", "--hypergraph", str(f), "--k", "2") == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: comparison precision exhausted") and err.count("\n") == 1


def test_color_solve_past_the_vertex_count():
    # 28 vertices: from k = 29 on, the record differs only in its k
    n = len(exporamsey.exp_closure({2, 3}, 2).vertices)
    outs = {}
    for k in (n + 1, n + 2, 10 ** 12):
        code, out = run_cli("color", "solve", "--seeds", "2,3", "--depth", "2", "--k", str(k))
        assert code == 0 and out.count(f'"k": {k},') == 2
        outs[k] = out.replace(f'"k": {k},', '"k": K,')
    assert outs[n + 1] == outs[n + 2] == outs[10 ** 12]


def test_ip_transform():
    code, data = run_json(
        "ip", "transform", "--op", "log", "--n", "2",
        "--lo", "1", "--hi", "16", "--members", "4,8,9",
    )
    assert code == 0
    jsonschema.validate(data, schemas.TRANSFORM_RESULT)
    assert data["result"]["members"] == ["2", "3"]


def test_ip_find_seed_and_spec_materialization():
    code, data = run_json(
        "ip", "find-seed", "--kind", "additive", "--m", "3",
        "--lo", "1", "--hi", "7", "--spec", "all",
    )
    assert code == 0
    jsonschema.validate(data, schemas.SEED_RESULT)
    assert data["witness"] == ["1", "2", "3"]
    code, data = run_json(
        "ip", "find-seed", "--kind", "multiplicative", "--m", "2",
        "--lo", "1", "--hi", "3", "--members", "1,3",
    )
    jsonschema.validate(data, schemas.SEED_RESULT)
    assert data["status"] == "found"  # fp({1,3}) = {1,3} works with 1 allowed


def test_ip_star_verdicts_and_exit_codes():
    code, data = run_json(
        "ip", "ip-star", "--kind", "additive", "--m", "2",
        "--lo", "1", "--hi", "100", "--spec", "residue:2:0",
    )
    assert code == 0
    jsonschema.validate(data, schemas.IPSTAR_RESULT)
    assert data["verdict"] == "holds"
    code, data = run_json(
        "ip", "ip-star", "--kind", "multiplicative", "--m", "2",
        "--lo", "1", "--hi", "50", "--spec", "residue:2:1",
    )
    assert code == 0
    assert data["verdict"] == "fails"
    assert data["witness"] == ["2", "4"]
    code, data = run_json(
        "--search-budget", "2", "ip", "ip-star", "--kind", "additive",
        "--m", "3", "--lo", "1", "--hi", "200", "--spec", "explicit:",
    )
    assert code == 2  # inconclusive maps to the capacity exit code
    assert data["verdict"] == "inconclusive"


def test_ip_progressions():
    code, data = run_json(
        "ip", "gp", "--length", "4", "--lo", "3", "--hi", "24",
        "--members", "3,6,12,24",
    )
    assert code == 0
    jsonschema.validate(data, schemas.GP_RESULT)
    assert data["progressions"] == [["3", "2"]]
    code, data = run_json(
        "ip", "powerprog", "--length", "3", "--lo", "2", "--hi", "27",
        "--members", "2,3,4,9,27",
    )
    assert code == 0
    jsonschema.validate(data, schemas.POWERPROG_RESULT)
    assert data["bases"] == ["3"]


def test_greedy_cli():
    code, data = run_json(
        "greedy", "fe1", "--spec", "all", "--depth", "2", "--lo", "2", "--hi", "100"
    )
    assert code == 0
    jsonschema.validate(data, schemas.GREEDY_RESULT)
    assert data["X"] == ["2", "3", "4"]
    code, data = run_json(
        "greedy", "fe1", "--spec", "residue:2:0", "--depth", "2",
        "--lo", "2", "--hi", "10000",
    )
    assert code == 0
    jsonschema.validate(data, schemas.GREEDY_RESULT)
    assert data == {"status": "failure", "step": 2, "reason": "empty intersection"}
    code, data = run_json(
        "greedy", "fegen1", "--spec", "all", "--y", "1,2,4,8",
        "--f", "constant:2", "--steps", "2",
    )
    assert code == 0
    jsonschema.validate(data, schemas.SEARCH_RESULT)
    assert data["state"]["x"] == ["1", "2"]
    code, data = run_json(
        "greedy", "verify", "--spec", "residue:2:1", "--x", "3,5", "--y", "3,5",
        "--depth", "1",
    )
    assert code == 0
    jsonschema.validate(data, schemas.FECOR_RESULT)
    verdicts = {c["name"]: c["verdict"] for c in data["checks"]}
    assert verdicts == {
        "FS(X)": "fails", "FE1(X)": "holds", "FP(Y)": "holds", "FE2(Y)": "holds",
    }


def test_exit_codes():
    code, _ = run_cli("structures", "fe1", "--seeds", "3,2", "--depth", "1")
    assert code == 1  # domain error: seeds not increasing
    huge = f"{1 << 3000},{(1 << 3000) + 1}"  # product overflows the value cap
    code, _ = run_cli("structures", "fp", "--seeds", huge)
    assert code == 2  # capacity error
    code, _ = run_cli("closure", "--seeds", "2", "--depth", "99")
    assert code == 2
    code, _ = run_cli("nonsense")
    assert code == 3
    code, _ = run_cli("triples", "enum")
    assert code == 3  # missing --max
    code, _ = run_cli("color", "rule-count", "--rule", "n %", "--k", "2", "--max", "10")
    assert code == 1  # rule syntax error is a domain error
    for bound in ("-5", "16,-5"):  # a negative bound is a domain error, not "N": "-5"
        code, out = run_cli("color", "rule-count", "--rule", "n % 2", "--k", "2", f"--max={bound}")
        assert (code, out) == (1, "")


def test_deep_rule_is_a_domain_error(capsys):
    deep = "(" * 300 + "n" + ")" * 300
    message = "error: syntax error at position 100: rule nests deeper than 100 levels\n"
    code, out = run_cli("color", "rule-count", "--rule", deep, "--k", "2", "--max", "100")
    assert (code, out, capsys.readouterr().err) == (1, "", message)
    code, out = run_cli("ip", "find-seed", "--kind", "additive", "--m", "2",
                        "--lo", "1", "--hi", "7", "--spec", "rule:" + deep)
    assert (code, out, capsys.readouterr().err) == (1, "", message)


@pytest.mark.parametrize("spec, exit_code, message", [
    ("complement:residue:2:0@1..1500", 2, "membership undecidable for 1501"),
    ("complement:rule:1 / (n < 2049)", 1, "rule evaluation failed at n=2049: division by zero"),
])
def test_spec_errors_past_a_chunk_edge_exit_codes(capsys, spec, exit_code, message):
    for command in (("ip", "ip-star", "--kind", "additive", "--m", "1"),
                    ("ip", "powerprog", "--length", "3")):
        code, out = run_cli(*command, "--lo", "2", "--hi", "3000", "--spec", spec)
        assert (code, out, capsys.readouterr().err) == (exit_code, "", f"error: {message}\n")


_WINDOW = ("--length", "3", "--lo", "1", "--hi", "10")
_POWERPROG = ("ip", "powerprog", "--length", "3", "--lo", "2", "--hi", "40000", "--spec")


@pytest.mark.parametrize("argv, exit_code, record, error", [
    (("closure", "--seeds", "2,x", "--depth", "1"), 3, None,
     "exporamsey closure: error: argument --seeds: expected comma-separated integers, got '2,x'"),
    (("ip", "gp", *_WINDOW, "--members", "2,4", "--spec", "all"), 1, None,
     "error: give either --members or --spec, not both"),
    (("ip", "gp", *_WINDOW), 1, None, "error: one of --members or --spec is required"),
    (("color", "solve", "--seeds", "2"), 1, None,
     "error: need --seeds and --depth (or --hypergraph)"),
    (("ip", "transform", "--op", "shift", "--n", "-1", "--lo", "0", "--hi", "10",
      "--members", "1"), 1, None, "error: shift requires n >= 0"),
    (("ip", "gp", "--length", "1", "--lo", "1", "--hi", "10", "--members", "2"), 1, None,
     "error: progression length must be >= 2"),
    (("ip", "powerprog", "--length", "1", "--lo", "1", "--hi", "10", "--members", "2"), 1, None,
     "error: progression length must be >= 2"),
    (("ip", "gp", *_WINDOW, "--spec", "residue:2:0@1-5"), 1, None,
     "error: bad window suffix '1-5', expected LO..HI"),
    (("ip", "gp", *_WINDOW, "--spec", "bogus"), 1, None, "error: bad set spec 'bogus'"),
    (("ip", "gp", *_WINDOW, "--spec", "explicit:1,x"), 1, None,
     "error: bad explicit member list '1,x'"),
    (("greedy", "fegen1", "--spec", "all", "--y", "1,2,3", "--f", "constant:x", "--steps", "1"),
     1, None, "error: bad constant in f_spec 'constant:x'"),
    (("structures", "fe1", "--seeds", "", "--depth", "0"), 1, None,
     "error: seed sequence must be non-empty"),
    # a step whose base is past the value cap is a failure record, not an error line
    (("--value-bit-cap", "8", "greedy", "fe1", "--spec", "all", "--depth", "1",
      "--lo", "300", "--hi", "400"), 2,
     {"status": "failure", "step": 1, "reason": "capacity",
      "detail": "input bit length 9 exceeds value_bit_cap 8"}, None),
    # a type-II query past the membership bit limit is a failure record too
    (("greedy", "fe2", "--spec", "all", "--depth", "1", "--lo", "2097152", "--hi", "2097160"), 2,
     {"status": "failure", "step": 1, "reason": "capacity",
      "detail": "2097153**2097152 too large for a membership query"}, None),
    (("greedy", "fe1", "--spec", "all", "--depth", "-1", "--lo", "2", "--hi", "10"), 1, None,
     "error: depth must be >= 0"),
    (("greedy", "fe1", "--spec", "residue:x:1", "--depth", "1", "--lo", "2", "--hi", "10"), 1,
     None, "error: residue spec needs residue:M:R, got 'residue:x:1'"),
    # a spec's window pass raises the error of the first failing n, through a complement too
    ((*_POWERPROG, "complement:rule:n / (n - 30000)"), 1, None,
     "error: rule evaluation failed at n=30000: division by zero"),
    ((*_POWERPROG, "complement:residue:2:0@1..10000"), 2, None,
     "error: membership undecidable for 10001"),
    # a rule word is a letter or "_", then letters, digits or "_"
    (("color", "rule-count", "--rule", "n + é", "--max", "10"), 1, None,
     "error: syntax error at position 4: unknown identifier 'é'"),
    (("color", "rule-count", "--rule", "n + ²", "--max", "10"), 1, None,
     "error: syntax error at position 4: unexpected character '²'"),
    pytest.param(("color", "rule-count", "--rule", "1" * 5000, "--k", "2", "--max", "10"), 1, None,
                 f"error: syntax error at position 0: integer literal longer than {_DIGIT_LIMIT} "
                 "digits", marks=pytest.mark.skipif(not 0 < _DIGIT_LIMIT < 5000,
                                                    reason="needs a digit limit below 5000")),
    # rule-count colours from tables and still names the first failing n of the in-order walk
    (("color", "rule-count", "--rule", "1 / (n - 10000)", "--k", "2", "--max", "100000000"), 1,
     None, "error: rule evaluation failed at n=10000: division by zero"),
    (("color", "rule-count", "--rule", "ilog2(n - 4) % 2", "--k", "2", "--max", "100"), 1, None,
     "error: rule evaluation failed at n=2: ilog2 of non-positive value -2"),
    # the tables colour base 5 before 16, but the walk meets the c of (2, 4, 16) first
    (("color", "rule-count", "--rule", "if(n == 5 or n == 16, 1 / 0, 0)", "--k", "2",
      "--max", "100"), 1, None, "error: rule evaluation failed at n=16: division by zero"),
    (("color", "rule-count", "--rule", "n", "--k", "1000000000000", "--max", "100"), 2, None,
     "error: a 1000000000000-cell count at 1 bounds has 1000000000000 cells, over the limit of "
     "1048576"),
], ids=["seeds_not_integers", "members_and_spec", "neither_members_nor_spec", "solve_no_depth",
        "negative_shift", "gp_length_1", "powerprog_length_1", "bad_window_suffix",
        "unknown_spec", "bad_explicit_member", "bad_constant", "empty_seeds",
        "greedy_step_capacity", "greedy_fe2_query_too_large", "greedy_negative_depth",
        "residue_modulus_not_integer", "complement_rule_fails_at_30000",
        "complement_window_ends_at_10000", "rule_word_non_ascii_letter",
        "rule_superscript_digit", "rule_literal_past_digit_limit", "rule_fails_at_10000",
        "rule_ilog2_fails_at_2", "rule_fails_at_16_before_5", "rule_count_cells_past_limit"])
def test_cli_input_errors(capsys, argv, exit_code, record, error):
    code, out = run_cli(*argv)
    err = capsys.readouterr().err
    assert code == exit_code
    assert (json.loads(out) if out else None) == record
    if error is None:
        assert err == ""
    else:  # a usage error prints the usage lines before its one error line
        assert err.endswith(f"{error}\n") and err.count("error:") == 1


def _pick(record, path):
    """The field of `record` at `path`, a sequence of keys and indices; `len` counts."""
    for key in path:
        record = len(record) if key is len else record[key]
    return record


def _forms(*pairs):
    return [{"root": str(r), "exp": str(e), "value": str(r ** e)} for r, e in pairs]


def _seq(n, start=1, step=1):
    return ",".join(str(i) for i in range(start, n + 1, step))


_WIDE_ROOT = {"vertices": [{"root": str(2 ** 12000 + 1), "exp": "1"}], "edges": []}
_WIDE_B = {"vertices": [{"root": "2", "exp": e} for e in ("1", "5", str(2 ** 20))],
           "edges": [[0, 2, 1]]}


@pytest.mark.parametrize("timeout, argv, exit_code, field, expected, error", [
    # 2^7, 3^7 and 2^42 = (2^6)^7 each reach perfect_power's word-size table lookup
    (None, ("closure", "--seeds", "128,2187,4398046511104", "--depth", "0"), 0, ("vertices",),
     _forms((2, 7), (3, 7), (2, 42)), None),
    # the largest fifth power, cube and square below 2^64 take float-seeded roots in the
    # word-size routine; (2^32+1)^2 reaches it after one square root
    (None, ("closure", "--seeds", "18446744065119617025,18446724184312856125,"
            "18439629140666724651,18446744082299486209", "--depth", "0"), 0, ("vertices",),
     _forms((7131, 5), (2642245, 3), (4294967295, 2), (4294967297, 2)), None),
    (None, ("color", "rule-count", "--rule", "n % 2", "--k", "2", "--max", "10000000000"), 0,
     ("counts", 0, "triples"), 102719, None),
    (None, ("greedy", "verify", "--spec", "all@1..10", "--x", "3,5", "--y", "3,5", "--depth", "1"),
     2, ("checks", 1), {"name": "FE1(X)", "verdict": "inconclusive",
                        "violator": "membership undecidable for 243"}, None),
    (None, ("closure", "--seeds", "5,6", "--depth", "3"), 0, ("edges", len), 1012, None),
    (None, ("closure", "--seeds", "2,3,5,7", "--depth", "2"), 0, ("edges", len), 1488, None),
    (None, ("color", "solve", "--seeds", "2,3", "--depth", "2", "--k", "2"), 0, ("status",),
     "UNSAT", None),
    (None, (*_POWERPROG, "rule:n % 3"), 0, ("bases",), [str(b) for b in range(4, 35, 3)], None),
    (None, (*_POWERPROG, "complement:residue:5:0"), 0, ("bases", len), 27, None),
    (None, (*_POWERPROG, "rule:ilog2(n) % 2"), 0, ("bases",), ["13", "14", "15"], None),
    (None, ("ip", "gp", "--length", "4", "--lo", "1", "--hi", "3000",
            "--spec", "complement:residue:5:0"), 0, ("progressions", len), 457, None),
    (None, ("ip", "transform", "--op", "root", "--n", "3", "--lo", "0", "--hi", "30",
            "--members", "0,1,8,27"), 0, ("result",),
     {"lo": 0, "hi": 3, "members": ["0", "1", "2", "3"]}, None),
    (None, ("ip", "ip-star", "--kind", "multiplicative", "--m", "3", "--lo", "1", "--hi", "2000",
            "--spec", "complement:residue:5:0"), 0, ("witness",), ["5", "10", "15"], None),
    (None, ("ip", "ip-star", "--kind", "additive", "--m", "4", "--lo", "1", "--hi", "160",
            "--spec", "rule:ilog2(n) % 2"), 0, ("witness",), ["1", "4", "16", "64"], None),
    (None, ("greedy", "fegen1", "--spec", "complement:residue:5:0", "--y", _seq(16),
            "--f", "constant:3", "--steps", "3", "--budget", "3000"), 0, ("state", "x"),
     ["1", "2", "3"], None),
    (None, ("greedy", "fegen2", "--spec", "residue:3:0", "--y", _seq(17, 3, 2),
            "--f", "constant:2", "--steps", "3", "--budget", "3000"), 0, ("state", "x"),
     ["3", "315", "2145"], None),
    # a transform and gp's ratios read A's members when they are fewer than the window's
    (10, ("ip", "transform", "--op", "shift", "--n", "0", "--lo", "0", "--hi", "1000000000000",
          "--members", "5"), 0, ("result", "members"), ["5"], None),
    (10, ("ip", "gp", "--length", "3", "--lo", "0", "--hi", "1000000000000",
          "--members", "4,16,64,100000,10000000000"), 0, ("progressions",), [["4", "4"]], None),
    (30, ("ip", "gp", "--length", "3", "--lo", "1", "--hi", "1000000000", "--spec", "all"), 2, (),
     None, "window [1, 1000000000] holds more than 1048576 members"),
    (60, ("color", "solve", "--seeds", "2", "--depth", "4", "--k", "3"), 0,
     ("coloring", "colors", len), 112, None),
    (10, ("color", "solve", "--seeds", "2,3", "--depth", "2", "--k", "1000000000000"), 0,
     ("status",), "SAT", None),
    # the seed search jumps between its 62,750,750 plain-scan candidates by bitmask
    (30, ("--search-budget", "1000000000", "ip", "ip-star", "--kind", "additive", "--m", "4",
          "--lo", "1", "--hi", "1500", "--spec", "residue:3:0"), 0, ("verdict",), "holds", None),
    # each distinct block value is asked about once per prefix
    (30, ("greedy", "fegen1", "--spec", "rule:ilog2(n) % 2", "--y", _seq(24), "--f", "max-fe1",
          "--steps", "4", "--budget", "200000"), 2, ("explored",), 200001, None),
    (10, ("color", "solve", "--hypergraph", _WIDE_ROOT), 2, (), None,
     "hypergraph vertex root of 12001 bits exceeds value_bit_cap 4096"),
    (10, ("color", "solve", "--hypergraph", _WIDE_B), 1, (), None,
     "not an exponential triple: (2, 2^1048576, 2^5)"),
], ids=["word_size_table", "word_size_float_roots", "rule_count_triples_1e10",
        "verify_fe1_inconclusive", "closure_5_6", "closure_2_3_5_7", "solve_unsat",
        "powerprog_rule", "powerprog_complement", "powerprog_ilog2", "gp_complement",
        "transform_root", "ip_star_multiplicative", "ip_star_additive", "fegen1_complement",
        "fegen2_residue", "transform_wide_window", "gp_wide_window", "gp_member_limit",
        "solve_k3_112_vertices", "solve_k_1e12", "ip_star_exhaustive", "fegen1_200000",
        "hypergraph_wide_root", "hypergraph_wide_b"])
def test_cli_answers(tmp_path, capsys, timeout, argv, exit_code, field, expected, error):
    """One field of a command's record; a timed row runs in a fresh interpreter within its bound."""
    if isinstance(argv[-1], dict):  # a hypergraph record, read from a file
        f = tmp_path / "in.json"
        f.write_text(json.dumps(argv[-1]))
        argv = (*argv[:-1], str(f))
    if timeout is None:
        code, out = run_cli(*argv)
        err = capsys.readouterr().err
    else:
        code, out, err = run_bounded(argv, timeout)
        assert not out or out == json.dumps(json.loads(out), indent=2) + "\n"
    assert code == exit_code
    assert (_pick(json.loads(out), field) if out else None) == expected
    assert err == ("" if error is None else f"error: {error}\n")


def test_materialize_past_the_member_limit_exits_2(capsys):
    code, out = run_cli("ip", "gp", "--length", "3", "--lo", "1", "--hi", "1000000000",
                        "--spec", "all")
    err = capsys.readouterr().err
    assert (code, out) == (2, "")
    assert err == "error: window [1, 1000000000] holds more than 1048576 members\n"


def test_parser_state_does_not_leak_between_calls():
    base = ("closure", "--seeds", "2", "--depth", "2")
    code, first = run_cli(*base)
    assert code == 0
    code, small = run_cli("--vertex-budget", "3", *base)
    assert code == 0 and small != first
    assert run_cli("nonsense")[0] == 3
    assert run_cli(*base) == (0, first)
    code, help_text = run_cli("--help")
    assert code == 0 and help_text.startswith("usage: exporamsey")
    assert run_cli("--help") == (0, help_text)


def test_deterministic_byte_identical():
    args = ("closure", "--seeds", "2,3", "--depth", "2")
    _, first = run_cli(*args)
    _, second = run_cli(*args)
    assert first == second
    args2 = ("color", "solve", "--seeds", "2,3", "--depth", "2")
    _, a = run_cli(*args2)
    _, b = run_cli(*args2)
    assert a == b


@pytest.mark.parametrize("argv", [
    ("closure", "--seeds", "2,3", "--depth", "2"),
    ("color", "solve", "--seeds", "2,3", "--depth", "2", "--k", "3"),
    ("--vertex-budget", "200", "closure", "--seeds", "8,9", "--depth", "3"),
    ("--vertex-budget", "200", "color", "export-cnf", "--seeds", "8,9", "--depth", "3",
     "--k", "3"),
    ("--vertex-budget", "200", "color", "check", "--seeds", "8,9", "--depth", "3",
     "--coloring", "{f}"),
])
def test_byte_identical_across_processes(tmp_path, argv):
    coloring = tmp_path / "col.json"
    h = exporamsey.exp_closure({8, 9}, 3, exporamsey.Caps(vertex_budget=200))
    colors = {vertex_label(v): i % 2 for i, v in enumerate(h.vertices)}
    coloring.write_text(json.dumps({"k": 2, "colors": colors}))
    argv = [a.format(f=coloring) for a in argv]
    outputs = []
    for hash_seed in ("0", "12345"):  # set and str iteration order differ between these
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=_SRC)
        done = subprocess.run([sys.executable, "-m", "exporamsey.cli", *argv],
                              env=env, capture_output=True, check=True, timeout=120)
        outputs.append(done.stdout)
    assert outputs[0] and outputs[0] == outputs[1]


@pytest.mark.parametrize("argv, what", [
    (["color", "solve", "--hypergraph", "{f}", "--k", "2"], "hypergraph file"),
    (["color", "check", "--seeds", "2", "--depth", "1", "--coloring", "{f}"], "coloring file"),
], ids=["hypergraph", "coloring"])
def test_unreadable_json_files_are_domain_errors(tmp_path, capsys, argv, what):
    f = tmp_path / "in.json"
    argv = [a.format(f=f) for a in argv]
    with pytest.raises(OSError) as missing:
        open(f)
    assert run_cli(*argv) == (1, "")
    assert capsys.readouterr().err == f"error: cannot read {what}: {missing.value}\n"
    f.write_text("{")
    with pytest.raises(json.JSONDecodeError) as bad:
        json.loads("{")
    assert run_cli(*argv) == (1, "")
    assert capsys.readouterr().err == f"error: cannot read {what}: {bad.value}\n"
    f.write_bytes(b"\xff{}")  # not UTF-8
    with pytest.raises(UnicodeDecodeError) as bad:
        b"\xff{}".decode("utf-8")
    assert run_cli(*argv) == (1, "")
    assert capsys.readouterr().err == f"error: cannot read {what}: {bad.value}\n"
    # a number past the int-to-str digit limit, where there is one, is unreadable too
    f.write_text("[" + "1" * 5000 + "]")
    assert run_cli(*argv) == (1, "")
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("flags", [
    ("--rng-seed", "5"), ("--threads", "2"), ("--deterministic",), ("--format", "dimacs"),
    ("--config", "cfg.json"),
], ids=" ".join)
def test_removed_flags_are_usage_errors(capsys, flags):
    assert run_cli(*flags, "triples", "enum", "--max", "4") == (3, "")
    assert flags[0] in capsys.readouterr().err


@pytest.mark.parametrize("method", ["exhaustive", "backtracking"])
def test_color_solve_has_no_method_flag(capsys, method):
    argv = ("color", "solve", "--seeds", "2", "--depth", "2", "--method", method)
    assert run_cli(*argv) == (3, "")
    assert "--method" in capsys.readouterr().err


def test_closed_stdout_exits_quietly():
    """A reader that stops early, as `| head -c 10` does, sees exit 0 and no traceback."""
    argv = [sys.executable, "-m", "exporamsey.cli", "triples", "enum", "--max", "100000000"]
    with subprocess.Popen(argv, env=dict(os.environ, PYTHONPATH=_SRC),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        code = proc.wait(timeout=120)
        err = proc.stderr.read()
    assert (code, err) == (0, b"")


@pytest.mark.parametrize("argv, message", [
    (("closure", "--seeds", "2", "--depth", "5"), "depth 5 exceeds max_closure_depth 4"),
    (("structures", "fs", "--seeds", _seq(26)), "carrier size 26 exceeds subset guard 25"),
    (("greedy", "fegen1", "--spec", "all", "--y", _seq(33), "--f", "constant:2", "--steps", "1"),
     "carrier prefix length 33 exceeds block_index_limit 32"),
    (("greedy", "fe1", "--spec", "all", "--depth", "4", "--lo", "2", "--hi", "100"),
     "level maximum 1152921504606846976 exceeds greedy_base_limit"),
], ids=["max_closure_depth", "subset_size_guard", "block_index_limit", "greedy_base_limit"])
def test_fixed_guards_pinned(capsys, argv, message):
    """Each guard no flag can move stops the run with exit 2 at its fixed value."""
    code, out = run_cli(*argv)
    err = capsys.readouterr().err
    assert code == 2
    if out:  # the greedy step reports its capacity failure as a record
        assert (json.loads(out)["detail"], err) == (message, "")
    else:
        assert err == f"error: {message}\n"


# each input has at most 3701 digits, and each product that is written has over 4800
@pytest.mark.skipif(not 3701 <= _DIGIT_LIMIT < 4800,
                    reason="the inputs are sized for the default int-to-str digit limit, 4300")
@pytest.mark.parametrize("argv, bits", [
    # the exponents of the depth-4 tower multiply the four wide seeds
    (("structures", "fe1", "--seeds", "2," + ",".join(str(10 ** e + 1) for e in range(1200, 1204)),
      "--depth", "4"), 15966),
    # only the product of all four y is over the bound, so it is the one x
    (("greedy", "fegen2", "--spec", "rule:n > 1" + "0" * 3700,
      "--y", ",".join(str(10 ** 1200 + p) for p in (1, 3, 5, 7)), "--f", "constant:1",
      "--steps", "1"), 15946),
], ids=["structures_fe1", "greedy_fegen2"])
def test_integers_past_the_digit_limit_are_capacity_errors(capsys, argv, bits):
    assert run_cli(*argv) == (2, "")
    assert capsys.readouterr().err == (
        f"error: a {bits}-bit integer has more decimal digits than the int-to-str limit "
        f"of {_DIGIT_LIMIT}\n")


# 2**14301, the least integer written below, has 4306 digits
@pytest.mark.skipif(not 0 < _DIGIT_LIMIT < 4306,
                    reason="needs an int-to-str digit limit below 4306 digits")
@pytest.mark.parametrize("argv, record", [
    # x_0 = 14300, so the first query of step 1 is 2**14301, outside the window
    (("greedy", "fe1", "--spec", "all@1..20000", "--depth", "1", "--lo", "14300",
      "--hi", "20000"), ("oracle range", "<14302-bit integer>")),
    (("--value-bit-cap", "30000", "greedy", "fe1", "--spec", "rule:n == 2 or n >= 20000",
      "--depth", "2", "--lo", "2", "--hi", "20001"),
     ("capacity", "level maximum <20001-bit integer> exceeds greedy_base_limit")),
], ids=["oracle_range", "level_maximum"])
def test_greedy_failure_details_past_the_digit_limit(capsys, argv, record):
    code, data = run_json(*argv)
    assert code == 2 and (data["reason"], data["detail"]) == record
    assert capsys.readouterr().err == ""


@pytest.mark.skipif(not 0 < _DIGIT_LIMIT < 6021,
                    reason="needs an int-to-str digit limit below 6021 digits")
@pytest.mark.parametrize("rule, message", [
    ("ipow(ipow(n, 20000), 1000)", "ipow(<20001-bit integer>, 1000) result too large"),
    ("ilog2(0 - ipow(n, 20000))", "ilog2 of non-positive value <20001-bit integer>"),
])
def test_rule_operands_past_the_digit_limit(capsys, rule, message):
    assert run_cli("color", "rule-count", "--rule", rule, "--k", "2", "--max", "100") == (1, "")
    assert capsys.readouterr().err == f"error: rule evaluation failed at n=2: {message}\n"


def test_block_size_limit_pinned():
    # no block passes against the empty set, so the search tries every block
    # of at most four of the five carrier indices: 5 + 10 + 10 + 5
    code, data = run_json("greedy", "fegen1", "--spec", "explicit:", "--y", _seq(5),
                          "--f", "constant:2", "--steps", "1")
    assert code == 0 and (data["status"], data["explored"]) == ("failure", 30)


def test_threads_env_var(monkeypatch):
    """EXPORAMSEY_THREADS is read by nothing: no value changes the output or exit code."""
    expected = run_cli("triples", "enum", "--max", "4")
    assert expected[0] == 0
    for raw in ("4", "zero", "0"):
        monkeypatch.setenv("EXPORAMSEY_THREADS", raw)
        assert run_cli("triples", "enum", "--max", "4") == expected


FEGEN = ("greedy", "fegen1", "--spec", "all", "--y", "1,2,4,8",
         "--f", "constant:2", "--steps", "2")  # explores 2 block tuples


def test_search_budget_bounds_color_solve(capsys):
    argv = ("color", "solve", "--seeds", "2,3", "--depth", "3", "--k", "3")
    assert run_cli("--search-budget", "1000", *argv) == (2, "")
    assert "backtracking search budget exceeded: 1000" in capsys.readouterr().err
    code, data = run_json("--search-budget", "150", "color", "solve",
                          "--seeds", "2", "--depth", "4", "--k", "3")
    assert code == 0 and data["status"] == "SAT"


def test_search_budget_bounds_fegen(capsys):
    code, data = run_json("--search-budget", "1", *FEGEN)
    assert code == 2 and data["status"] == "inconclusive"
    # the subcommand's --budget wins over the global budget either way
    code, data = run_json("--search-budget", "1", *FEGEN, "--budget", "2")
    assert code == 0 and data["status"] == "success"
    code, data = run_json("--search-budget", "2", *FEGEN, "--budget", "1")
    assert code == 2 and data["status"] == "inconclusive"
    # a --budget below 1 is refused as --search-budget is
    for flags in (("--search-budget", "0", *FEGEN), (*FEGEN, "--budget", "0"),
                  (*FEGEN, "--budget", "-3")):
        assert run_cli(*flags) == (1, "")
        assert capsys.readouterr().err == "error: cap search_budget must be positive\n"
