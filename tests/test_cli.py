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
from exporamsey import schemas
from exporamsey.cli import main

from oracles import parse_dimacs


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def run_json(*argv):
    code, out = run_cli(*argv)
    return code, json.loads(out)


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
])
def test_byte_identical_across_processes(argv):
    src = str(Path(exporamsey.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("0", "12345"):  # set and str iteration order differ between these
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-m", "exporamsey.cli", *argv],
                              env=env, capture_output=True, check=True, timeout=120)
        outputs.append(done.stdout)
    assert outputs[0] and outputs[0] == outputs[1]


def test_config_file_merge(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"search_budget": 2}))
    code, data = run_json(
        "--config", str(cfg), "ip", "find-seed", "--kind", "additive", "--m", "3",
        "--lo", "1", "--hi", "100", "--spec", "all",
    )
    assert code == 2
    assert data["status"] == "inconclusive"
    # explicit flag wins over the config file
    code, data = run_json(
        "--config", str(cfg), "--search-budget", "100000",
        "ip", "find-seed", "--kind", "additive", "--m", "3",
        "--lo", "1", "--hi", "100", "--spec", "all",
    )
    assert code == 0
    assert data["status"] == "found"


@pytest.mark.parametrize("values, message", [
    ({"value_bit_cap": "big"}, "value_bit_cap must be an integer"),
    ({"vertex_budget": True}, "vertex_budget must be an integer"),
    ({"threads": 2}, "unknown config key 'threads'"),
    ({"format": "dimacs"}, "format must be one of json, csv, got 'dimacs'"),
    ({"deterministic": True}, "unknown config key 'deterministic'"),
    ({"vertex-budget": 3}, "unknown config key 'vertex-budget'"),
    ({"block_size_limit": 8}, "unknown config key 'block_size_limit'"),
])
def test_config_file_values_checked(tmp_path, capsys, values, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    code, out = run_cli("--config", str(cfg), "triples", "enum", "--max", "4")
    assert (code, out) == (1, "")
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ("--rng-seed", "5"), ("--threads", "2"), ("--deterministic",), ("--format", "dimacs"),
], ids=" ".join)
def test_removed_flags_are_usage_errors(capsys, flags):
    assert run_cli(*flags, "triples", "enum", "--max", "4") == (3, "")
    assert flags[0] in capsys.readouterr().err


def test_closed_stdout_exits_quietly():
    """A reader that stops early, as `| head -c 10` does, sees exit 0 and no traceback."""
    src = str(Path(exporamsey.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "exporamsey.cli", "triples", "enum", "--max", "100000000"]
    with subprocess.Popen(argv, env=dict(os.environ, PYTHONPATH=src),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        code = proc.wait(timeout=120)
        err = proc.stderr.read()
    assert (code, err) == (0, b"")


def _seq(n):
    return ",".join(str(i) for i in range(1, n + 1))


@pytest.mark.parametrize("argv, message", [
    (("closure", "--seeds", "2", "--depth", "5"), "depth 5 exceeds max_closure_depth 4"),
    (("structures", "fs", "--seeds", _seq(26)), "carrier size 26 exceeds subset guard 25"),
    (("color", "solve", "--seeds", "2,3", "--depth", "2", "--k", "3", "--method", "exhaustive"),
     "exhaustive method budget exceeded: 3^28 > 16777216"),
    (("greedy", "fegen1", "--spec", "all", "--y", _seq(33), "--f", "constant:2", "--steps", "1"),
     "carrier prefix length 33 exceeds block_index_limit 32"),
    (("greedy", "fe1", "--spec", "all", "--depth", "4", "--lo", "2", "--hi", "100"),
     "level maximum 1152921504606846976 exceeds greedy_base_limit"),
], ids=["max_closure_depth", "subset_size_guard", "exhaustive_budget", "block_index_limit",
        "greedy_base_limit"])
def test_fixed_guards_pinned(capsys, argv, message):
    """Each guard no flag can move stops the run with exit 2 at its fixed value."""
    code, out = run_cli(*argv)
    err = capsys.readouterr().err
    assert code == 2
    if out:  # the greedy step reports its capacity failure as a record
        assert (json.loads(out)["detail"], err) == (message, "")
    else:
        assert err == f"error: {message}\n"


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


def test_search_budget_bounds_fegen(tmp_path):
    code, data = run_json("--search-budget", "1", *FEGEN)
    assert code == 2 and data["status"] == "inconclusive"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"search_budget": 1}))
    code, data = run_json("--config", str(cfg), *FEGEN)
    assert code == 2 and data["status"] == "inconclusive"
    # the subcommand's --budget wins over the global budget either way
    code, data = run_json("--search-budget", "1", *FEGEN, "--budget", "2")
    assert code == 0 and data["status"] == "success"
    code, data = run_json("--config", str(cfg), *FEGEN, "--budget", "2")
    assert code == 0 and data["status"] == "success"
    code, data = run_json("--search-budget", "2", *FEGEN, "--budget", "1")
    assert code == 2 and data["status"] == "inconclusive"
