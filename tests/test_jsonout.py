"""The JSON record writer against json.dumps(obj, indent=2) on random values."""

import json
import random

import pytest

from exporamsey import exp_closure, jsonout
from exporamsey.cli import main
from exporamsey.triples import hypergraph_record

_CHARS = ['"', "\\", "/", "\n", "\r", "\t", "\b", "\f", "\x00", "\x1f", "\x7f", "a", "Z", " ",
          "é", "ß", "Ω", "€", " ", "﻿", "\U0001f600", "\U00010348", "7", "{", "]"]


def _string(rng):
    return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(8)))


def _int(rng):
    size = rng.choice((1, 3, 19, 20, 1000))
    n = rng.randrange(10 ** (size - 1), 10 ** size) if size > 1 else rng.randrange(10)
    return n if rng.random() < 0.5 else -n


def _flat_dicts(rng):
    """Rows of str or None values under one key order, like "vertices", sometimes
    with a row that leaves that shape."""
    keys = [_string(rng) + rng.choice(("", "%", "%s", "%%")) for _ in range(rng.randrange(4))]
    rows = [{key: rng.choice((_string(rng) + rng.choice(("", "%s")), None)) for key in keys}
            for _ in range(rng.randrange(6))]
    if rows and rng.random() < 0.3:
        row = rows[rng.randrange(len(rows))]
        change = rng.randrange(4)
        if change == 0:
            row.clear()
        elif change == 1:
            row[_string(rng) + "!"] = None  # a key the other rows lack
        elif change == 2 and row:
            row[next(iter(row))] = rng.choice((1, True, False, ["x"], {"k": "v"}))
        else:  # the same keys in another order
            items = list(row.items())[::-1]
            row.clear()
            row.update(items)
    return rows


def _value(rng, depth):
    kind = rng.randrange(9 if depth < 4 else 4)
    if kind == 0:
        return _string(rng)
    if kind == 1:
        return _int(rng)
    if kind == 2:
        return rng.choice((True, False, None))
    if kind == 3:
        return rng.choice(([], {}, (), ""))
    items = [_value(rng, depth + 1) for _ in range(rng.randrange(5))]
    if kind == 4:
        return items
    if kind == 5:
        return tuple(items)
    if kind == 6:  # rows of ints, like "edges", sometimes with a bool or an empty row
        rows = [[_int(rng) for _ in range(rng.choice((3, 3, 1, 5)))]
                for _ in range(rng.randrange(6))]
        if rows and rng.random() < 0.3:
            rows[rng.randrange(len(rows))] = rng.choice(([], [True], (), [1, False]))
        return [tuple(r) if rng.random() < 0.2 else r for r in rows]
    if kind == 7:
        return _flat_dicts(rng)
    return {_string(rng): v for v in items}


def test_random_values_match_json_dumps():
    rng = random.Random(2011)
    for _ in range(3000):
        obj = _value(rng, 0)
        assert jsonout.dumps(obj) == json.dumps(obj, indent=2) + "\n"


@pytest.mark.parametrize("obj", [
    "plain", "quote \" backslash \\ slash /", "\x00\x01\x1f\x7f", "ümlaut Ω   \U0001f600",
    {"kéy\n": ["v\"", ("t", 1)]}, (), [()], ((1, 2), [3, (4,)]), {"a": (True, None)},
    [True, False, None, 0, -1, 10 ** 1000, -(10 ** 1000)], {}, [], [{}, []], {"": {}},
    # rows of ints, and rows that leave that shape
    [[1, 2, 3], [4, True, 6]], [[1, 2, 3], [None, 5, 6]], [[1, "2", 3]],
    [[1, 2, 3], [], [4, 5, 6]], [[]], [(1, 2, 3), (4, 5, 6)], ((1, 2), [3, 4]),
    [[1, 2, 3], [4, [5], 6]], [[1, [2, 3]]], [[1], [2, 3], [4, 5, 6, 7], [8, 9, 10]],
    [[10 ** 1000, -(10 ** 1001)], [-1, 0]], {"edges": [[0, 0, 1], [0, 1, 2]], "count": 2},
    [[1, 2], {"a": 1}], [[1, 2], "s"], [[1, 2], 3], [[True, False]], [[False]],
    [["%d", "%s"], [1, 2]],
    # flat dicts with one key order, and dicts that leave that shape
    [{"root": "2", "exp": "1", "value": "2"}, {"root": "2", "exp": "5000", "value": None}],
    [{"%": "%s", "a%%b": "%%", "%s": "100%"}, {"%": "%d", "a%%b": None, "%s": "%(x)s"}],
    [{"k\u00e9\n\"": "\u03a9", "\U0001f600": None}, {"k\u00e9\n\"": "", "\U0001f600": "\x00"}],
    [{"a": "1", "b": "2"}, {"b": "2", "a": "1"}], [{"a": "1"}, {"b": "1"}],
    [{"a": "1"}, {"a": "1", "b": "2"}], [{"a": "1"}, {"a": 1}], [{"a": "1"}, {"a": True}],
    [{"a": None}, {"a": False}], [{"a": "1"}, {"a": ["1"]}], [{"a": {"b": "c"}}],
    [{"a": "1"}, {}], [{}, {}], [{}], [{"a": "%s"}], [{"a": None}], [{"a": "1"}, ["a"]],
    ({"a": "1"}, {"a": "2"}), {"rows": [{"x": "1", "y": None}] * 3, "n": 3},
])
def test_edge_cases_match_json_dumps(obj):
    assert jsonout.dumps(obj) == json.dumps(obj, indent=2) + "\n"


def test_output_is_ascii_and_tuples_are_lists():
    text = jsonout.dumps({"é": ("\U0001f600", 1)})
    assert text.isascii()
    assert text == '{\n  "\\u00e9": [\n    "\\ud83d\\ude00",\n    1\n  ]\n}\n'


@pytest.mark.parametrize("obj", [1.5, {1: "int key"}, {"s"}, b"bytes", [[1, 2.0, 3]],
                                 [[1, 2], [3, 1.5]], [[1, 2], [b"x"]], [[1], [{"s"}]],
                                 [(1, 2), {1: 2}], [{"a": "1"}, {"a": 1.5}], [{1: "a"}, {1: "b"}],
                                 [{"a": b"x"}]])
def test_other_types_refused(obj):
    with pytest.raises(TypeError):
        jsonout.dumps(obj)


def test_closure_and_check_records_match_json_dumps(tmp_path, capsys):
    rec = hypergraph_record(exp_closure({2, 3, 5, 7}, 2))
    assert len(rec["edges"]) > 100
    assert jsonout.dumps(rec) == json.dumps(rec, indent=2) + "\n"
    coloring = tmp_path / "col.json"
    coloring.write_text(json.dumps({"k": 2, "colors": {"2": 0, "4": 0, "16": 1, "256": 0}}))
    assert main(["color", "check", "--seeds", "2", "--depth", "2",
                 "--coloring", str(coloring)]) == 0
    out = capsys.readouterr().out
    check = json.loads(out)
    assert check["count"] == 2 and check["monochromatic_edges"] == [[0, 0, 1], [1, 1, 3]]
    assert out == json.dumps(check, indent=2) + "\n"
