"""The JSON record writer against json.dumps(obj, indent=2) on random values."""

import json
import random

import pytest

from exporamsey import jsonout

_CHARS = ['"', "\\", "/", "\n", "\r", "\t", "\b", "\f", "\x00", "\x1f", "\x7f", "a", "Z", " ",
          "é", "ß", "Ω", "€", " ", "﻿", "\U0001f600", "\U00010348", "7", "{", "]"]


def _string(rng):
    return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(8)))


def _int(rng):
    size = rng.choice((1, 3, 19, 20, 1000))
    n = rng.randrange(10 ** (size - 1), 10 ** size) if size > 1 else rng.randrange(10)
    return n if rng.random() < 0.5 else -n


def _value(rng, depth):
    kind = rng.randrange(8 if depth < 4 else 4)
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
    if kind == 6:  # a list of scalar lists, like "edges"
        return [[_int(rng) for _ in range(3)] for _ in range(rng.randrange(4))]
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
])
def test_edge_cases_match_json_dumps(obj):
    assert jsonout.dumps(obj) == json.dumps(obj, indent=2) + "\n"


def test_output_is_ascii_and_tuples_are_lists():
    text = jsonout.dumps({"é": ("\U0001f600", 1)})
    assert text.isascii()
    assert text == '{\n  "\\u00e9": [\n    "\\ud83d\\ude00",\n    1\n  ]\n}\n'


@pytest.mark.parametrize("obj", [1.5, {1: "int key"}, {"s"}, b"bytes"])
def test_other_types_refused(obj):
    with pytest.raises(TypeError):
        jsonout.dumps(obj)
