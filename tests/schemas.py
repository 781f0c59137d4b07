"""JSON Schemas for the machine-readable output formats.

Test data, not part of the package: `test_cli.py` validates CLI output
against them with the `jsonschema` package.
"""

DECIMAL = {"type": "string", "pattern": "^[0-9]+$"}

POWERFORM_RECORD = {
    "type": "object",
    "required": ["root", "exp", "value"],
    "additionalProperties": False,
    "properties": {
        "root": DECIMAL,
        "exp": DECIMAL,
        "value": {"oneOf": [DECIMAL, {"type": "null"}]},
    },
}

LEVEL_RECORD = {
    "type": "object",
    "required": ["kind", "seeds", "level", "elements", "dropped"],
    "properties": {
        "kind": {"enum": ["FE1", "FE2", "FS", "FP"]},
        "seeds": {"type": "array", "items": DECIMAL},
        "level": {"oneOf": [{"type": "integer", "minimum": 0}, {"type": "null"}]},
        "elements": {
            "type": "array",
            "items": {"oneOf": [DECIMAL, POWERFORM_RECORD]},
        },
        "dropped": {"type": "integer", "minimum": 0},
    },
}

TRIPLE_RECORD = {
    "type": "object",
    "required": ["a", "b", "c"],
    "properties": {"a": DECIMAL, "b": DECIMAL, "c": DECIMAL},
}

TRIPLE_LIST = {"type": "array", "items": TRIPLE_RECORD}

EDGE = {
    "type": "array",
    "items": {"type": "integer", "minimum": 0},
    "minItems": 3,
    "maxItems": 3,
}

HYPERGRAPH_RECORD = {
    "type": "object",
    "required": ["vertices", "edges", "meta"],
    "properties": {
        "vertices": {"type": "array", "items": POWERFORM_RECORD},
        "edges": {"type": "array", "items": EDGE},
        "meta": {
            "type": "object",
            "required": ["seeds", "depth", "caps", "dropped", "truncated"],
            "properties": {
                "seeds": {"type": "array", "items": DECIMAL},
                "depth": {"type": "integer", "minimum": 0},
                "caps": {"type": "object"},
                "dropped": {"type": "integer", "minimum": 0},
                "truncated": {"type": "integer", "minimum": 0},
            },
        },
    },
}

COLORING_RECORD = {
    "type": "object",
    "required": ["k", "colors"],
    "properties": {
        "k": {"type": "integer", "minimum": 2},
        "colors": {
            "type": "object",
            "additionalProperties": {"type": "integer", "minimum": 0},
        },
    },
}

SOLVE_RESULT = {
    "type": "object",
    "required": ["status"],
    "properties": {
        "status": {"enum": ["SAT", "UNSAT"]},
        "k": {"type": "integer", "minimum": 2},
        "method": {"const": "backtracking"},
        "coloring": COLORING_RECORD,
    },
}

COUNTS_RESULT = {
    "type": "object",
    "required": ["rule", "k", "counts"],
    "properties": {
        "rule": {"type": "string"},
        "k": {"type": "integer", "minimum": 1},
        "counts": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["N", "k", "per_cell", "total", "rainbow", "triples"],
                "properties": {
                    "N": DECIMAL,
                    "k": {"type": "integer", "minimum": 1},
                    "per_cell": {
                        "type": "object",
                        "additionalProperties": {"type": "integer", "minimum": 0},
                    },
                    "total": {"type": "integer", "minimum": 0},
                    "rainbow": {"type": "integer", "minimum": 0},
                    "triples": {"type": "integer", "minimum": 0},
                },
            },
        },
    },
}

WINDOWSET_RECORD = {
    "type": "object",
    "required": ["lo", "hi", "members"],
    "properties": {
        "lo": {"type": "integer", "minimum": 0},
        "hi": {"type": "integer", "minimum": 0},
        "members": {"type": "array", "items": DECIMAL},
    },
}

TRANSFORM_RESULT = {
    "type": "object",
    "required": ["op", "n", "input", "result"],
    "properties": {
        "op": {"enum": ["shift", "divide", "log", "root"]},
        "n": {"type": "integer"},
        "input": WINDOWSET_RECORD,
        "result": WINDOWSET_RECORD,
    },
}

SEED_RESULT = {
    "type": "object",
    "required": ["kind", "m", "status", "examined"],
    "properties": {
        "kind": {"enum": ["additive", "multiplicative"]},
        "m": {"type": "integer", "minimum": 1},
        "status": {"enum": ["found", "none", "inconclusive"]},
        "witness": {"type": "array", "items": DECIMAL},
        "examined": {"type": "integer", "minimum": 0},
    },
}

IPSTAR_RESULT = {
    "type": "object",
    "required": ["verdict"],
    "properties": {
        "verdict": {"enum": ["holds", "fails", "inconclusive"]},
        "witness": {"type": "array", "items": DECIMAL},
    },
}

GP_RESULT = {
    "type": "object",
    "required": ["length", "progressions"],
    "properties": {
        "length": {"type": "integer", "minimum": 2},
        "progressions": {
            "type": "array",
            "items": {"type": "array", "items": DECIMAL, "minItems": 2, "maxItems": 2},
        },
    },
}

POWERPROG_RESULT = {
    "type": "object",
    "required": ["length", "bases"],
    "properties": {
        "length": {"type": "integer", "minimum": 2},
        "bases": {"type": "array", "items": DECIMAL},
    },
}

GREEDY_RESULT = {
    "type": "object",
    "required": ["status"],
    "properties": {
        "status": {"enum": ["success", "failure"]},
        "kind": {"enum": ["fe1", "fe2"]},
        "X": {"type": "array", "items": DECIMAL},
        "depth": {"type": "integer", "minimum": 0},
        "certificate": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["element", "member"],
                "properties": {
                    "element": POWERFORM_RECORD,
                    "member": {"type": "boolean"},
                },
            },
        },
        "step": {"type": "integer", "minimum": 0},
        "reason": {"type": "string"},
        "detail": {"type": "string"},
    },
}

SEARCH_RESULT = {
    "type": "object",
    "required": ["status", "explored"],
    "properties": {
        "status": {"enum": ["success", "failure", "inconclusive"]},
        "explored": {"type": "integer", "minimum": 0},
        "reason": {"type": "string"},
        "state": {
            "type": "object",
            "required": ["x", "blocks", "level_max", "f_spec"],
            "properties": {
                "x": {"type": "array", "items": DECIMAL},
                "blocks": {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "integer", "minimum": 0}},
                },
                "level_max": {"type": "array", "items": DECIMAL},
                "f_spec": {"type": "string"},
            },
        },
    },
}

FECOR_RESULT = {
    "type": "object",
    "required": ["checks", "all_hold"],
    "properties": {
        "checks": {
            "type": "array",
            "minItems": 4,
            "maxItems": 4,
            "items": {
                "type": "object",
                "required": ["name", "verdict"],
                "properties": {
                    "name": {"enum": ["FS(X)", "FE1(X)", "FP(Y)", "FE2(Y)"]},
                    "verdict": {"enum": ["holds", "fails", "inconclusive"]},
                    "violator": {"type": "string"},
                },
            },
        },
        "all_hold": {"type": "boolean"},
    },
}

CHECK_RESULT = {
    "type": "object",
    "required": ["monochromatic_edges", "count"],
    "properties": {
        "monochromatic_edges": {"type": "array", "items": EDGE},
        "count": {"type": "integer", "minimum": 0},
    },
}
