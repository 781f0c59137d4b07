"""JSON records as text: exactly the bytes of `json.dumps(obj, indent=2)`.

`json.dumps` with an indent runs the pure-Python encoder, one generator
step per token.  The records hold only dicts with str keys, lists, tuples,
str, int, bool and None, so this writer covers just those: strings go
through the C `encode_basestring_ascii` (the ensure_ascii escaping), ints
through `int.__repr__`, and each container is one `join`.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _string

_int = int.__repr__  # what json writes for an int; bool is not an int here


def dumps(obj) -> str:
    """`json.dumps(obj, indent=2) + "\\n"` for the types the records hold."""
    return _text(obj, "\n") + "\n"


def _text(obj, nl: str) -> str:
    """obj's text, with `nl` the newline and indent of the line it starts on."""
    t = type(obj)
    if t is str:
        return _string(obj)
    if t is int:
        return _int(obj)
    inner = nl + "  "
    # scalars inline, containers recurse
    if t is list or t is tuple:
        if not obj:
            return "[]"
        items = [_string(v) if type(v) is str else _int(v) if type(v) is int
                 else _text(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if t is dict:
        if not obj:
            return "{}"
        items = [_string(key) + ": "
                 + (_string(v) if type(v) is str else _int(v) if type(v) is int
                    else _text(v, inner))
                 for key, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
