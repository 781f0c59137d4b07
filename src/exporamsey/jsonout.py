"""JSON records as text: exactly the bytes of `json.dumps(obj, indent=2)`.

`json.dumps` with an indent runs the pure-Python encoder, one generator
step per token.  The records hold only dicts with str keys, lists, tuples,
str, int, bool and None, so this writer covers just those: strings go
through the C `encode_basestring_ascii` (the ensure_ascii escaping), ints
through `int.__repr__`, and each container is one `join`.  A list of
non-empty rows of ints, like a hypergraph's edges, is one `%` formatting of
all its ints, with no call per row.  So is a list of non-empty dicts with one
key order and only str or None values, like a hypergraph's vertex records:
its keys go into the template, with any `%` doubled, and its values are
encoded before the one formatting.  Every other list goes item by item.
"""

from __future__ import annotations

from itertools import chain
from json.encoder import encode_basestring_ascii as _string

_int = int.__repr__  # what json writes for an int; bool is not an int here
_ROW_TYPES = {list, tuple}
_INT_TYPE = {int}
_DICT_TYPE = {dict}
_TEXT_TYPES = {str, type(None)}


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
        types = set(map(type, obj))
        if types <= _ROW_TYPES and all(obj) \
                and set(map(type, chain.from_iterable(obj))) == _INT_TYPE:
            # non-empty rows of ints, like "edges": one %d template per row length
            # and one formatting pass over all the ints, which %d writes as repr does
            row_nl = inner + "  "
            row = {n: "[" + row_nl + ("," + row_nl).join(["%d"] * n) + inner + "]"
                   for n in set(map(len, obj))}
            return ("[" + inner + ("," + inner).join(map(row.__getitem__, map(len, obj)))
                    + nl + "]") % tuple(chain.from_iterable(obj))
        if types == _DICT_TYPE and obj[0] and len(set(map(tuple, obj))) == 1:
            values = list(chain.from_iterable(map(dict.values, obj)))
            if set(map(type, values)) <= _TEXT_TYPES:
                # flat dicts with one key order, like "vertices": one template of the
                # keys and one formatting pass over the encoded values
                row_nl = inner + "  "
                row = ("{" + row_nl + ("," + row_nl).join(
                    [_string(key).replace("%", "%%") + ": %s" for key in obj[0]]) + inner + "}")
                return ("[" + inner + ("," + inner).join([row] * len(obj)) + nl + "]") \
                    % tuple(["null" if v is None else _string(v) for v in values])
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
