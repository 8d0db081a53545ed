"""Indented JSON text of a payload, byte for byte what ``json.dumps`` gives with an indent of 2.

``json.dumps`` runs its pure-Python encoder whenever an indent is set,
a generator per container and several checks per value.  :func:`indented`
renders the same text with one recursive walk that appends to a list.
Values are told apart by ``json``'s own isinstance checks, in its order,
so subclasses render as ``json`` renders them: a ``str`` enum as its
value, ``bool`` before ``int``, and a float subclass such as
``np.float64`` through ``float.__repr__``.  Non-finite floats become
``NaN``, ``Infinity`` and ``-Infinity``, and strings are ASCII-escaped.
Unlike ``json``, which would coerce them, dict keys must be strings.
A :class:`Verbatim` value is text rendered earlier, inserted at its
indent.  Anything else raises TypeError.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


class Verbatim:
    """Text :func:`indented` gave a value at the top level, to insert at the indent of another place.

    The text must come from the same ``sort_keys`` as the payload it goes into.
    """

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text


def indented(payload, *, sort_keys: bool = False) -> str:
    """The text ``json.dumps`` gives ``payload`` with an indent of 2 and ``sort_keys``."""
    parts: list[str] = []
    _render(payload, "\n", sort_keys, parts.append)
    return "".join(parts)


def _render(o, pad: str, sort_keys: bool, out) -> None:
    """Append the text of ``o`` at the indent ``pad`` (a newline and its spaces) to ``out``."""
    if isinstance(o, str):
        out(_quote(o))
    elif o is None:
        out("null")
    elif o is True:
        out("true")
    elif o is False:
        out("false")
    elif isinstance(o, int):
        out(int.__repr__(o))
    elif isinstance(o, float):
        text = float.__repr__(o)
        out(_NON_FINITE.get(text, text))
    elif isinstance(o, (list, tuple)):
        if not o:
            out("[]")
            return
        inner = pad + "  "
        sep = "[" + inner
        for item in o:
            out(sep)
            _render(item, inner, sort_keys, out)
            sep = "," + inner
        out(pad + "]")
    elif isinstance(o, dict):
        if not o:
            out("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key, value in sorted(o.items()) if sort_keys else o.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out(sep + _quote(key) + ": ")
            _render(value, inner, sort_keys, out)
            sep = "," + inner
        out(pad + "}")
    elif isinstance(o, Verbatim):
        out(o.text.replace("\n", pad))
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
