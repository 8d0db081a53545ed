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

:func:`write_text` is the one path by which every output file reaches disk.
"""

from __future__ import annotations

import os
from json.encoder import encode_basestring_ascii as _quote

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# O_BINARY keeps a Windows C runtime from translating newlines a second time.
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)


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


def write_text(path, text: str, newline: str | None = None) -> None:
    """Write ``text`` to ``path`` as ``open(path, "w", encoding="utf-8", newline=newline)`` would.

    As in text mode, ``newline=None`` turns each "\\n" into ``os.linesep``
    and ``""`` writes the text as it is.  One ``os.open`` and as many
    ``os.write`` calls as the system takes, without a file object.
    """
    sep = os.linesep if newline is None else newline or "\n"
    data = memoryview((text if sep == "\n" else text.replace("\n", sep)).encode("utf-8"))
    fd = os.open(path, _WRITE_FLAGS, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)
