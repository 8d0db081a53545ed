"""Count source lines of Python code, per file and in total.

A source line is a line that holds at least one token of code: blank
lines, comment lines and docstrings (a string literal standing alone as
a statement) do not count.  Counting goes through ``tokenize``, so a
``#`` inside a string is not a comment.

Usage:
    python tools/sloc.py [DIR ...]    (default: src/sembit)
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def count_lines(path: Path) -> int:
    """Lines of ``path`` that hold code, docstrings and comments excluded."""
    with open(path, "rb") as fh:
        skip = (tokenize.NL, tokenize.COMMENT)
        tokens = [t for t in tokenize.tokenize(fh.readline) if t.type not in skip]
    lines: set[int] = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        bare_string = (
            tok.type == tokenize.STRING
            and tokens[i - 1].type in _STATEMENT_START
            and tokens[i + 1].type == tokenize.NEWLINE
        )
        if not bare_string:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    roots = [Path(a) for a in argv] or [Path(__file__).resolve().parent.parent / "src" / "sembit"]
    total = 0
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            n = count_lines(path)
            total += n
            print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
