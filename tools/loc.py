"""Count the code-only lines of the ``sgcert`` package.

A line counts when it holds a token other than a comment, a docstring or
layout (blank lines, newlines, indentation).  A docstring is any string
literal that stands alone as a statement.  Prints one count per module,
the total for ``src/sgcert``, and the total without ``oracles``, which is
exempt because it is the independent check.

    python3 tools/loc.py            # this tree
    python3 tools/loc.py ../parent  # another source checkout

Only the standard library is used.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}
_LAYOUT = _STATEMENT_START | {tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of lines of ``path`` that hold code."""
    with open(path, "rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline) if t.type not in _SKIPPED]
    lines = set()
    for k, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        if (tok.type == tokenize.STRING
                and (k == 0 or tokens[k - 1].type in _STATEMENT_START)
                and tokens[k + 1].type == tokenize.NEWLINE):
            continue  # a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]) if args else Path(__file__).resolve().parents[1]
    counts = {p.stem: code_lines(p) for p in sorted((root / "src" / "sgcert").glob("*.py"))}
    for name, count in counts.items():
        print(f"{name:12s} {count:6,d}")
    total = sum(counts.values())
    print(f"{'total':12s} {total:6,d}")
    print(f"{'no oracles':12s} {total - counts.get('oracles', 0):6,d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
