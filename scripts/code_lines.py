#!/usr/bin/env python3
"""Count the code lines of each module of a package, and their total.

A line counts when it holds part of a token other than a comment or a
docstring; blank lines, comment-only lines and docstrings (any statement
that is a string literal alone) do not count.  Defaults to src/locint:

    python3 scripts/code_lines.py [DIR_OR_FILE ...]
"""

import argparse
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# tokens that carry no code of their own
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold code."""
    tokens = [t for t in tokenize.generate_tokens(io.StringIO(source).readline)
              if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for k, tok in enumerate(tokens):
        if tok.type in LAYOUT:
            continue
        if (tok.type == tokenize.STRING
                and (k == 0 or tokens[k - 1].type in STATEMENT_START)
                and k + 1 < len(tokens) and tokens[k + 1].type == tokenize.NEWLINE):
            continue  # a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="*", default=[str(ROOT / "src" / "locint")])
    args = parser.parse_args()
    files = []
    for p in map(Path, args.paths):
        files += sorted(p.glob("*.py")) if p.is_dir() else [p]
    total = 0
    for f in files:
        n = code_lines(f.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d} {f.name}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
