"""Count the code lines of Python sources: no blank lines, comments or docstrings.

A line counts when it holds a token other than a comment, a line break,
an indent or a docstring.  A docstring is a string that forms a whole
statement on its own, as a module, class or function docstring does.

    python tools/code_lines.py src/relkin          # one total
    python tools/code_lines.py -v src/relkin       # and one count per file
"""

from __future__ import annotations

import argparse
import io
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


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    lines: set[int] = set()
    previous = tokenize.NEWLINE
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            if tok.type != tokenize.COMMENT and tok.type != tokenize.NL:
                previous = tok.type
            continue
        following = next((t.type for t in tokens[i + 1 :] if t.type != tokenize.COMMENT), None)
        docstring = (
            tok.type == tokenize.STRING
            and previous in _STATEMENT_START
            and following in (tokenize.NEWLINE, tokenize.ENDMARKER)
        )
        if not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
        previous = tok.type
    return len(lines)


def count(paths) -> dict[Path, int]:
    """Code lines of every ``.py`` file under ``paths`` (files or directories), by file."""
    files = []
    for path in map(Path, paths):
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return {f: code_lines(f.read_text(encoding="utf-8")) for f in files}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+")
    parser.add_argument("-v", "--verbose", action="store_true", help="one line per file")
    args = parser.parse_args(argv)
    counts = count(args.paths)
    if args.verbose:
        for path, lines in counts.items():
            print(f"{lines:6d}  {path}")
    print(sum(counts.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
