"""Every documented ``python -m repro ...`` command parses.

The README, the docs, the CI workflow and the verify skill quote CLI
command lines; each must still be accepted by the real argument parser
(:func:`repro.__main__.build_parser`), so a renamed verb or flag fails
here instead of in a reader's shell.  Commands with placeholders (``OP``,
``$OP``, ``${{ matrix.procs }}``, ``{a,b}`` synopses) are skipped; a
trailing ``# comment`` or ``&`` is dropped; a command continued with
``\\`` or wrapped inside an inline code span is joined first.
"""

import re
import shlex
from pathlib import Path

import pytest

from repro.__main__ import build_parser

ROOT = Path(__file__).resolve().parents[2]
SOURCES = (
    [ROOT / "README.md", ROOT / ".github" / "workflows" / "ci.yml"]
    + sorted((ROOT / "docs").glob("*.md"))
    + sorted((ROOT / ".claude" / "skills").glob("**/*.md"))
)
COMMAND = re.compile(r"python -m repro\s")


def _commands(path: Path):
    """``(where, argument string)`` for each documented command."""
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        m = COMMAND.search(line)
        if m is None:
            continue
        where = f"{path.relative_to(ROOT)}:{i + 1}"
        rest = line[m.end():]
        if line[:m.start()].count("`") % 2:
            # Inline code, possibly wrapped onto the next lines.
            j = i
            while "`" not in rest and j + 1 < len(lines):
                j += 1
                rest += " " + lines[j].strip()
            yield where, rest.split("`", 1)[0]
            continue
        j = i
        while rest.rstrip().endswith("\\") and j + 1 < len(lines):
            j += 1
            rest = rest.rstrip()[:-1] + " " + lines[j].strip()
        rest = re.sub(r"\s#.*$", "", rest).rstrip()
        yield where, rest.removesuffix("&")


def _documented():
    for path in SOURCES:
        yield from _commands(path)


def _placeholder(tokens) -> bool:
    return any(t in ("OP", "$OP") or t.startswith(("$", "{"))
               for t in tokens)


DOCUMENTED = [(where, shlex.split(rest)) for where, rest in _documented()]


def test_commands_are_found():
    # README, docs, CI and the skill quote dozens; a broken scan finds few.
    assert len(DOCUMENTED) >= 60
    assert sum(not _placeholder(t) for _, t in DOCUMENTED) >= 50


@pytest.mark.parametrize(
    "argv", [t for _, t in DOCUMENTED if not _placeholder(t)],
    ids=[w for w, t in DOCUMENTED if not _placeholder(t)],
)
def test_documented_command_parses(argv):
    build_parser().parse_args(argv)
