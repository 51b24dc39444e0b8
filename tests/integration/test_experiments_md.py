"""EXPERIMENTS.md quotes RESULTS.md: its measured tables are not retyped.

Every number in a measured column of the prose tables under Table II,
Table I, Figure 3/4/5, PRS and Scaling must occur in the matching
``## <section>`` block of the regenerated RESULTS.md.  Columns headed
``paper…`` (the published values) and ``winner`` (a label) are skipped.
A change that regenerates RESULTS.md updates these tables with it.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: EXPERIMENTS.md heading prefix -> RESULTS.md section name.  "Table II"
#: comes before "Table I", which is its prefix.
SECTIONS = (
    ("Table II", "table2"),
    ("Table I", "table1"),
    ("Figure 3", "fig3"),
    ("Figure 4", "fig4"),
    ("Figure 5", "fig5"),
    ("PRS", "prs"),
    ("Scaling", "scaling"),
)

NUMBER = re.compile(r"\d+(?:\.\d+)?|inf")


def _sections(text: str) -> dict[str, str]:
    """``## heading`` -> the text up to the next ``## `` heading."""
    parts = re.split(r"^## ", text, flags=re.M)[1:]
    return {p.split("\n", 1)[0].strip(): p for p in parts}


def _measured_cells(section: str):
    """``(header, cell)`` for every data cell of every table in a section,
    minus the ``paper…`` and ``winner`` columns."""
    rows = [line for line in section.splitlines() if line.startswith("|")]
    header = None
    for line in rows:
        cells = [c.strip() for c in line.strip("|").split("|")]
        if set("".join(cells)) <= set("-: "):
            continue  # the separator row
        if header is None or len(cells) != len(header):
            header = cells
            continue
        for head, cell in zip(header, cells):
            if head.lower().startswith("paper") or head.lower() == "winner":
                continue
            yield head, cell


def _quoted_tables():
    experiments = _sections((ROOT / "EXPERIMENTS.md").read_text())
    results = _sections((ROOT / "RESULTS.md").read_text())
    for heading, section in experiments.items():
        for prefix, name in SECTIONS:
            if heading.startswith(prefix):
                yield heading, section, name, results[name]
                break


def test_every_section_is_found():
    names = [name for _, _, name, _ in _quoted_tables()]
    assert sorted(names) == sorted(name for _, name in SECTIONS)


def test_measured_numbers_occur_in_results():
    missing, checked = [], 0
    for heading, section, name, result in _quoted_tables():
        known = set(NUMBER.findall(result))
        for head, cell in _measured_cells(section):
            for number in NUMBER.findall(cell):
                checked += 1
                if number not in known:
                    missing.append(f"{heading} [{head}] {cell!r}: {number} "
                                   f"not in RESULTS.md ## {name}")
    assert checked > 150
    assert not missing, "\n".join(missing)
