"""The fuzz loop and the regression corpus.

``fuzz`` drives *cases* seeded draws through the oracle, shrinks every
failure, and returns a :class:`FuzzReport` whose failures carry the
original case, the minimized case, and a paste-ready repro snippet.

The corpus (``tests/conformance/corpus/*.json``) pins every bug the fuzzer
has found: each file stores one minimized case plus a one-line description
of the bug it used to trigger.  ``replay_corpus`` re-runs all of them —
wired into the tier-1 tests so a fixed bug can never silently return.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .cases import ConformanceCase
from .oracle import CaseOutcome, run_case
from .generator import generate_cases
from .shrink import shrink_case

__all__ = [
    "FuzzFailure",
    "FuzzReport",
    "fuzz",
    "load_corpus_case",
    "replay_corpus",
    "save_corpus_case",
]


@dataclass(frozen=True)
class FuzzFailure:
    """One fuzzer-found bug: where it came from and its minimized repro."""

    index: int
    case: ConformanceCase
    outcome: CaseOutcome
    shrunk: ConformanceCase
    shrunk_outcome: CaseOutcome
    shrink_evals: int

    def report(self) -> str:
        return (
            f"case #{self.index}: {self.outcome}\n"
            f"  original:  {self.case.describe()}\n"
            f"  minimized: {self.shrunk.describe()}"
            f"  ({self.shrink_evals} shrink evals -> {self.shrunk_outcome})\n"
            f"--- repro snippet ---\n{self.shrunk.snippet()}"
        )


@dataclass(frozen=True)
class FuzzReport:
    """Outcome of one fuzz run."""

    seed: int
    cases: int
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        head = (
            f"conformance fuzz: {self.cases} cases, seed {self.seed}: "
            f"{len(self.failures)} failure(s)"
        )
        if self.ok:
            return head
        return head + "\n\n" + "\n\n".join(f.report() for f in self.failures)


def fuzz(
    seed: int = 0,
    cases: int = 100,
    max_shrink: int = 200,
    progress: Callable[[int, int, int], None] | None = None,
) -> FuzzReport:
    """Differentially fuzz the library against the serial reference.

    ``progress(done, total, failures)`` (if given) is called after every
    case — the CLI uses it for a heartbeat on long runs.
    """
    failures: list[FuzzFailure] = []
    drawn = generate_cases(seed, cases)
    for i, case in enumerate(drawn):
        outcome = run_case(case)
        if not outcome.ok:
            shrunk, evals = shrink_case(case, max_shrink=max_shrink)
            failures.append(
                FuzzFailure(
                    index=i, case=case, outcome=outcome,
                    shrunk=shrunk, shrunk_outcome=run_case(shrunk),
                    shrink_evals=evals,
                )
            )
        if progress is not None:
            progress(i + 1, cases, len(failures))
    return FuzzReport(seed=seed, cases=cases, failures=failures)


# ---------------------------------------------------------------- corpus
def save_corpus_case(
    path: str | Path, case: ConformanceCase, bug: str
) -> Path:
    """Write one corpus entry: the minimized case plus its bug description."""
    path = Path(path)
    entry = {"bug": bug, "case": case.to_dict()}
    path.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n")
    return path


def load_corpus_case(path: str | Path) -> tuple[ConformanceCase, str]:
    """Read a corpus entry back: ``(case, bug description)``."""
    data = json.loads(Path(path).read_text())
    if "case" not in data:
        raise ValueError(f"{path}: corpus entry has no 'case' field")
    return ConformanceCase.from_dict(data["case"]), str(data.get("bug", ""))


def replay_corpus(
    directory: str | Path, backend: str = "sim", plan_cache=None
) -> list[tuple[Path, str, CaseOutcome]]:
    """Re-run every ``*.json`` corpus entry under ``directory``.

    Returns ``(path, bug, outcome)`` per entry, sorted by filename, so the
    caller can assert all outcomes are ``ok`` (the tier-1 regression test)
    or print a table (the CLI).  ``backend`` replays the corpus on another
    execution backend.
    ``plan_cache`` is forwarded to every case — replaying the corpus twice
    with one shared :class:`~repro.core.plan_cache.PlanCache` exercises
    plan compilation on the first pass and plan replay on the second,
    under the same exact-comparison oracle.
    """
    directory = Path(directory)
    results: list[tuple[Path, str, CaseOutcome]] = []
    for path in sorted(directory.glob("*.json")):
        case, bug = load_corpus_case(path)
        results.append(
            (path, bug, run_case(case, backend=backend, plan_cache=plan_cache))
        )
    return results
