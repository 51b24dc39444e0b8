"""Differential conformance testing of the parallel PACK/UNPACK library.

The paper's algorithms must agree with the serial Fortran 90 semantics
(:mod:`repro.serial.reference`) for *every* legal configuration — any rank
``d``, any per-dimension BLOCK / CYCLIC / CYCLIC(k) distribution, any mask
density including the degenerate all-false / all-true extremes, zero-length
extents and ragged result-vector layouts.  Hand-written tests sample that
space; this package sweeps it:

* :mod:`~repro.conformance.cases` — a serializable configuration point
  (:class:`ConformanceCase`) plus input materialization and a
  self-contained repro snippet;
* :mod:`~repro.conformance.generator` — seeded random case draws covering
  the whole configuration space;
* :mod:`~repro.conformance.oracle` — runs one case and checks it against
  the serial reference plus structural invariants (rank permutation
  validity, conservation of selected elements, field passthrough,
  pack-unpack round-trip identity);
* :mod:`~repro.conformance.shrink` — minimizes a failing case (shrink
  dims, shrink P, simplify distributions, sparsify the mask) so the repro
  is small enough to read;
* :mod:`~repro.conformance.runner` — the fuzz loop, corpus persistence and
  corpus replay (``tests/conformance/corpus/*.json`` pins every bug the
  fuzzer has found).

Driven by ``python -m repro conform``; see ``docs/conformance.md``.
"""

from .cases import ConformanceCase
from .generator import draw_case, generate_cases
from .oracle import CaseOutcome, cross_check_case, run_case
from .runner import FuzzReport, fuzz, load_corpus_case, replay_corpus, save_corpus_case
from .shrink import shrink_case

__all__ = [
    "CaseOutcome",
    "ConformanceCase",
    "FuzzReport",
    "cross_check_case",
    "draw_case",
    "fuzz",
    "generate_cases",
    "load_corpus_case",
    "replay_corpus",
    "run_case",
    "save_corpus_case",
    "shrink_case",
]
