"""The paper's primary contribution: parallel PACK/UNPACK.

Layering:

* :mod:`repro.core.ranking` — the Section 5 parallel ranking algorithm
  (local scan → per-dimension prefix-reduction-sum steps → final base-rank
  collapse);
* :mod:`repro.core.schemes` — the SSS / CSS / CMS scheme definitions and
  the run configuration;
* :mod:`repro.core.costs` — the Section 6.4 local-computation cost model
  used to charge simulated time;
* :mod:`repro.core.storage` — per-scheme bookkeeping of the selected
  elements (what the "storage scheme" in the paper's sense stores);
* :mod:`repro.core.messages` — pair vs segment message composition and
  decomposition;
* :mod:`repro.core.pack` / :mod:`repro.core.unpack` — the SPMD programs;
* :mod:`repro.core.multi` — gang PACK (k arrays, one mask, one ranking);
* :mod:`repro.core.count` — the COUNT intrinsic;
* :mod:`repro.core.redistribution` — the Section 6.3 cyclic-to-block
  pre-passes (Red.1 / Red.2) and the UNPACK variant the paper rules out;
* :mod:`repro.core.padding` — arbitrary shapes via mask-false padding;
* :mod:`repro.core.plan` / :mod:`repro.core.plan_cache` — the
  plan/execute split: compile the mask-dependent bookkeeping into a
  serializable :class:`~repro.core.plan.Plan`, cache it under a
  geometry + mask-fingerprint key, replay it on repeat calls;
* :mod:`repro.core.api` — host-level convenience API (build machine,
  scatter, run, gather, validate).
"""

from .api import PackResult, RankingResult, UnpackResult, pack, ranking, unpack
from .count import count, count_program
from .multi import PackManyResult, pack_many, pack_many_program
from .plan import Plan, PlanKey, mask_fingerprint, plan_key
from .plan_cache import (
    PlanCache,
    PlanCacheStats,
    default_plan_cache,
    reset_default_plan_cache,
    resolve_plan_cache,
)
from .ranking import LocalRanking, ranking_program
from .redistribution import pack_red1_program, pack_red2_program
from .schemes import PackConfig, Scheme

__all__ = [
    "LocalRanking",
    "PackConfig",
    "PackManyResult",
    "PackResult",
    "Plan",
    "PlanCache",
    "PlanCacheStats",
    "PlanKey",
    "RankingResult",
    "Scheme",
    "UnpackResult",
    "count",
    "count_program",
    "default_plan_cache",
    "mask_fingerprint",
    "pack",
    "pack_many",
    "pack_many_program",
    "pack_red1_program",
    "pack_red2_program",
    "plan_key",
    "ranking",
    "ranking_program",
    "reset_default_plan_cache",
    "resolve_plan_cache",
    "unpack",
]
