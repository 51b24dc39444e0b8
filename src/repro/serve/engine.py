"""Blocking execution engine behind the server's batcher.

One :class:`ExecutionEngine` per server process owns the shared state
every request benefits from: a single process-wide
:class:`~repro.core.plan_cache.PlanCache` (so repeat masks replay their
compiled plans no matter which connection sent them) and one execution
backend — by default the in-process simulator, or a warm persistent
:class:`~repro.runtime.supervisor.GangSupervisor` gang under
``backend="supervised"``.

``execute`` is synchronous and runs inside the server's thread pool;
the supervisor's dispatch lock serializes gang ops submitted from
concurrent batches, so ``max_inflight > 1`` is safe on every backend.
Result arrays are base64-encoded here, on that pool's thread, as bytes
(:func:`~repro.serve.protocol.encode_result`): the event loop only
splices them into the response line.
"""

from __future__ import annotations

from typing import Sequence

from ..core.api import pack, ranking, unpack
from ..core.multi import pack_many
from ..core.plan import plan_key
from ..core.plan_cache import PlanCache
from ..core.schemes import PackConfig
from ..hpf.grid import GridLayout
from ..machine.spec import CM5
from ..runtime.base import get_backend
from .protocol import Request, encode_result, error_body

__all__ = ["ExecutionEngine"]


class ExecutionEngine:
    """Executes parsed requests (solo or coalesced) over shared state."""

    def __init__(
        self,
        backend: str = "sim",
        spec=None,
        plan_cache: PlanCache | None = None,
        plan_cache_capacity: int = 128,
        timeout: float | None = None,
        transport: str | None = None,
    ):
        self.backend_name = backend if isinstance(backend, str) else "custom"
        self._owns_backend = False
        if backend == "supervised":
            # A private supervisor (not the process-wide default): the
            # server's drain close()s it, which must not retire a gang
            # other code in the process might still be using.
            from ..runtime.supervisor import GangSupervisor

            self.backend = GangSupervisor(timeout=timeout, transport=transport)
            self._owns_backend = True
        else:
            self.backend = get_backend(backend)
        self.spec = spec if spec is not None else CM5
        self.plan_cache = (
            plan_cache if plan_cache is not None
            else PlanCache(capacity=plan_cache_capacity)
        )

    # ------------------------------------------------------------- lifecycle
    def warm(self, nprocs: int) -> None:
        """Pre-fork the gang (supervised backend) so the first request
        dispatches warm; a no-op on backends without persistent workers."""
        warm = getattr(self.backend, "warm", None)
        if warm is not None:
            warm(nprocs)

    def close(self) -> None:
        if self._owns_backend:
            self.backend.close()

    # ------------------------------------------------------------- execution
    def execute(self, reqs: Sequence[Request]) -> list[dict]:
        """Run a compatible group; returns one response body per request,
        in order.  Never raises: failures become error bodies (a gang
        failure fails the whole group — the requests shared one run)."""
        try:
            if len(reqs) > 1 and reqs[0].op == "pack":
                return self._gang_pack(reqs)
            if len(reqs) > 1 and reqs[0].op == "ranking":
                return self._ranking_fanout(reqs)
            return [self._solo(r) for r in reqs]
        except Exception as exc:  # pragma: no cover - backstop
            code = "bad_request" if isinstance(exc, ValueError) else "internal"
            return [error_body(r.id, code, str(exc)) for r in reqs]

    # One coalesced gang: k arrays, one mask, one ranking, one plan entry
    # (shared with solo pack — same op="pack" key).
    def _gang_pack(self, reqs: Sequence[Request]) -> list[dict]:
        r0 = reqs[0]
        try:
            plan = self._pack_plan_label(r0)
            vectors, _run = pack_many(
                [r.array for r in reqs],
                r0.mask,
                r0.grid,
                block=r0.block,
                scheme=r0.scheme,
                spec=self.spec,
                validate=r0.validate,
                plan_cache=self.plan_cache,
                backend=self.backend,
            )
        except Exception as exc:
            code = "bad_request" if isinstance(exc, ValueError) else "internal"
            return [error_body(r.id, code, str(exc)) for r in reqs]
        return [
            {
                "id": r.id,
                "ok": True,
                "op": "pack",
                "result": encode_result(v),
                "size": int(v.size),
                "plan": plan,
            }
            for r, v in zip(reqs, vectors)
        ]

    # Identical ranking requests: rank once, fan the result out.
    def _ranking_fanout(self, reqs: Sequence[Request]) -> list[dict]:
        body = self._solo(reqs[0])
        out = [dict(body, id=r.id) for r in reqs]
        return out

    def _solo(self, req: Request) -> dict:
        common = dict(
            block=req.block,
            scheme=req.scheme,
            spec=self.spec,
            validate=req.validate,
            backend=self.backend,
            plan_cache=self.plan_cache,
        )
        try:
            if req.op == "pack":
                res = pack(
                    req.array, req.mask, req.grid,
                    redistribute=req.redistribute,
                    vector=req.vector,
                    **common,
                )
                result = res.vector
            elif req.op == "unpack":
                res = unpack(
                    req.vector, req.mask, req.field_array, req.grid, **common,
                )
                result = res.array
            else:  # ranking
                common.pop("scheme")
                res = ranking(req.mask, req.grid, scheme=req.scheme, **common)
                result = res.ranks
        except Exception as exc:
            code = "bad_request" if isinstance(exc, ValueError) else "internal"
            return error_body(req.id, code, str(exc))
        return {
            "id": req.id,
            "ok": True,
            "op": req.op,
            "result": encode_result(result),
            "size": int(res.size),
            "plan": (res.plan_info or {}).get("cache"),
        }

    def _pack_plan_label(self, r0: Request) -> str:
        """hit/miss label for a coalesced gang, probed before the run with
        exactly the key :func:`~repro.core.multi.pack_many` will use."""
        layout = GridLayout.create(r0.mask.shape, r0.grid, r0.block)
        config = PackConfig(scheme=r0.scheme)
        key = plan_key(
            "pack", layout, config, r0.mask,
            n_result=None, spec=self.spec.name,
            time_domain=self.backend.time_domain,
        )
        return "hit" if key in self.plan_cache else "miss"
