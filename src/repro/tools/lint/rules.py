"""The rule catalogue: R001, R002 and R004, one class per load-bearing invariant.

Every rule's ``contract`` attribute names the prose contract it
mechanizes; ``docs/dev.md`` is the companion chapter.  The fixture corpus
under ``tests/tools/fixtures/`` holds a known-good and at least one
known-bad snippet per rule — a rule change that stops flagging its own
failure mode fails the suite.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, Tuple

from repro.tools.lint.base import Finding, LintContext, Rule, register
from repro.tools.lint.visitors import build_alias_map, qualified_name

__all__ = [
    "NoGlobalRng",
    "DtypeTierHygiene",
    "AsyncPurity",
]


def _in_scope(module: str, prefixes: Tuple[str, ...]) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".") for prefix in prefixes
    )


# --------------------------------------------------------------------- #
# R001 — no global RNG
# --------------------------------------------------------------------- #
@register
class NoGlobalRng(Rule):
    """Every draw must flow from an explicit ``numpy`` Generator.

    The RNG stream-order contract (docs/performance.md) assigns every
    stochastic subcircuit a documented SeedSequence substream; a single
    ``np.random.<fn>()`` convenience call draws from the hidden global
    stream instead, breaking run-to-run reproducibility *and* every
    bit-identity pin downstream of it.  Constructing generators
    (``default_rng``/``SeedSequence``/bit generators) is the sanctioned
    surface; drawing through the module is not.
    """

    code = "R001"
    name = "no-global-rng"
    description = "np.random convenience calls / np.random.seed outside Generator construction"
    contract = "docs/performance.md: RNG stream-order contract"

    #: Construction surfaces of the explicit-Generator API — the only
    #: ``numpy.random`` attributes code may call.
    ALLOWED: FrozenSet[str] = frozenset(
        {
            "default_rng",
            "Generator",
            "SeedSequence",
            "BitGenerator",
            "PCG64",
            "PCG64DXSM",
            "Philox",
            "SFC64",
            "MT19937",
        }
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        aliases = build_alias_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            qual = qualified_name(node.func, aliases)
            if qual is None or not qual.startswith("numpy.random."):
                continue
            attr = qual.rsplit(".", 1)[1]
            if attr in self.ALLOWED:
                continue
            if attr == "seed":
                message = (
                    "np.random.seed reseeds the hidden global stream; seed an"
                    " explicit Generator (repro.utils.rng.as_rng/spawn_rngs)"
                    " instead"
                )
            elif attr == "RandomState":
                message = (
                    "np.random.RandomState is the legacy generator; construct"
                    " np.random.default_rng(...) so draws follow the"
                    " stream-order contract"
                )
            else:
                message = (
                    f"np.random.{attr}(...) draws from the hidden global"
                    " stream; every draw must flow from an explicit Generator"
                    " (the RNG stream-order contract)"
                )
            yield ctx.finding(self.code, node, message)


# --------------------------------------------------------------------- #
# R002 — dtype-tier hygiene in the kernel modules
# --------------------------------------------------------------------- #
@register
class DtypeTierHygiene(Rule):
    """Kernel modules must not leak float64 into the precision tiers.

    The float32 tier holds only because every array a kernel touches
    stays in the tier dtype (the PR-9 ``clamp_visible``/``hidden_field``
    leak class).  Three known upcast patterns are flagged in the kernel
    modules: ``np.float64(...)`` scalars (NEP 50 upcasts the whole
    expression), ``.astype(float)`` (a silent float64 spelled as the
    builtin), and creation calls (``np.zeros``-family / ``np.asarray``)
    without an explicit ``dtype=``.  Host-side double precision is often
    the *policy* (gradients, log-weights) — spell it ``np.float64`` /
    ``dtype=np.float64`` so the intent is explicit and greppable.
    """

    code = "R002"
    name = "dtype-tier-hygiene"
    description = "float64-upcast patterns (np.float64 scalars, astype(float), creation without dtype=) in kernel modules"
    contract = "docs/performance.md: The precision policy"

    #: Modules holding tier-dtype kernels; everything else (datasets,
    #: experiments, eval, serve) is host-side float64 by design.
    SCOPE: Tuple[str, ...] = ("repro.ising", "repro.core", "repro.rbm", "repro.analog")

    #: ``np.zeros``-family: default to float64 when no ``dtype=`` is given.
    DEFAULTING = frozenset({"numpy.zeros", "numpy.ones", "numpy.empty", "numpy.full"})
    #: Dtype-inferring conversions: silently adopt whatever came in.
    INFERRING = frozenset({"numpy.asarray", "numpy.array"})

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if not _in_scope(ctx.module, self.SCOPE):
            return
        aliases = build_alias_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "astype"
                and node.args
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id == "float"
            ):
                yield ctx.finding(
                    self.code,
                    node,
                    "astype(float) upcasts to float64; name the dtype"
                    " explicitly (the tier dtype in kernel code, np.float64"
                    " where host-side double precision is the policy)",
                )
                continue
            qual = qualified_name(func, aliases)
            if qual is None:
                continue
            if qual == "numpy.float64":
                yield ctx.finding(
                    self.code,
                    node,
                    "np.float64(...) produces a float64 scalar that upcasts"
                    " tier arithmetic (NEP 50); use a Python float or the"
                    " tier dtype",
                )
                continue
            short = "np." + qual.rsplit(".", 1)[-1]
            has_dtype = any(kw.arg == "dtype" for kw in node.keywords)
            if qual in self.DEFAULTING and not has_dtype:
                yield ctx.finding(
                    self.code,
                    node,
                    f"{short}(...) without an explicit dtype= defaults to"
                    " float64; pass the tier dtype (or dtype=np.float64 where"
                    " double precision is the policy)",
                )
            elif qual in self.INFERRING and not has_dtype:
                yield ctx.finding(
                    self.code,
                    node,
                    f"{short}(...) without an explicit dtype= adopts the"
                    " input's dtype and can silently change the precision"
                    " tier; make the dtype explicit",
                )


# --------------------------------------------------------------------- #
# R004 — async purity in the serving layer
# --------------------------------------------------------------------- #
@register
class AsyncPurity(Rule):
    """``async def`` bodies in ``repro.serve`` must never block the loop.

    The micro-batcher's latency contract (and the PR-8 race class) hinge
    on the event loop staying responsive: one synchronous sleep, file
    read, or subprocess wait inside a coroutine stalls every in-flight
    request.  Synchronous helpers are fine as nested ``def``s (dispatched
    via ``run_in_executor``) — the rule only looks at code whose innermost
    enclosing function is ``async``.
    """

    code = "R004"
    name = "async-purity"
    description = "blocking calls (time.sleep, sync I/O, subprocess) inside async def in repro.serve"
    contract = "docs/api.md §7 / docs/performance.md: serving layer"

    SCOPE: Tuple[str, ...] = ("repro.serve",)

    FORBIDDEN: Dict[str, str] = {
        "time.sleep": "blocks the event loop; use 'await asyncio.sleep(...)'",
        "open": "synchronous file I/O blocks the event loop; use a thread"
        " executor (loop.run_in_executor)",
        "io.open": "synchronous file I/O blocks the event loop; use a thread"
        " executor (loop.run_in_executor)",
        "os.system": "blocks the event loop; use asyncio.create_subprocess_shell",
        "os.popen": "blocks the event loop; use asyncio.create_subprocess_shell",
        "socket.socket": "raw blocking sockets stall the loop; use asyncio"
        " streams (open_connection/start_server)",
        "socket.create_connection": "raw blocking sockets stall the loop; use"
        " asyncio streams (open_connection/start_server)",
    }

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if not _in_scope(ctx.module, self.SCOPE):
            return
        aliases = build_alias_map(ctx.tree)
        yield from self._walk(ctx, ctx.tree, aliases, in_async=False)

    def _walk(
        self, ctx: LintContext, node: ast.AST, aliases, *, in_async: bool
    ) -> Iterator[Finding]:
        if isinstance(node, ast.AsyncFunctionDef):
            for child in ast.iter_child_nodes(node):
                yield from self._walk(ctx, child, aliases, in_async=True)
            return
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            # A nested sync def is not coroutine code — it may legitimately
            # block when dispatched to an executor.
            for child in ast.iter_child_nodes(node):
                yield from self._walk(ctx, child, aliases, in_async=False)
            return
        if isinstance(node, ast.Call) and in_async:
            qual = qualified_name(node.func, aliases)
            if qual is not None:
                why = self.FORBIDDEN.get(qual)
                if why is None and qual.startswith("subprocess."):
                    why = (
                        "synchronous subprocess call blocks the event loop;"
                        " use asyncio.create_subprocess_exec"
                    )
                if why is not None:
                    yield ctx.finding(
                        self.code, node, f"{qual}(...) inside 'async def': {why}"
                    )
        for child in ast.iter_child_nodes(node):
            yield from self._walk(ctx, child, aliases, in_async=in_async)
