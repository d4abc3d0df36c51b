"""reprolint — AST-based static analysis for the repo's own invariants.

The repo's correctness rests on contracts that generic linters cannot see:
every random draw must flow from an explicit ``numpy`` Generator (the RNG
stream-order contract), kernel modules must not leak float64 into the
precision tiers, declared cache attributes may only be touched under their
lock, and ``async def`` bodies in the serving layer must never block the
event loop.  Each contract is one named rule (R001–R004) with a fixture-proven failure mode; ``docs/dev.md`` maps every
rule to the prose contract it enforces.

Usage::

    python -m repro lint [--format json] [--select R001,R003] [paths]

    from repro.tools.lint import lint_paths
    findings, files = lint_paths(["src"])

Per-line suppressions carry a mandatory reason string::

    cache = self._eff_cache  # reprolint: disable=R003 -- double-checked read

and malformed pragmas (unknown codes, missing reasons) are themselves
findings (``R000``) so suppressions cannot rot silently.
"""

from repro.tools.lint.base import Finding, LintContext, Rule, all_rules, select_rules
from repro.tools.lint.pragmas import PragmaTable
from repro.tools.lint.runner import lint_paths, lint_source, run_lint

__all__ = [
    "Finding",
    "LintContext",
    "PragmaTable",
    "Rule",
    "all_rules",
    "lint_paths",
    "lint_source",
    "run_lint",
    "select_rules",
]
