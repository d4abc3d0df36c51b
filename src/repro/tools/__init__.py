"""Developer tooling for the reproduction (not part of the paper surface).

``repro.tools.lint`` (*reprolint*) is the AST-based invariant checker that
mechanically enforces the repo's load-bearing contracts — the RNG
stream-order contract, the precision-tier policy and async purity in the
serving layer.  See ``docs/dev.md`` for the rule catalogue and
``python -m repro lint --list-rules`` for the live registry.
"""

from repro.tools.lint import Finding, all_rules, lint_paths, lint_source

__all__ = ["Finding", "all_rules", "lint_paths", "lint_source"]
