"""reprolint core types: findings, the Rule protocol, and the registry.

A rule is a named invariant with a stable ``R00x`` code.  Rules are pure
functions of a :class:`LintContext` (one parsed module plus its pragma
table) yielding :class:`Finding` values; the runner applies per-line
suppressions afterwards, so rules never need to know about pragmas.

Adding a rule (see ``docs/dev.md``): subclass :class:`Rule`, pick the next
unused code (R003, the retired lock-discipline rule, stays unused),
decorate with :func:`register`, and commit one passing and one failing
fixture under ``tests/tools/fixtures/``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Union

from repro.tools.lint.pragmas import PragmaTable
from repro.utils.validation import ValidationError

__all__ = [
    "PRAGMA_CODE",
    "Finding",
    "LintContext",
    "Rule",
    "all_rules",
    "register",
    "select_rules",
]

#: Linter-level diagnostics (malformed pragmas, unparsable files).  Not a
#: registered rule and deliberately not suppressible: pragma hygiene is the
#: mechanism that keeps every other suppression honest.
PRAGMA_CODE = "R000"

_CODE_RE = re.compile(r"^R\d{3}$")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, anchored to a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def as_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }


@dataclass
class LintContext:
    """Everything a rule sees for one module."""

    path: str
    module: str
    source: str
    tree: ast.Module
    pragmas: PragmaTable

    def finding(
        self, code: str, where: Union[ast.AST, int], message: str
    ) -> Finding:
        if isinstance(where, int):
            line, col = where, 0
        else:
            line = getattr(where, "lineno", 1)
            col = getattr(where, "col_offset", 0)
        return Finding(path=self.path, line=line, col=col, code=code, message=message)


class Rule:
    """One named invariant.

    Class attributes document the rule for ``--list-rules`` and the JSON
    report: ``code`` (stable ``R00x`` identifier), ``name`` (kebab-case
    slug), ``description`` (one line), and ``contract`` (pointer to the
    prose contract the rule mechanizes, per ``docs/dev.md``).
    """

    code: str = ""
    name: str = ""
    description: str = ""
    contract: str = ""

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        raise NotImplementedError


_REGISTRY: Dict[str, Rule] = {}


def register(cls: type) -> type:
    """Class decorator adding a :class:`Rule` subclass to the registry."""
    rule = cls()
    if not _CODE_RE.match(rule.code) or rule.code == PRAGMA_CODE:
        raise ValueError(f"rule code {rule.code!r} is not a valid R00x code")
    if rule.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {rule.code}")
    _REGISTRY[rule.code] = rule
    return cls


def all_rules() -> List[Rule]:
    """Every registered rule, in code order."""
    # Importing the rule module populates the registry on first use.
    import repro.tools.lint.rules  # noqa: F401  (registration side effect)

    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def select_rules(select: Optional[Iterable[str]] = None) -> List[Rule]:
    """Resolve a ``--select`` list (or None for all rules) to rule objects."""
    rules = all_rules()
    if select is None:
        return rules
    codes = [c.strip().upper() for c in select if c.strip()]
    known = {rule.code for rule in rules}
    unknown = sorted(set(codes) - known)
    if unknown:
        raise ValidationError(
            f"unknown rule code(s) {', '.join(unknown)};"
            f" known rules: {', '.join(sorted(known))}"
        )
    wanted = set(codes)
    return [rule for rule in rules if rule.code in wanted]
