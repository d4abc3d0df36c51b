"""Pragma parsing: suppressions and module overrides.

Pragmas are ordinary ``#`` comments addressed to the linter.  They are
extracted with :mod:`tokenize` (never by scanning raw lines), so pragma
syntax quoted inside strings and docstrings — like the examples below — is
inert.  Two directives exist:

``# reprolint: disable=R001[,R002] -- <reason>``
    Suppress the named rules on this line.  The reason string is
    mandatory: a suppression is a reviewed exception to a contract, and
    the justification must travel with the code.

``# reprolint: module=<dotted.name>``
    Override the module identity derived from the file path.  Scoped
    rules (R002's kernel modules, R004's serving layer) use the module
    name; the fixture corpus uses this to place a snippet in scope.

Malformed pragmas — unknown directives, bad rule codes, missing reasons —
are reported as ``R000`` findings, which cannot themselves be suppressed:
pragma hygiene is how the suppression budget stays honest.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["Disable", "PragmaTable"]

_PRAGMA_RE = re.compile(r"#\s*reprolint\s*:\s*(?P<body>.*\S)?\s*$")
_CODE_RE = re.compile(r"^R\d{3}$")
_MODULE_RE = re.compile(r"^[A-Za-z_][\w]*(\.[A-Za-z_]\w*)*$")


@dataclass(frozen=True)
class Disable:
    """One per-line suppression: the rule codes it silences and why."""

    line: int
    codes: Tuple[str, ...]
    reason: str


@dataclass
class PragmaTable:
    """All pragmas of one module, indexed for the rules and the runner."""

    disables: Dict[int, Disable] = field(default_factory=dict)
    module_override: Optional[str] = None
    errors: List[Tuple[int, str]] = field(default_factory=list)

    @classmethod
    def parse(cls, source: str) -> "PragmaTable":
        table = cls()
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
        except (tokenize.TokenError, IndentationError, SyntaxError):
            # An unparsable file is reported by the runner; any pragmas we
            # could not tokenize are moot because no rule runs either.
            return table
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _PRAGMA_RE.search(token.string)
            if match is None:
                continue
            table._parse_directive(token.start[0], match.group("body") or "")
        return table

    def _parse_directive(self, line: int, body: str) -> None:
        directive, separator, reason = body.partition(" -- ")
        directive = directive.strip()
        reason = reason.strip()
        if not directive:
            self.errors.append((line, "empty reprolint pragma"))
            return
        if directive.startswith("disable="):
            if not separator or not reason:
                self.errors.append(
                    (line, "disable pragma is missing its mandatory"
                     " ' -- <reason>' string")
                )
                return
            codes = tuple(c.strip() for c in directive[len("disable="):].split(","))
            bad = [c for c in codes if not _CODE_RE.match(c)]
            if bad or not codes:
                self.errors.append(
                    (line, f"disable pragma names invalid rule codes: {bad}")
                )
                return
            self.disables[line] = Disable(line=line, codes=codes, reason=reason)
            return
        if directive.startswith("module="):
            name = directive[len("module="):]
            if not _MODULE_RE.match(name):
                self.errors.append((line, f"invalid module override {name!r}"))
                return
            self.module_override = name
            return
        self.errors.append(
            (line, f"unknown reprolint directive {directive.split('=')[0]!r}"
             " (known: disable=, module=)")
        )

    def is_suppressed(self, code: str, line: int) -> bool:
        """Whether a ``code`` finding on ``line`` carries a reasoned disable."""
        disable = self.disables.get(line)
        return disable is not None and code in disable.codes
