"""Shared AST machinery: import-alias resolution and qualified call names.

The rules reason about *qualified* names — ``numpy.random.seed``,
``time.sleep``, ``subprocess.run`` — but source code reaches those through
arbitrary aliases (``import numpy as np``, ``from time import sleep``).
:func:`build_alias_map` records what every imported binding resolves to,
and :func:`qualified_name` folds an attribute chain back into its dotted
origin, so a rule can match on the canonical name regardless of import
style.  Resolution is deliberately lexical and conservative: names bound
by assignment, calls on call results, and relative imports resolve to
``None`` (or to a non-matching local name), which a rule treats as "not
the thing I forbid" — a static checker errs on the quiet side.
"""

from __future__ import annotations

import ast
from typing import Dict, Optional

__all__ = ["build_alias_map", "qualified_name"]


def build_alias_map(tree: ast.AST) -> Dict[str, str]:
    """Map every imported local binding to its dotted canonical name.

    ``import numpy as np``             → ``{"np": "numpy"}``
    ``import numpy.random as npr``     → ``{"npr": "numpy.random"}``
    ``import numpy.random``            → ``{"numpy": "numpy"}`` (binds the top)
    ``from numpy import random``       → ``{"random": "numpy.random"}``
    ``from time import sleep as zz``   → ``{"zz": "time.sleep"}``

    Function-local imports are included (the rules care about what a name
    means, not where it was bound); relative imports are skipped — they
    can only name in-repo modules, never the stdlib/numpy surfaces the
    rules match on.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    aliases[top] = top
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def qualified_name(node: ast.expr, aliases: Dict[str, str]) -> Optional[str]:
    """The dotted canonical name of an expression, or None if unresolvable.

    A bare :class:`ast.Name` resolves through the alias map, falling back
    to itself (so ``open`` stays ``open`` and a local ``self`` base yields
    ``self.<...>`` — which simply never matches a forbidden qualname).
    """
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = aliases.get(node.id, node.id)
    parts.append(base)
    return ".".join(reversed(parts))
