"""reprolint driver: file discovery, rule execution, reports, and the CLI.

``python -m repro lint [--format json] [--select R001,...] [paths]`` is
the front end (``repro.api.cli`` delegates here); ``lint_paths`` /
``lint_source`` are the library surface the test suite uses.  Exit codes
follow lint convention: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.tools.lint.base import PRAGMA_CODE, Finding, LintContext, all_rules, select_rules
from repro.tools.lint.pragmas import PragmaTable
from repro.utils.validation import ValidationError

__all__ = ["discover_files", "lint_paths", "lint_source", "run_lint"]


def discover_files(paths: Sequence["str | Path"]) -> List[Path]:
    """Expand files/directories into a sorted, deduplicated .py file list."""
    found: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            found.extend(
                p
                for p in sorted(path.rglob("*.py"))
                if "__pycache__" not in p.parts
            )
        elif path.is_file():
            found.append(path)
        else:
            raise ValidationError(f"lint path does not exist: {path}")
    seen = set()
    unique = []
    for path in found:
        key = path.resolve()
        if key not in seen:
            seen.add(key)
            unique.append(path)
    return unique


def module_name_for(path: Path) -> str:
    """Derive the dotted module name a file would import as.

    Looks for a ``src`` layout root first (``src/repro/ising/bipartite.py``
    → ``repro.ising.bipartite``), then for a ``repro`` package component;
    falls back to the bare stem.  Fixture snippets outside the tree place
    themselves in scope with an explicit ``# reprolint: module=...``
    override instead.
    """
    parts = list(path.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if "src" in parts:
        index = len(parts) - 1 - parts[::-1].index("src")
        tail = parts[index + 1 :]
        if tail:
            return ".".join(tail)
    if "repro" in parts:
        return ".".join(parts[parts.index("repro") :])
    return parts[-1] if parts else str(path)


def lint_source(
    source: str,
    path: "str | Path" = "<string>",
    *,
    select: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint one module's source text and return its sorted findings.

    ``R000`` pragma/parse diagnostics are always included — they are the
    mechanism that keeps suppressions honest — regardless of ``select``.
    """
    path = str(path)
    pragmas = PragmaTable.parse(source)
    findings: List[Finding] = [
        Finding(path=path, line=line, col=0, code=PRAGMA_CODE, message=message)
        for line, message in pragmas.errors
    ]
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        findings.append(
            Finding(
                path=path,
                line=error.lineno or 1,
                col=(error.offset or 1) - 1,
                code=PRAGMA_CODE,
                message=f"file does not parse: {error.msg}",
            )
        )
        return sorted(findings)
    module = module_name_for(Path(path)) if path != "<string>" else "<string>"
    if pragmas.module_override is not None:
        module = pragmas.module_override
    ctx = LintContext(
        path=path, module=module, source=source, tree=tree, pragmas=pragmas
    )
    for rule in select_rules(select):
        for finding in rule.check(ctx):
            if not pragmas.is_suppressed(finding.code, finding.line):
                findings.append(finding)
    return sorted(findings)


def lint_paths(
    paths: Sequence["str | Path"],
    *,
    select: Optional[Sequence[str]] = None,
) -> Tuple[List[Finding], int]:
    """Lint files/directories; returns ``(findings, files_checked)``."""
    files = discover_files(paths)
    findings: List[Finding] = []
    for path in files:
        findings.extend(
            lint_source(path.read_text(encoding="utf-8"), path, select=select)
        )
    return findings, len(files)


def _summary(findings: Sequence[Finding]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for finding in findings:
        counts[finding.code] = counts.get(finding.code, 0) + 1
    return dict(sorted(counts.items()))


def format_text(findings: Sequence[Finding], files_checked: int) -> str:
    lines = [finding.render() for finding in findings]
    if findings:
        by_code = ", ".join(f"{code}: {n}" for code, n in _summary(findings).items())
        lines.append(
            f"reprolint: {len(findings)} finding(s) in {files_checked} file(s)"
            f" ({by_code})"
        )
    else:
        lines.append(f"reprolint: OK ({files_checked} file(s) clean)")
    return "\n".join(lines)


def format_json(findings: Sequence[Finding], files_checked: int) -> str:
    report = {
        "version": 1,
        "files_checked": files_checked,
        "clean": not findings,
        "summary": _summary(findings),
        "findings": [finding.as_dict() for finding in findings],
    }
    return json.dumps(report, indent=2, sort_keys=True)


def _list_rules() -> None:
    print("code  name                     enforces")
    for rule in all_rules():
        print(f"{rule.code}  {rule.name:<23}  {rule.contract}")
        print(f"      {rule.description}")


def run_lint(
    paths: Optional[Sequence[str]] = None,
    *,
    select: Optional[str] = None,
    output_format: str = "text",
    list_rules: bool = False,
) -> int:
    """Programmatic entry of ``python -m repro lint``; reports to stdout."""
    if list_rules:
        _list_rules()
        return 0
    if not paths:
        if not Path("src").is_dir():
            print(
                "error: no paths given and no src/ directory here; pass the"
                " files or directories to lint",
                file=sys.stderr,
            )
            return 2
        paths = ["src"]
    selected = select.split(",") if select else None
    try:
        findings, files_checked = lint_paths(paths, select=selected)
    except ValidationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if output_format == "json":
        print(format_json(findings, files_checked))
    else:
        print(format_text(findings, files_checked))
    return 1 if findings else 0


def build_parser(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Add the lint arguments to ``parser`` (the ``repro lint`` subcommand)."""
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files or directories to lint (default: src/)",
    )
    parser.add_argument(
        "--select", default=None, metavar="CODES",
        help="comma-separated rule codes to run (default: all);"
        " R000 pragma hygiene always runs",
    )
    parser.add_argument(
        "--format", dest="output_format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--list-rules", dest="list_rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser
