"""The tree lints itself: src/ stays clean under every shipped rule.

This is the acceptance gate `make lint` enforces in CI, expressed as a
tier-1 test so a violation fails the ordinary test run too — with the
offending findings in the assertion message.
"""

from pathlib import Path

from repro.tools.lint import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_src_is_lint_clean():
    findings, files_checked = lint_paths([REPO_ROOT / "src"])
    rendered = "\n".join(f.render() for f in findings)
    assert findings == [], f"reprolint findings in src/:\n{rendered}"
    # The whole tree was actually walked: every source file, no fewer.
    assert files_checked == len(list((REPO_ROOT / "src").rglob("*.py")))


def test_every_suppression_in_src_carries_a_reason():
    # Structural re-check of the pragma contract over the live tree: every
    # `# reprolint:` comment in src/ parses, and every disable has a reason.
    # (Parse failures surface as R000 in test_src_is_lint_clean too; this
    # test keeps the inventory visible and the reasons non-empty.)
    from repro.tools.lint.pragmas import PragmaTable

    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        table = PragmaTable.parse(path.read_text(encoding="utf-8"))
        assert table.errors == [], f"{path}: malformed pragmas {table.errors}"
        for disable in table.disables.values():
            assert disable.reason.strip(), f"{path}:{disable.line}"
