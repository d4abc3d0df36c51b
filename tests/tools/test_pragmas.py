"""Pragma semantics: reasoned suppressions, R000 hygiene, module override."""

import textwrap

from repro.tools.lint import lint_source
from repro.tools.lint.pragmas import PragmaTable

BAD_KERNEL = """\
# reprolint: module=repro.ising.fixture
import numpy as np

state = np.zeros((3, 3)){pragma}
"""


def lint_kernel_line(pragma=""):
    return lint_source(BAD_KERNEL.format(pragma=pragma))


class TestSuppression:
    def test_unsuppressed_line_is_flagged(self):
        findings = lint_kernel_line()
        assert [f.code for f in findings] == ["R002"]

    def test_reasoned_disable_suppresses(self):
        findings = lint_kernel_line(
            "  # reprolint: disable=R002 -- fixture exercises the pragma"
        )
        assert findings == []

    def test_disable_without_reason_is_r000_and_does_not_suppress(self):
        findings = lint_kernel_line("  # reprolint: disable=R002")
        assert [f.code for f in findings] == ["R000", "R002"]

    def test_disable_only_covers_named_codes(self):
        findings = lint_kernel_line(
            "  # reprolint: disable=R001 -- wrong code on purpose"
        )
        assert [f.code for f in findings] == ["R002"]

    def test_disable_list_covers_several_codes(self):
        source = textwrap.dedent(
            """\
            # reprolint: module=repro.ising.fixture
            import numpy as np

            x = np.asarray(np.random.rand(3))  # reprolint: disable=R001,R002 -- fixture: both rules on one line
            """
        )
        assert lint_source(source) == []

    def test_r000_cannot_be_suppressed(self):
        source = (
            "# reprolint: bogus-directive\n"
            "# reprolint: disable=R000 -- trying to silence pragma hygiene\n"
        )
        findings = lint_source(source)
        assert [f.code for f in findings] == ["R000"]

    def test_unknown_directive_is_r000(self):
        findings = lint_source("# reprolint: frobnicate=1\n")
        assert [f.code for f in findings] == ["R000"]
        assert "unknown reprolint directive" in findings[0].message

    def test_bad_rule_code_is_r000(self):
        findings = lint_source("# reprolint: disable=R1 -- malformed code\n")
        assert [f.code for f in findings] == ["R000"]

    def test_pragma_text_inside_strings_is_inert(self):
        source = 'DOC = "# reprolint: disable=R002"\n'
        assert lint_source(source) == []


class TestModuleOverride:
    def test_override_places_snippet_in_scope(self):
        source = "import numpy as np\nx = np.zeros((2,))\n"
        assert lint_source(source) == []
        scoped = "# reprolint: module=repro.core.fixture\n" + source
        assert [f.code for f in lint_source(scoped)] == ["R002"]

    def test_invalid_override_is_r000(self):
        findings = lint_source("# reprolint: module=not a module\n")
        assert [f.code for f in findings] == ["R000"]


class TestParseTable:
    def test_guard_declaration_parses(self):
        table = PragmaTable.parse(
            "# reprolint: guard(_cache_lock)=_eff_cache,_quantized_static\n"
        )
        assert table.errors == []
        (guard,) = table.guards
        assert guard.lock == "_cache_lock"
        assert guard.attrs == ("_eff_cache", "_quantized_static")

    def test_lockfree_records_reason(self):
        table = PragmaTable.parse(
            "# reprolint: lockfree -- happens-before: not shared yet\n"
        )
        assert table.lockfree == {1: "happens-before: not shared yet"}

    def test_lockfree_without_reason_is_error(self):
        table = PragmaTable.parse("# reprolint: lockfree\n")
        assert len(table.errors) == 1

    def test_syntax_error_reported_as_r000(self):
        findings = lint_source("def broken(:\n")
        assert [f.code for f in findings] == ["R000"]
        assert "does not parse" in findings[0].message
