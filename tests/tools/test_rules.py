"""The fixture corpus: every rule proven against known-good/known-bad code.

Each rule (R001, R002, R004) has at least one committed fixture that *fails* it and
one that passes; a rule edit that stops flagging its own failure mode
breaks this suite, not just the live tree.
"""

from pathlib import Path

import pytest

from repro.tools.lint import lint_source

FIXTURES = Path(__file__).parent / "fixtures"


def lint_fixture(name, select=None):
    path = FIXTURES / name
    return lint_source(path.read_text(encoding="utf-8"), path, select=select)


def codes(findings):
    return sorted({f.code for f in findings})


class TestKnownBadFixtures:
    def test_r001_flags_global_rng(self):
        findings = lint_fixture("r001_bad.py")
        assert codes(findings) == ["R001"]
        lines = {f.line for f in findings}
        # seed, rand, aliased normal, from-imported rand, RandomState
        assert len(findings) == 5
        assert len(lines) == 5

    def test_r001_names_the_seed_call(self):
        findings = lint_fixture("r001_bad.py")
        seed = [f for f in findings if "np.random.seed" in f.message]
        assert len(seed) == 1

    def test_r002_flags_the_three_leak_patterns(self):
        findings = lint_fixture("r002_bad.py")
        assert codes(findings) == ["R002"]
        messages = " | ".join(f.message for f in findings)
        assert len(findings) == 4
        assert "np.zeros" in messages
        assert "np.float64" in messages
        assert "np.asarray" in messages
        assert "astype(float)" in messages

    def test_r004_flags_blocking_calls_in_async_def(self):
        findings = lint_fixture("r004_bad.py")
        assert codes(findings) == ["R004"]
        messages = " | ".join(f.message for f in findings)
        # time.sleep, aliased sleep, open, socket.create_connection,
        # subprocess.run
        assert len(findings) == 5
        assert "time.sleep" in messages
        assert "open" in messages
        assert "socket.create_connection" in messages
        assert "subprocess.run" in messages


class TestKnownGoodFixtures:
    @pytest.mark.parametrize(
        "name",
        [
            "r001_good.py",
            "r002_good.py",
            "r004_good.py",
        ],
    )
    def test_good_fixture_is_clean(self, name):
        assert lint_fixture(name) == []

    def test_r002_out_of_scope_module_is_not_flagged(self):
        # The identical patterns are host-side float64 policy outside the
        # kernel modules; scope comes from the module name.
        assert lint_fixture("r002_out_of_scope.py") == []


class TestSelect:
    def test_select_limits_to_named_rules(self):
        findings = lint_fixture("r001_bad.py", select=["R002"])
        assert findings == []

    def test_select_unknown_code_raises(self):
        from repro.utils.validation import ValidationError

        with pytest.raises(ValidationError):
            lint_fixture("r001_bad.py", select=["R999"])

    def test_rule_catalogue_is_complete(self):
        from repro.tools.lint import all_rules

        assert [rule.code for rule in all_rules()] == [
            "R001",
            "R002",
            "R004",
        ]
