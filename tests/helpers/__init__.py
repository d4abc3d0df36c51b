"""Reusable test toolkit: tolerance constants and statistical assertions.

Import surface for the suites (``tests/conftest.py`` puts ``tests/`` on
``sys.path``, so ``from helpers import ...`` works from any test module)::

    from helpers import FLOAT64_ASSOC_ATOL, MOMENT_ATOL, assert_moments_match

See ``tolerances`` for the contract taxonomy (bit-identical vs float64
tolerance vs statistical) and the calibration notes behind each constant.
The seed-semantics oracle the bit-identical suites compare against is
``helpers.reference`` (imported by module, not re-exported here).
"""

from .statistics import (
    assert_geweke_agree,
    assert_moments_match,
    assert_visible_kl_below,
    chain_moments,
    empirical_kl,
)
from .tolerances import (
    AIS_LOGZ_STAT_ATOL,
    FLOAT64_ASSOC_ATOL,
    FLOAT64_EXACT_ATOL,
    FLOAT64_FUNC_ATOL,
    GEWEKE_ATOL,
    KL_MAX,
    MOMENT_ATOL,
)

__all__ = [
    "AIS_LOGZ_STAT_ATOL",
    "FLOAT64_ASSOC_ATOL",
    "FLOAT64_EXACT_ATOL",
    "FLOAT64_FUNC_ATOL",
    "GEWEKE_ATOL",
    "KL_MAX",
    "MOMENT_ATOL",
    "assert_geweke_agree",
    "assert_moments_match",
    "assert_visible_kl_below",
    "chain_moments",
    "empirical_kl",
]
