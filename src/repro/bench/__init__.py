"""Kernel-regression benchmark harness (``BENCH_kernels.json`` tooling).

``repro.bench.kernels`` times the library's sampling/training hot kernels
(and, for the paired rows, a baseline leg of the same run) and emits a
``BENCH_kernels.json`` evidence file; ``repro.bench.compare`` diffs two such files and fails on
kernel regressions.  Both are exposed as console scripts
(``repro-bench-kernels`` / ``repro-compare-bench``) and as thin wrappers in
``benchmarks/``.
"""

from repro.bench.compare import compare_benchmarks
from repro.bench.kernels import annotate_oversubscription, run_benchmarks

__all__ = ["annotate_oversubscription", "compare_benchmarks", "run_benchmarks"]
