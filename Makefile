PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-sparse lint run-ci serve-smoke examples-smoke bench bench-compare bench-compare-ci row-hashes reach artifacts

test:
	$(PYTHON) -m pytest -x -q

## Static-analysis leg of the tier-1 workflow: reprolint enforces the
## repo's own invariants over src/ (R001 no global RNG, R002 dtype-tier
## hygiene in kernel modules, R004 async purity in the serving layer —
## see docs/dev.md),
## then ruff runs the generic pyflakes/import-hygiene baseline from
## pyproject.toml.  ruff is optional locally (the dev container doesn't
## ship it); CI installs it, so the baseline still gates every PR.
lint:
	$(PYTHON) -m repro lint src
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src; \
	else \
		echo "lint: ruff not installed; skipping the pyflakes baseline (CI runs it)"; \
	fi

## Sparse leg of the tier-1 workflow: the CSR kernel equivalence,
## partial_fit bit-identity, one-hot encoder, and sparse-preset suites
## (everything marked `sparse`).  These tests are
## part of the default run too; the focused leg keeps the PR's contract
## visible and seconds-fast.  `-m sparse` overrides the pyproject addopts.
test-sparse:
	$(PYTHON) -m pytest -m sparse -q

## CLI smoke leg of the tier-1 workflow: the registry listing plus two
## cheap (analytic) artifacts through `python -m repro run`, exercising
## --list, multi-name runs, --preset and --set parsing end to end, and a
## one-run figure11 (~1 s) that drives the ML, CD and BGF trainers through
## the shared epoch driver (serve-smoke's figure9 drives the GS one), a
## two-epoch figure8 (~3 s) that takes all six Sec. 4.5 noise corners from
## the CLI through NoiseSpec into the BGF, and two-second cuts of the
## figure7 and table4 paper presets (the literal RunSpecs in
## repro/api/registry.py) at the 784-visible paper shapes in float32.
run-ci:
	$(PYTHON) -m repro run --list
	$(PYTHON) -m repro run table2 figure5
	$(PYTHON) -m repro run table3 --preset ci --set n_nodes=800
	$(PYTHON) -m repro run figure11 --set n_distributions=1 --set runs_per_distribution=1 --set ml_iterations=20 --set cd_epochs=5
	$(PYTHON) -m repro run figure8 --set epochs=2 --set ais_chains=8 --set ais_betas=20
	$(PYTHON) -m repro run figure7 --preset paper --set datasets=mnist --set epochs=2 --set train_samples=64 --set ais_betas=10 --set ais_chains=8
	$(PYTHON) -m repro run table4 --preset paper --set image_benchmarks=mnist --set epochs=2 --set train_samples=64

## Serving smoke leg of the tier-1 workflow: train a small figure9 model
## through the CLI, persist it as a versioned artifact bundle, reload it in
## a fresh process, and drive the micro-batched scoring service end to end
## (--self-test verifies the coalesced scores against direct scoring and
## reports per-request p50/p99 latency).
## The multi-model extension: train a second (different-seed) artifact and
## round-trip {"model": name}-routed requests through a 2-artifact server
## (examples/serve_multimodel_roundtrip.py binds an ephemeral port, routes
## a request to each model, and checks the error paths).
## The quantized leg: save the same run's model with --quantize (int8
## codes + float32 scales in the .npz) and drive the self-test against the
## dequantized artifact, so the quantized save/load/score path stays wired
## end to end.
serve-smoke:
	$(PYTHON) -m repro run figure9 --set epochs=3 --save-model /tmp/repro-serve-smoke
	$(PYTHON) -m repro serve /tmp/repro-serve-smoke --self-test
	$(PYTHON) -m repro run figure9 --set epochs=3 --save-model /tmp/repro-serve-smoke-q --quantize
	$(PYTHON) -m repro serve /tmp/repro-serve-smoke-q --self-test
	$(PYTHON) -m repro run figure9 --set epochs=3 --set seed=1 --save-model /tmp/repro-serve-smoke-b
	$(PYTHON) examples/serve_multimodel_roundtrip.py /tmp/repro-serve-smoke /tmp/repro-serve-smoke-b

## Examples leg of the tier-1 workflow: run the three training examples
## whose trainers are built from specs end to end (tests/integration/
## test_examples.py only imports them, so a stale constructor argument
## would otherwise surface only when a user runs them).  quickstart.py
## (~2 s) is the only one that builds a BGF through
## build_trainer(TrainerSpec.bgf(...)).  anomaly_detection.py (~77 s on a
## 2-core host) stays import-only.
examples-smoke:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/image_classification.py
	$(PYTHON) examples/recommender_system.py

## Run the kernel benchmark harness and refresh the evidence file (the
## JSON's meta records the machine's core count and BLAS thread count).
bench:
	$(PYTHON) benchmarks/bench_kernels.py --output benchmarks/BENCH_kernels.json

## Compare the current tree's kernels against the checked-in evidence file
## without overwriting it; fails on a >20% regression.
bench-compare:
	$(PYTHON) benchmarks/bench_kernels.py --output /tmp/BENCH_kernels.new.json
	$(PYTHON) benchmarks/compare_bench.py benchmarks/BENCH_kernels.json /tmp/BENCH_kernels.new.json

## CI variant: the checked-in baseline was timed on different hardware, so
## gate on the machine-independent fast/legacy speedup ratio instead of
## absolute medians.  The ratio folds in the noise of both legs (and shared
## CI runners are noisy), so the threshold is looser than the local gate's:
## it catches a fast path that lost its batching win, not 20% drift.
bench-compare-ci:
	$(PYTHON) benchmarks/bench_kernels.py --output /tmp/BENCH_kernels.new.json
	$(PYTHON) benchmarks/compare_bench.py --metric speedup --threshold 0.5 benchmarks/BENCH_kernels.json /tmp/BENCH_kernels.new.json

## Bit-identity gate: print the sha256 of every ci and sparse preset's rows
## at seeds 0, 1 and 9001 as JSON (~5 min on a 2-core host).  A change that
## claims to keep every seeded number prints the same output as its parent
## commit.
## One BLAS thread, because the float32 tiers differ in the last bits
## across BLAS thread counts.
row-hashes:
	OPENBLAS_NUM_THREADS=1 $(PYTHON) benchmarks/row_hashes.py

## Reach probe: run every ci/sparse preset, the run-ci, serve-smoke and
## examples-smoke recipes, the other examples, lint, the kernel bench and
## perfbench under a profile hook, and print as JSON the src/repro
## functions no pipeline called and the defaulted parameters none set
## (~7 min on a 2-core host; see docs/dev.md).
reach:
	@$(PYTHON) benchmarks/reach.py

## Regenerate every paper artifact (slow; prints the tables/figures).
## benchmarks/ is outside the default testpaths; the tier1-tests CI job
## runs `python -m pytest benchmarks --collect-only -q` so a stale import
## in this harness still fails a PR.
artifacts:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s
