# Convenience targets for the FASEA reproduction.

PYTHON ?= python

.PHONY: install test lint analyze equivalence typecheck check bench bench-perf bench-obs results claims replicate examples clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# fasealint: the project's own AST-based reproducibility linter
# (FAS001-FAS010, FAS015-FAS016; see DESIGN.md §5.7). Gates CI.
lint:
	PYTHONPATH=src $(PYTHON) -m repro lint src benchmarks examples

# Whole-program analyzer (FAS011-FAS014; see DESIGN.md §5.10).
# Exit 1 on any finding, 2 on a usage error.
analyze:
	PYTHONPATH=src $(PYTHON) -m repro analyze src

# Quickstart equivalence checks (the CI equivalence job): health alert
# onset, byte-identical decision/alert logs across runs and --jobs 4
# (quickstart) and --jobs 1/2 (replicate, health.json too), repeated
# `fasea run` health/alert logs, replay/diff/ope, and SIGKILL-then-resume serially and with --jobs 4.
equivalence:
	PYTHONPATH=src bash devtools/equivalence.sh

# Strict mypy on the typed public API (repro.linalg / parallel /
# oracle / devtools). Skips gracefully where mypy is not installed
# (pip install -e '.[dev]').
typecheck:
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy; \
	else \
		echo "mypy not installed; skipping (pip install -e '.[dev]')"; \
	fi

check: lint analyze typecheck test

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-perf:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_parallel.py --out BENCH_parallel.json

# Disabled-mode overhead gates for obs, flight, health and checkpoints
# (the CI obs-overhead job; bounds are constants in the harness).
bench-obs:
	PYTHONPATH=src $(PYTHON) -m benchmarks.bench_overhead

results:
	$(PYTHON) -m repro run all --out results --quiet

claims:
	$(PYTHON) -m repro claims

replicate:
	$(PYTHON) -m repro replicate --seeds 5

examples:
	for script in examples/*.py; do echo "== $$script"; $(PYTHON) $$script || exit 1; done

clean:
	rm -rf build dist src/repro.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
