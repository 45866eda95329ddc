# Convenience targets for the compass reproduction.

.PHONY: install test test-slow test-all lint bench bench-tables examples datasheet floorplan faults serve-sim soak fleet factory scenario array replay fastpath reports reports-diff all

install:
	pip install -e . || python setup.py develop

# Default tier: excludes tests marked `slow` (see pyproject addopts).
test:
	pytest tests/

# The slow tier on its own: long sweeps + the fault smoke campaign.
test-slow:
	pytest tests/ -m slow

test-all:
	pytest tests/ -m "slow or not slow"

# Lint/type-check when the tools are available (pip install -e .[lint]);
# skip gracefully on bare environments so `make all` stays runnable.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "lint: ruff not installed, skipping (pip install -e .[lint])"; \
	fi
	@if command -v mypy >/dev/null 2>&1; then \
		mypy; \
	else \
		echo "lint: mypy not installed, skipping (pip install -e .[lint])"; \
	fi

bench:
	pytest benchmarks/ --benchmark-only

bench-tables:
	pytest benchmarks/ --benchmark-only -s

examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		python $$script || exit 1; \
		echo; \
	done

# Fault-injection smoke campaign (<30 s): every registered fault through
# the scalar + batch + scan paths; exits nonzero on any silent-wrong cell.
faults:
	PYTHONPATH=src python -m repro faults --json BENCH_faults.json

# Replicated heading service demo: verdicts and breaker states live.
serve-sim:
	PYTHONPATH=src python -m repro serve-sim --requests 8

# Seeded chaos soak against the service; exits nonzero if silent-wrong
# rises above zero or availability misses the floor.
soak:
	PYTHONPATH=src python -m repro soak --requests 100 --json BENCH_service.json

# Fleet storm: deterministic chaos + RPS ramp past saturation against
# the sharded heading fleet; exits 17 if any SLO gate breaks, then
# regenerates BENCH_fleet.json via the fleet benchmark.
fleet:
	PYTHONPATH=src python -m repro fleet-soak \
		--json fleet-soak-report.json --metrics fleet-metrics.json
	PYTHONPATH=src pytest benchmarks/bench_fleet.py --benchmark-only -s

# Simulated production run: a 10k-unit lot through the staged test
# program (exit 18 if any defective unit escapes as silent-wrong), then
# regenerates BENCH_factory.json via the factory benchmark.
factory:
	PYTHONPATH=src python -m repro factory --units 10000 \
		--json factory-lot-report.json --no-units \
		--metrics factory-metrics.json
	PYTHONPATH=src pytest benchmarks/bench_factory.py --benchmark-only -s

# Per-scenario fault campaign over the golden mission corpus: every
# environment fault x severity x scenario; exits nonzero on any
# silent-wrong or nonconforming cell, then regenerates
# BENCH_scenario.json via the scenario benchmark.
scenario:
	PYTHONPATH=src python -m repro scenario --campaign \
		--json scenario-campaign-report.json
	PYTHONPATH=src pytest benchmarks/bench_scenario.py --benchmark-only -s

# Gradiometer array gates: one fused measurement through the 4-element
# reference array via the CLI, then regenerate BENCH_array.json — the
# dead-element benign gate, the array fault campaign (silent-wrong 0)
# and the gradiometer-rejects-ambush gate.
array:
	PYTHONPATH=src python -m repro array --json array-report.json
	PYTHONPATH=src pytest benchmarks/bench_array.py --benchmark-only -s

# Record a seeded sweep, replay it bit-exactly, then diff it through
# the scalar, batch and instrumented paths; exit 15 on silent-wrong.
replay:
	PYTHONPATH=src python -m repro record --out replay-sweep.rplog --points 24
	PYTHONPATH=src python -m repro replay replay-sweep.rplog
	PYTHONPATH=src python -m repro diff replay-sweep.rplog \
		--paths recorded scalar batch instrumented \
		--json replay-divergence.json

# Certify the closed-form analog fast path, the default engine: the
# exact conformance suites (default compass == the stepped pin, counts,
# heading, field and health, on the golden vectors, Hypothesis draws
# and every registered measurement fault), the armed-record routing, the
# comparator and front-end suites, the shared solve memo and the
# mixed-origin assembly that partial solves feed, slow tests included
# (the suites of the CI fastpath-conformance job), the sweep with its
# fastpath line, then BENCH_fastpath.json with the >=20x gate.
# Recordings are stepped: `make replay` covers them.
fastpath:
	PYTHONPATH=src pytest tests/test_fastpath.py tests/test_property_fastpath.py \
		tests/test_armed_record.py tests/test_comparator.py \
		tests/test_frontend.py tests/test_shared_solve.py tests/test_assembly.py \
		-m "slow or not slow" -q
	PYTHONPATH=src python -m repro sweep --points 24
	PYTHONPATH=src pytest benchmarks/bench_fastpath.py --benchmark-only -s

# Every campaign, soak, lot and array-ambush report into OUT (default
# reports/), with the two wall-clock keys nulled so the files are a pure
# function of the code, plus the stdout of the CLI heading sweep, the
# datasheet and the service simulation.
# Behaviour gate for refactors: run it in two checkouts, then `diff -r`
# the two OUT directories.  NULL_KEY rewrites in the format of
# src/repro/report.py, spelled out here because reports-diff runs this
# Makefile against a BASE that may predate that module.
OUT ?= reports
NULL_KEY = python -c 'import json, sys; path, key = sys.argv[1:]; \
	report = json.load(open(path)); report[key] = None; \
	open(path, "w").write(json.dumps(report, indent=2, sort_keys=True) + "\n")'

reports:
	mkdir -p $(OUT)
	PYTHONPATH=src python -m repro faults --json $(OUT)/faults.json
	PYTHONPATH=src python -m repro scenario --campaign \
		--json $(OUT)/scenario-campaign.json
	PYTHONPATH=src python -m repro soak --requests 100 --json $(OUT)/soak.json
	PYTHONPATH=src python -m repro fleet-soak --json $(OUT)/fleet-soak.json
	PYTHONPATH=src python -m repro factory --json $(OUT)/factory.json
	PYTHONPATH=src python -m repro sweep --points 24 > $(OUT)/sweep.txt
	PYTHONPATH=src python -m repro datasheet > $(OUT)/datasheet.txt
	PYTHONPATH=src python -m repro array --ambush 1.0 --json $(OUT)/array.json
	PYTHONPATH=src python -m repro serve-sim > $(OUT)/serve-sim.txt
	$(NULL_KEY) $(OUT)/soak.json elapsed_s
	$(NULL_KEY) $(OUT)/fleet-soak.json elapsed_wall_s

# The same gate in one step: check BASE (any git ref) out into a
# temporary worktree, write its reports to reports-diff/base and the
# working tree's to reports-diff/head, then diff the two into
# reports-diff/reports.diff (exit 1 on any difference).  This Makefile
# drives both, so a BASE older than the `reports` target still works.
BASE ?= HEAD

reports-diff:
	rm -rf reports-diff
	mkdir -p reports-diff
	tree=$$(mktemp -d) && \
	git worktree add --detach $$tree/base $(BASE) && \
	$(MAKE) -C $$tree/base -f $(CURDIR)/Makefile reports \
		OUT=$(CURDIR)/reports-diff/base; \
	status=$$?; \
	git worktree remove --force $$tree/base; rm -rf $$tree; \
	exit $$status
	$(MAKE) reports OUT=reports-diff/head
	diff -r reports-diff/base reports-diff/head > reports-diff/reports.diff; \
	status=$$?; cat reports-diff/reports.diff; exit $$status

datasheet:
	python -m repro datasheet

floorplan:
	python -m repro floorplan

all: install lint test bench
