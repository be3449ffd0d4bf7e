# Canonical entry points for the test suite, the benchmarks, linting and a
# local mirror of the CI pipeline.
#
#   make test                  tier-1 unit suite (tests/)
#   make kernel                build the compiled kernel tier in place
#                              (repro._ckernel; select it with
#                              REPRO_KERNEL=compiled)
#   make kernel-check          build + tier-1 simulation/runtime tests under
#                              REPRO_KERNEL=compiled (mirrors the CI job)
#   make bench                 paper-figure benchmarks (benchmarks/)
#   make bench JOBS=4          ... fanned out to 4 forked fleet workers
#   make bench CACHE=.repro-cache   ... with the on-disk cell cache
#   make perfbench             the scenario benchmark's own tests, then one
#                              short seed-0 run per workload; a seed-0 digest
#                              mismatch against perfbench/digests.json fails
#                              (mirrors the CI perfbench job)
#   make runtime-check         golden-digest equivalence suite (mirrors the
#                              CI runtime-equivalence job)
#   make runtime-goldens       re-pin tests/runtime/goldens.json (intentional
#                              behavior changes only)
#   make scenarios             list the registered scenarios
#   make scenario-smoke        smoke-run every registered scenario (CI job)
#                              Every scenario run below goes through the one
#                              runner, `python -m repro.scenarios run`; only
#                              its --executor/--workers flags differ.
#   make distributed-smoke     same smoke tier through the tcp:// scheduler
#                              with 2 local workers (mirrors the CI job)
#   make distributed-smoke-inproc   same smoke tier over inproc:// comms
#                              (coroutine fleet, no sockets or forks)
#   make distributed-smoke-forked   same smoke tier on the forked fleet
#                              --jobs 2 raises (one scheduler, two worker
#                              processes for the whole run)
#   make distributed-stress    every smoke digest on a 32-worker inproc
#                              fleet (--executor inproc:// --workers 32;
#                              stealing is always on, but whether a steal
#                              fires depends on timing)
#   make smoke-digest-check SUMMARY=file.json
#                              run the serial smoke tier and fail on any
#                              per-scenario digest that differs from the
#                              summary (the three distributed targets above
#                              and their CI jobs end with it)
#   make store-smoke           serial + inproc (--executor inproc://)
#                              campaigns into one campaign store, then
#                              compare + validate (mirrors the CI
#                              store-smoke job)
#   make dashboard-smoke       run a campaign under a live dashboard with
#                              concurrent pollers, check every endpoint and
#                              prove the row digest identical to a serial,
#                              unobserved baseline (mirrors the CI job)
#   make telemetry-smoke       record a 4-worker tcp fleet with the flight
#                              recorder, assert digest parity vs serial,
#                              forwarded worker.* rows landed and a
#                              non-empty phase attribution (mirrors the CI job)
#   make examples              run every examples/*.py script (figure2 in
#                              its --quick tier, writing under a temp dir)
#   make lint                  ruff check (byte-compilation fallback)
#   make ci                    lint + test + examples + scenario smoke +
#                              inproc distributed smoke + perfbench digest
#                              gate (mirrors CI)
#   make clean                 remove caches and stale bytecode

PYTHON ?= python
JOBS ?=
CACHE ?=

SWEEP_ENV = $(if $(JOBS),REPRO_JOBS=$(JOBS)) $(if $(CACHE),REPRO_CACHE_DIR=$(CACHE))

.PHONY: test kernel kernel-check bench perfbench examples scenarios scenario-smoke distributed-smoke distributed-smoke-inproc distributed-smoke-forked distributed-stress smoke-digest-check store-smoke dashboard-smoke telemetry-smoke lint ci clean runtime-check runtime-goldens

# Port the distributed smoke tier binds its campaign schedulers on.
DIST_PORT ?= 7641
# Where the distributed smoke targets write their summaries for the gate.
SMOKE_DIR ?= .smoke-digests

test:
	$(PYTHON) -m pytest -x -q

# Build the optional compiled kernel tier (repro._ckernel) in place.  The
# package never *requires* it -- REPRO_KERNEL=compiled silently degrades to
# the pure tier when the extension is absent -- so build failures here are
# made loud on purpose.
kernel:
	REPRO_CKERNEL=require $(PYTHON) setup.py build_ext --inplace

kernel-check: kernel
	REPRO_KERNEL=compiled $(PYTHON) -m pytest tests/simulation tests/runtime -q
	REPRO_KERNEL=compiled PYTHONPATH=src $(PYTHON) -m repro.scenarios run --all --smoke

bench:
	$(SWEEP_ENV) $(PYTHON) -m pytest benchmarks -q

# The end-to-end gate: perfbench drives registered scenarios through
# run_scenario and exits non-zero when a row digest differs from the warm-up
# pass or, at seed 0, from perfbench/digests.json.  Two timed seconds per
# workload keep the run short; the timings are not compared here.  The
# workload list is read from perfbench itself, so every workload it defines
# is gated.
perfbench:
	$(PYTHON) -m pytest perfbench/tests -q
	@workloads=$$(cd perfbench && $(PYTHON) -c "from workloads import WORKLOADS; print(*WORKLOADS)") && \
	test -n "$$workloads" && \
	for workload in $$workloads; do \
		echo "perfbench: $$workload"; \
		$(PYTHON) perfbench/run.py --workload $$workload --seed 0 --seconds 2 --trace 0 \
			|| exit 1; \
	done

# Prove the simulators are bit-identical to the pinned goldens
# (tests/runtime/goldens.json: the simulator and paper-artefact cases and
# every scenario smoke tier; mirrors the CI runtime-equivalence job).
# Regenerate the goldens with `make runtime-goldens` ONLY for an
# intentional behavior change, and say so in the commit message.
runtime-check:
	$(PYTHON) -m pytest tests/runtime -q

runtime-goldens:
	PYTHONPATH=src $(PYTHON) -m repro.runtime.golden capture

scenarios:
	PYTHONPATH=src $(PYTHON) -m repro.scenarios list

# Smoke-run every registered scenario at tiny sizes, exactly like the CI
# scenario-smoke job (an unregistered or broken scenario fails here).
scenario-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.scenarios run --all --smoke

# The same smoke tier scheduled over the tcp:// distributed runtime:
# two long-lived local workers serve every campaign of the run's one
# scheduler in turn (they retry until it binds, and self-reap via
# --max-idle once the run is over). Mirrors the CI distributed-smoke job;
# digests must match a plain `make scenario-smoke`.
distributed-smoke:
	@PYTHONPATH=src $(PYTHON) -m repro.distributed worker tcp://127.0.0.1:$(DIST_PORT) --max-idle 10 & \
	PYTHONPATH=src $(PYTHON) -m repro.distributed worker tcp://127.0.0.1:$(DIST_PORT) --max-idle 10 & \
	PYTHONPATH=src $(PYTHON) -m repro.scenarios run --all --smoke \
		--executor tcp://127.0.0.1:$(DIST_PORT) --output $(SMOKE_DIR)/tcp.json; \
	STATUS=$$?; wait; test $$STATUS -eq 0 || exit $$STATUS
	$(MAKE) smoke-digest-check SUMMARY=$(SMOKE_DIR)/tcp.json

# The same smoke tier over inproc:// comms: the scheduler and a coroutine
# worker fleet share one process and event loop -- no sockets, no forks --
# but the frames, scheduling (guided leases + stealing) and digests are the
# same.  Mirrors the CI distributed-smoke inproc matrix leg.
distributed-smoke-inproc:
	PYTHONPATH=src $(PYTHON) -m repro.scenarios run --all --smoke \
		--executor inproc:// --output $(SMOKE_DIR)/inproc.json
	$(MAKE) smoke-digest-check SUMMARY=$(SMOKE_DIR)/inproc.json

# The same smoke tier on the fleet `--jobs N` (and REPRO_JOBS=N) raises:
# the executor forks its two workers at the first campaign and keeps them
# and its scheduler until the run ends.  Mirrors the CI distributed-smoke
# forked matrix leg.
distributed-smoke-forked:
	PYTHONPATH=src $(PYTHON) -m repro.scenarios run --all --smoke --jobs 2 \
		--output $(SMOKE_DIR)/forked.json
	$(MAKE) smoke-digest-check SUMMARY=$(SMOKE_DIR)/forked.json

# Stress leg: every scenario's smoke tier on a 32-worker inproc fleet
# (--workers sizes the fleet the inproc:// executor raises), then every
# digest checked against serial (mirrors the CI distributed-stress job).
# Stealing is always on, but the smoke campaigns (28 cells over 17
# scenarios) are smaller than the fleet, so most leases are one cell and
# whether a steal or lease revoke fires depends on timing; the
# `scheduler stats:` line on stderr reports what did.  The steal path's deterministic check is tier-1
# tests/distributed/test_fleet.py::TestGuidedLeases::
# test_a_late_worker_splits_the_lease_of_a_lone_early_one.
distributed-stress:
	PYTHONPATH=src $(PYTHON) -m repro.scenarios run --all --smoke \
		--executor inproc:// --workers 32 \
		--output $(SMOKE_DIR)/stress.json
	$(MAKE) smoke-digest-check SUMMARY=$(SMOKE_DIR)/stress.json

# The digest gate of the distributed smoke legs: rows are bit-identical to
# serial by contract, so every scenario of SUMMARY (a --output summary of a
# smoke run) must carry the digest a serial smoke run writes next to it,
# and both must list the same scenarios.
smoke-digest-check:
	@test -n "$(SUMMARY)" || { echo "usage: make smoke-digest-check SUMMARY=file.json"; exit 2; }
	PYTHONPATH=src $(PYTHON) -m repro.scenarios run --all --smoke \
		--output $(SUMMARY:.json=.serial.json)
	@$(PYTHON) -c 'import json, sys; \
	digests = [{s["name"]: s.get("digest") for s in json.load(open(p))["scenarios"]} for p in sys.argv[1:]]; \
	bad = sorted(n for n in digests[0].keys() | digests[1].keys() if digests[0].get(n) is None or digests[0].get(n) != digests[1].get(n)); \
	[print(f"digest mismatch: {n}: {digests[0].get(n)} != serial {digests[1].get(n)}") for n in bad]; \
	print(f"{len(digests[1]) - len(bad)}/{len(digests[1])} scenario digest(s) match serial"); \
	sys.exit(1 if bad else 0)' $(SUMMARY) $(SUMMARY:.json=.serial.json)

# Land the same smoke campaigns twice -- once serial, once over inproc://
# comms -- in ONE campaign store, then prove the two campaigns are
# cell-for-cell identical with the compare query and re-check the paper's
# ratio bounds with the validation rules.  Needs no optional dependency.
STORE_DIR ?= .store-smoke
STORE_SCENARIOS ?= fig2.bicriteria mix.rigid-moldable

store-smoke:
	rm -rf $(STORE_DIR)
	PYTHONPATH=src $(PYTHON) -m repro.scenarios run $(STORE_SCENARIOS) --smoke \
		--store $(STORE_DIR) --campaign serial
	PYTHONPATH=src $(PYTHON) -m repro.scenarios run $(STORE_SCENARIOS) --smoke \
		--executor inproc:// --store $(STORE_DIR) --campaign inproc
	PYTHONPATH=src $(PYTHON) -m repro.store info --store $(STORE_DIR)
	PYTHONPATH=src $(PYTHON) -m repro.store compare --store $(STORE_DIR) \
		--metric cmax_ratio --campaign-a serial --campaign-b inproc
	PYTHONPATH=src $(PYTHON) -m repro.store validate --store $(STORE_DIR)

# Observation must not perturb results: run one scenario through an inproc
# fleet while HTTP pollers hammer a live dashboard, check every endpoint
# (status, topics, events, scenario index, Gantt SVG), and require the row
# digest to be bit-identical to a serial, unobserved baseline.  Mirrors
# the CI dashboard-smoke job.
dashboard-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.dashboard smoke

# The distributed telemetry pipeline end to end: a recorded 4-worker tcp
# fleet must yield the same digest as an unobserved serial run, forwarded
# worker.* span events must land in the flight-recorder store, and the
# phase-attribution query must be non-empty.  Mirrors the CI
# telemetry-smoke job.
telemetry-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.telemetry smoke --workers 4 --comm tcp

# Every example end to end (only `make lint` byte-compiles them otherwise).
# figure2_reproduction.py writes its CSV under a temp dir, so nothing
# lands in the tree.
examples:
	@for example in $(filter-out examples/figure2_reproduction.py,$(wildcard examples/*.py)); do \
		echo "examples: $$example"; \
		PYTHONPATH=src $(PYTHON) $$example >/dev/null || exit 1; \
	done
	@out=$$(mktemp -d) && echo "examples: examples/figure2_reproduction.py --quick" && \
	PYTHONPATH=src $(PYTHON) examples/figure2_reproduction.py --quick \
		--output $$out/figure2_points.csv >/dev/null; \
	STATUS=$$?; rm -rf $$out; exit $$STATUS

# ruff when available (the CI lint job installs it); plain byte-compilation
# otherwise so the target always catches syntax errors.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not found: falling back to byte-compilation only"; \
		$(PYTHON) -m compileall -q src tests benchmarks examples; \
	fi

ci:
	$(MAKE) lint
	$(MAKE) test
	$(MAKE) examples
	$(MAKE) scenario-smoke
	$(MAKE) distributed-smoke-inproc
	$(MAKE) distributed-smoke-forked
	$(MAKE) perfbench

clean:
	rm -rf .pytest_cache .benchmarks .repro-cache .store-smoke .perfbench-work .smoke-digests examples/out
	find . -name __pycache__ -type d -exec rm -rf {} +
	find . -name "*.py[co]" -delete
