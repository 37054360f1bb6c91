# Developer targets for the nopower reproduction.

GO ?= go

# The observability package carries the tracing/metrics contracts every
# controller depends on; its statement coverage is gated.
COVER_PKG    = ./internal/obs
COVER_MIN    = 80.0
COVER_OUT    = coverage.out

.PHONY: all build test race bench bench-serve check fmt vet cover soak verify lint

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the baseline everything-compiles-and-passes gate — the checks a
# reviewer assumes are green before reading a line: clean formatting, vet, a
# full build, the test suite, the benchmark's own module (`./...` does not
# reach it), and a 5 s seed-42 npbench run of the sharded 100k-server plant
# and the serial full stack. That run fails on any wrong output (goldens,
# sharded-vs-serial reference); compare then fails when a workload's
# op_ms_p50 exceeds 3x bench/smoke-baseline.json (bound 2.0 in
# bench/smoke-bounds.json). The bound is loose on purpose: the median moves
# ~2x between hosts, so the smoke catches order-of-magnitude rot, not
# percent drift.
verify: lint
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...
	cd bench/npbench && $(GO) vet ./... && $(GO) test ./...
	@tmp=$$(mktemp -d); \
	bash bench/npbench/npbench.sh --workload fleet100k-sharded,facility2500-aiburst --seconds 5 --out $$tmp && \
	bash bench/npbench/npbench.sh compare -bench bench/smoke-bounds.json bench/smoke-baseline.json $$tmp/all-seed42-trace0.json; \
	status=$$?; rm -rf $$tmp; exit $$status

# bench-serve is the E20 daemon load benchmark: 500 jobs over 8 distinct
# specs per iteration against an in-memory server, reporting p50/p99
# submit-to-done latency as custom metrics (see EXPERIMENTS.md E20).
bench-serve:
	$(GO) test -run '^$$' -bench 'BenchmarkServeLoad' -benchtime 5x -count=1 ./internal/serve

# FMA_PKGS must compute the same float64 bits on every GOARCH. Go may fuse
# x*y + z into one multiply-add with a single rounding on arm64, ppc64le,
# s390x and riscv64 (never on amd64); an explicit float64(x*y) prevents it.
# The list grows as more packages are made fusion-free.
FMA_PKGS  = ./internal/binpack ./internal/cluster ./internal/controllers/budget \
	./internal/controllers/vmc ./internal/platform ./internal/policy ./internal/trace \
	./internal/tracegen
FMA_ARCHS = arm64 ppc64le s390x riscv64

# lint enforces the columnar store's API boundary: the per-server struct
# (cluster.Server) and the struct slice (cl.Servers) were removed in the
# struct-of-arrays redesign, and nothing outside internal/cluster may grow
# them back or poke columns directly. The wire-format cluster.ServerState
# (checkpoints) is explicitly allowed. Then the caller check
# (internal/lint/callers, a go/types pass over this module and
# bench/npbench) fails, naming file and line, on an exported name under
# internal/ that no non-test code references, unless
# internal/lint/callers/allowlist.txt lists it with a reason, and on an
# allowlist entry that is referenced now or names nothing. Last it
# cross-compiles FMA_PKGS for each of FMA_ARCHS with the assembly listing
# on and fails, naming file and line, on any fused multiply-add
# instruction.
lint:
	@bad=$$(grep -rn --include='*.go' --exclude-dir=.git -E \
		'cluster\.Server([^A-Za-z0-9_]|$$)|\bcl\.Servers\b' . \
		| grep -v '^\./internal/cluster/' | grep -v 'cluster\.ServerState' || true); \
	if [ -n "$$bad" ]; then \
		echo "removed cluster.Server API referenced outside internal/cluster:"; \
		echo "$$bad"; exit 1; \
	fi
	@$(GO) run ./internal/lint/callers
	@for arch in $(FMA_ARCHS); do \
		asm=$$(GOARCH=$$arch $(GO) build -gcflags=-S $(FMA_PKGS) 2>&1) || { echo "$$asm"; exit 1; }; \
		fused=$$(echo "$$asm" | awk -v arch=$$arch -v root="$(CURDIR)/" \
			'$$4 ~ /^FN?M(ADD|SUB)[DS]?$$/ { loc = substr($$3, 2, length($$3) - 2); \
				if (index(loc, root) == 1) loc = substr(loc, length(root) + 1); print arch ": " loc " " $$4 }' \
			| sort -u); \
		if [ -n "$$fused" ]; then \
			echo "fused multiply-add in $(FMA_PKGS); round the product with float64(x*y):"; \
			echo "$$fused"; exit 1; \
		fi; \
	done

# race is the gate for the parallel experiment runner and the sharded tick
# engine: every experiment test forces the concurrent worker-pool path, and
# the determinism test runs the sharded engine's worker goroutines under the
# detector, so this catches data races in shared caches, models, the metrics
# pipeline, and the per-tick shard fan-out. The determinism test repeats ten
# times because a race between shard workers shows only on the schedules
# that interleave them, and the packages whose code runs on shard workers
# (the plant and the two ShardTicker controllers) rerun uncached. The shared
# trace set test repeats ten times for the same reason: two engines read one
# run group's set while one rescales its demand. The concurrent BuildMix
# test repeats ten times too: a blended mix's tier goroutines each write a
# disjoint arena and index range of one trace slice, and several builds run
# at once. The batch identity test repeats five times: a sweep's pool
# workers write the shared result slots and baseline cache entries that
# every row of the batch reads back. The concurrent serve tests repeat ten
# times: a job's baseline runs on a second pool worker beside its managed
# run (taken at the job's start, or when a worker frees during the run),
# both read one trace set, and a stopped tenant's shared baseline is
# retried by the jobs joined on it, all on schedules the detector sees only
# when they interleave. verify and the obs coverage floor ride along so one
# target stays the pre-merge gate.
race: verify cover
	$(GO) test -race -count=10 -run 'TestShardDeterminism' ./internal/sim
	$(GO) test -race -count=10 -run 'TestSharedSetConcurrentRuns' ./internal/experiments
	$(GO) test -race -count=10 -run 'TestBuildMixConcurrent' ./internal/tracegen
	$(GO) test -race -count=5 -run 'TestRunExperimentsMatchesEach' ./internal/experiments
	$(GO) test -race -count=10 -run 'TestBaselinePoolJobs|TestServeParallelismBound|TestBaselineTakesFreedWorker|TestForeignBaselineStopRetries|TestTenantStopSparesSharedBaseline' ./internal/serve
	$(GO) test -race -count=1 ./internal/cluster ./internal/controllers/ec ./internal/controllers/vmec
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run '^$$'

# soak runs the fault-injection acceptance suite under the race detector:
# every chaos scenario against both stacks with FaultPolicy = degrade, the
# panic sandbox, fail-safe fallback, and chaos event library all exercised.
soak: verify
	$(GO) test -race -count=1 ./internal/chaos ./internal/sim
	$(GO) test -race -count=1 -v -run 'TestChaos' ./internal/experiments

fmt:
	gofmt -l .

vet:
	$(GO) vet ./...

# cover enforces a minimum statement coverage on internal/obs — the one
# package whose regressions (a silent tracer, a stuck counter) tests
# elsewhere would not notice.
cover:
	$(GO) test -coverprofile=$(COVER_OUT) $(COVER_PKG)
	@total=$$($(GO) tool cover -func=$(COVER_OUT) | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "internal/obs coverage: $$total% (floor $(COVER_MIN)%)"; \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { exit (t+0 >= min+0) ? 0 : 1 }' || \
	{ echo "coverage $$total% below $(COVER_MIN)% floor"; exit 1; }

check: build race
