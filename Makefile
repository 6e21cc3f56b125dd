GO ?= go

.PHONY: ci fmt vet build test race race-fault race-par test-resume test-telemetry test-serve test-dist test-chaos bench-smoke vuln staticcheck bench bench-guard bench-json

ci: fmt vet build test race-fault race-par test-resume test-telemetry test-serve test-dist test-chaos bench-smoke bench-guard vuln staticcheck

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The fault/write-verify/degradation path under the race detector: the
# injector, ECP patching and retirement bookkeeping are the newest
# concurrent-adjacent state, so CI runs just these packages with -race
# to keep the gate minutes-scale (make race covers everything).
race-fault:
	$(GO) test -race ./internal/fault/ ./internal/memsys/ ./internal/ecp/ ./internal/wear/

# The parallel-execution layer under the race detector: the worker pool,
# the singleflighted Suite caches, the lock-free scheme cost table and
# the pooled array solve contexts are where fan-out contention lives
# (make race covers everything).
race-par:
	$(GO) test -race ./internal/par/ ./internal/experiments/ ./internal/core/ ./internal/xpoint/

# The crash-safe sweep engine under the race detector: journal
# replay, resume byte-identity, panic isolation and watchdog state are
# the newest concurrent machinery — plus the CLI exit-code smoke tests
# (quarantined cell -> exit 3, SIGTERM -> exit 130 -> byte-identical
# resume).
test-resume:
	$(GO) test -race ./internal/jobs/ ./internal/atomicio/
	$(GO) test -race -run 'TestResume|TestPrimeSimsQuarantine|TestGridDigest' ./internal/experiments/
	$(GO) test -run 'TestQuarantineExitCodeSmoke|TestSigtermResumeByteIdentical' ./cmd/reramsim/

# The live telemetry plane under the race detector — the lock-free
# /metrics snapshot hammered against running sweeps, the span
# collector, the /progress export — plus the CLI e2e smoke
# (sweep with -obs-addr: mid-run scrapes, SSE progress advancing, and a
# Perfetto-loadable -trace-spans file on exit 0).
test-telemetry:
	$(GO) test -race ./internal/telemetry/ ./internal/obs/
	$(GO) test -race -run 'TestSweepSpan|TestProgress' ./internal/experiments/ ./internal/jobs/
	$(GO) test -run 'TestTelemetryE2ESmoke' ./cmd/reramsim/

# The service layer under the race detector: admission shedding
# (429/503 + Retry-After), dedup exactness (32 identical sweeps -> one
# execution), drain-under-load, panic isolation and the shared retry
# policy — plus the reramd daemon e2e (real suite over HTTP, SIGTERM
# drain with on-disk checkpoints, exit 0).
test-serve:
	$(GO) test -race ./internal/serve/ ./internal/retry/
	$(GO) test -race -run 'TestDaemon' ./cmd/reramd/

# The distributed sweep layer under the race detector: the lease state
# machine, the coordinator's long-poll/janitor/merge paths and the
# worker loop (including adversarial segment-return orders and
# simulated worker loss) — plus the CLI e2e (coordinator + 4 worker
# processes byte-identical to a single-process run, and SIGKILLing a
# worker mid-grid with lease-expiry recovery).
test-dist:
	$(GO) test -race ./internal/dist/
	$(GO) test -run 'TestDist' ./cmd/reramsim/

# The chaos-hardening layer under the race detector: the seeded
# fault-injection engine, the integrity/audit/health-score coordinator
# paths (corrupt segments, digest mismatches, divergent workers), the
# disk-full journal injection, and the in-process fleet e2e (coordinator
# + 4 workers under a seeded fault plan must be byte-identical to a
# clean run) — plus the CLI chaos e2e (distributed sweep under -chaos
# with a segment-corrupting worker, and -audit-fraction=1.0 catching a
# divergent worker with exit 3). Every fault plan is seeded, so failures
# reproduce.
test-chaos:
	$(GO) test -race ./internal/chaos/ ./internal/atomicio/ ./internal/retry/
	$(GO) test -race -run 'TestComplete|TestDuplicateCompletion|TestAudit|TestHealth|TestLease|TestWorkerShips|TestMangled' ./internal/dist/
	$(GO) test -run 'TestChaos' ./cmd/reramsim/

# The benchmark is its own module (benchmark/go.mod), so the root
# build and test never compile it: vet and test it here, so a change
# that renames or deletes something the benchmark calls fails CI, not
# the next benchmark run.
bench-smoke:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# govulncheck when installed; advisory otherwise so offline CI passes.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vuln: govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; fi

# staticcheck when installed; advisory otherwise so offline CI passes.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck: not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; fi

bench:
	$(GO) test -bench=. -benchmem ./...

# The allocation guards: steady-state SimulateResetInto, a memoized line
# write priced bare and inside a disabled timing scope, disabled spans
# and the disabled chaos plane must all stay at 0 allocs/op (the
# benchmarks themselves fail otherwise), run briefly as part of ci.
bench-guard:
	$(GO) test -run xxx -bench 'BenchmarkResetOpSteadyState|BenchmarkCostWriteMemoized|BenchmarkObsDisabled|BenchmarkSpanDisabled|BenchmarkChaosDisabled' -benchtime 100x -benchmem .

# Machine-readable micro-benchmark snapshot for the perf trajectory:
# the PR4 solver/cost baselines (steady-state ResetOp regressions show
# up against BENCH_PR4.json), the PR6 telemetry overheads (span on/off,
# /metrics scrape render), the PR7 served-request latency (full HTTP
# round trip through admission + deadline setup), the sweep
# backends (serial vs parallel-4/8 vs a standing distributed-4 fleet —
# the fleet must beat the serial cold-start wall clock), and the PR10
# chaos plane (the disabled path must stay at 0 allocs/op).
bench-json:
	{ $(GO) test -run xxx -bench 'BenchmarkResetOp1Bit|BenchmarkResetOp4Bit|BenchmarkResetOpSteadyState|BenchmarkCostWriteMemoized|BenchmarkSweepParallel|BenchmarkSpanDisabled|BenchmarkSpanEnabled|BenchmarkMetricsScrape|BenchmarkChaosDisabled' \
		-benchmem . ; \
	  $(GO) test -run xxx -bench 'BenchmarkServedSolve' -benchtime 500x -benchmem ./internal/serve/ ; } \
		| $(GO) run ./cmd/bench2json > BENCH_PR10.json
	@echo "wrote BENCH_PR10.json"
