GO ?= go

.PHONY: ci fmt vet build test race race-fault race-par test-resume test-telemetry test-serve bench-smoke solvecache-check figures-check fma-check vuln staticcheck bench bench-guard

ci: fmt vet build test race-fault race-par test-resume test-telemetry test-serve bench-smoke bench-guard fma-check solvecache-check figures-check vuln staticcheck

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

# The crash-safe sweep engine under the race detector: the jobs
# package (cell-file replay, schema-1 directories cold-starting, panic
# isolation, cell deadlines, in-place journal-write retries) and the
# atomic-write primitive with its stage-fault hook and sealed container;
# then the suite's resume byte-identity (a grid and a sweep figure),
# quarantine, grid-digest, CLI-path disk-full retry and stop-signal
# tests (a cell deadline, a shared run and a reliability sweep stopped
# inside the event loop), also under -race; then the CLI exit-code
# smoke tests (quarantined cell -> exit 3, SIGTERM -> exit 130 ->
# byte-identical resume, -cell-timeout on running cells -> exit 3,
# SIGINT into a single cell -> exit 130, figures -cell-timeout without
# a checkpoint directory -> exit 3).
test-resume:
	$(GO) test -race ./internal/jobs/ ./internal/atomicio/
	$(GO) test -race -run 'TestResume|TestPrimeSimsQuarantine|TestGridDigest|TestRunGridRetries|TestStop' ./internal/experiments/
	$(GO) test -run 'TestQuarantineExitCodeSmoke|TestSigtermResumeByteIdentical|TestCellTimeoutStopsCells|TestSigintStopsSingleCell|TestCellTimeoutAlone' ./cmd/reramsim/ ./cmd/figures/

# The live telemetry plane under the race detector — the lock-free
# /metrics snapshot of counters and gauges hammered against running
# sweeps, the span
# collector (parents through the context alone, tracks handed between
# goroutines), the span tree of a sweep (TestSweepSpan*: the same tree
# at -jobs 1 and 2, no orphan spans), the /progress export — plus the
# CLI e2e smoke (sweep with -obs-addr: mid-run scrapes, SSE progress
# advancing, and a Perfetto-loadable -trace-spans file on exit 0 whose
# core.solve_op spans nest under memsys.sim spans). The package tests
# run twice in one process, so a test that assumes a fresh metrics
# registry fails here.
test-telemetry:
	$(GO) test -race -count=2 ./internal/telemetry/ ./internal/obs/
	$(GO) test -race -run 'TestSweepSpan|TestProgress' ./internal/experiments/ ./internal/jobs/
	$(GO) test -run 'TestTelemetryE2ESmoke' ./cmd/reramsim/

# The service layer under the race detector: the serve package
# (admission shedding with 429/503 + Retry-After, saturation, deadlines,
# drain under load and forced drain of a held solve, panic isolation,
# strict body decoding), the telemetry package the daemon runs on (its
# one HTTP server: listener, health, readiness, metrics, pprof, the
# /progress SSE stream and a shutdown that ends open streams) and the
# retry package (the jittered backoff schedule behind the 429 hint and
# journal-write retries); then the reramd daemon e2e tests (real suite
# over HTTP: 32 identical solves give one simulation, the fixed 429
# bucket, five flags and one port, a SIGTERM drain that lets the
# in-flight solve finish with 200, exit 0). The package tests run twice
# in one process, as in test-telemetry.
test-serve:
	$(GO) test -race -count=2 ./internal/serve/ ./internal/telemetry/ ./internal/retry/
	$(GO) test -race -run 'TestDaemon' ./cmd/reramd/

# The benchmark is its own module (benchmark/go.mod), so the root
# build and test never compile it: vet and test it here, so a change
# that renames or deletes something the benchmark calls fails CI, not
# the next benchmark run.
bench-smoke:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# The solve cache's directory contract, end to end: grid G filled into
# two fresh directories at -jobs 1 and -jobs 2 leaves identical files
# (one memo dump per scheme among them) and identical JSON, and a warm
# third run over the filled directory prints the cold JSON byte for
# byte. Takes about 6 s on 2 vCPUs.
GRID_G = -scheme Base,Hard+Sys,UDRVR+PR -workload ast_m,mcf_m,mil_m,zeu_m -accesses 1200 -json -seed 1

solvecache-check:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/reramsim" ./cmd/reramsim; \
	"$$dir/reramsim" $(GRID_G) -jobs 1 -solve-cache "$$dir/c1" > "$$dir/cold1.json"; \
	"$$dir/reramsim" $(GRID_G) -jobs 2 -solve-cache "$$dir/c2" > "$$dir/cold2.json"; \
	diff -r "$$dir/c1" "$$dir/c2"; \
	test "$$(ls "$$dir/c1" | grep -c '^memo-')" -eq 3; \
	cmp "$$dir/cold1.json" "$$dir/cold2.json"; \
	"$$dir/reramsim" $(GRID_G) -jobs 2 -solve-cache "$$dir/c1" > "$$dir/warm.json"; \
	cmp "$$dir/cold1.json" "$$dir/warm.json"; \
	echo "solvecache-check: -jobs 1 and -jobs 2 fill identical directories; warm output matches cold"

# Every table and figure, regenerated at 4,000 accesses and diffed
# against figures_output.txt. Each "== id (title, 3.541s)" header loses
# its duration on both sides; any other difference fails. The file's
# bytes come from an amd64 host with FMA: math.Exp picks an FMA branch
# at run time there, so a host without FMA or another GOARCH can differ
# in the last printed digit. Takes about 85 s on 2 vCPUs.
FIGURES_STRIP = sed -E '/^== /s/, [0-9][^ ,)]*\)$$/)/'

figures-check:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/figures -accesses 4000 -jobs 2 > "$$dir/raw"; \
	$(FIGURES_STRIP) figures_output.txt > "$$dir/want"; \
	$(FIGURES_STRIP) "$$dir/raw" > "$$dir/got"; \
	diff -u "$$dir/want" "$$dir/got"; \
	echo "figures-check: output matches figures_output.txt"

# The ladder sweep, the RESET solver's hot loop, writes every product
# that feeds a sum as an explicit float64 conversion, which by the Go
# spec must round on its own, so no GOARCH may fuse it into a
# multiply-add (DESIGN §10). Cross-compile ./internal/xpoint for the four
# targets whose compilers fuse, with its assembly listing, and fail on
# any fused instruction in (*ladder).sweep. Needs only the installed
# toolchain.
FMA_ARCHES = arm64 ppc64le s390x riscv64
FMA_INSNS = \bFN?M(ADD|SUB)[A-Z]*\b

fma-check:
	@set -e; for arch in $(FMA_ARCHES); do \
		asm=$$(GOARCH=$$arch $(GO) build -gcflags=-S -o /dev/null ./internal/xpoint 2>&1) || { echo "$$asm"; exit 1; }; \
		sweep=$$(printf '%s\n' "$$asm" | awk '/^[^\t]/ { f = ($$0 ~ /\(\*ladder\)\.sweep STEXT/) } f'); \
		test -n "$$sweep" || { echo "fma-check: no (*ladder).sweep in the $$arch listing"; exit 1; }; \
		if printf '%s\n' "$$sweep" | grep -E '$(FMA_INSNS)'; then \
			echo "fma-check: (*ladder).sweep fuses a multiply-add on $$arch"; exit 1; fi; \
	done; \
	echo "fma-check: (*ladder).sweep has no fused multiply-add on $(FMA_ARCHES)"

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
# write priced with metrics off and with metrics on, a disabled span
# with a child under it (StartSpan, the only span entry point) and one
# ladder sweep must all stay at 0 allocs/op (the benchmarks themselves
# fail otherwise), run briefly as part of ci.
bench-guard:
	$(GO) test -run xxx -bench 'BenchmarkResetOpSteadyState|BenchmarkCostWriteMemoized|BenchmarkObsDisabled|BenchmarkObsEnabled|BenchmarkSpanDisabled|BenchmarkLadderSweep' -benchtime 100x -benchmem . ./internal/xpoint/
