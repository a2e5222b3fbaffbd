# CI entry points. `make check` (or `make`, or the legacy `make ci`) is
# the tier-1 gate the build must keep green: lint (gofmt, vet,
# staticcheck — the same step CI's lint job runs), build, the full test
# suite, and the race pass over the packages with concurrent hot paths
# (the Index's memoized decompositions, the fork-join runtime, and the
# match/pmdag state-set arena shared by parallel path workers). The race
# pass uses -short: it targets thread-safety, not the statistical sweeps,
# which the plain test run already covers. It then repeats, under
# -race, the par resize tests, whose global worker-count flips must not
# leak into the tests that follow them, and the park/wake test, whose
# parked joiner must always be woken by the thief that finishes its
# task; and the Index's memo-deadlock regression test (no pool task may
# wait on a memoized artifact build).

GO ?= go

.PHONY: check ci lint vet build test race loc coverage bench bench-index bench-serve benchstat bench-smoke bench-load paper-smoke serve-smoke chaos-smoke mutation-smoke fuzz-gio fuzz-snap fuzz-edits

check: lint build test race

ci: check

# lint is the exact command CI's lint job runs, so a green local `make
# check` and a green CI gate mean the same thing. staticcheck is skipped
# with a note when not installed (the CI job installs it; the container
# build must not pull dependencies).
lint: vet
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt -l found unformatted files:"; echo "$$out"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "lint: staticcheck not installed; skipping (CI installs it)"; fi

# perfbench is its own module (see perfbench/go.mod), so ./... never
# compiles it; vetting it here catches a deleted export it still calls.
vet:
	$(GO) vet ./...
	$(GO) vet -C perfbench ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./internal/index ./internal/core ./internal/par ./internal/match ./internal/pmdag ./internal/serve ./internal/obs
	$(GO) test -race -count=20 -run 'Parallelism|Resize|JoinParks' ./internal/par
	$(GO) test -count=20 -short -run TestMemoBuildsOffPool ./internal/index

# Go line counts, non-test and test, without the perfbench module: the
# figures ROADMAP's net-state line quotes. CI's lint job prints them.
loc:
	@echo "non-test Go lines: $$(find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' -exec cat {} + | wc -l)"
	@echo "test Go lines: $$(find . -name '*_test.go' ! -path './perfbench/*' -exec cat {} + | wc -l)"

# Full-suite coverage profile with a ratcheted floor (see the script for
# the ratchet policy). CI uploads coverage.out as an artifact.
coverage:
	./scripts/coverage-check.sh coverage.out

bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# The headline Index comparison: batched Scan vs independent Decide calls.
bench-index:
	$(GO) test -bench=BenchmarkIndexScan -run '^$$' -benchtime 10x .

# The serving-layer load comparison: coalesced micro-batched serving vs
# per-request Index construction on warm repeated patterns.
bench-serve:
	$(GO) test -bench=BenchmarkServeLoad -run '^$$' -benchtime 200x .

# Boot the planarsid daemon, fire a scripted curl burst, check answers.
serve-smoke:
	./scripts/serve-smoke.sh

# Boot the daemon under deterministic fault injection and prove the
# resilience layer: panic -> 500 + incident id, breaker open/half-open/
# close lifecycle with Retry-After, byte-identical answers after
# recovery, snapshot write/read faults, and a probabilistic panic storm
# under planarsiload -chaos. RACE=1 builds the daemon with -race.
chaos-smoke:
	RACE=$(RACE) ./scripts/chaos-smoke.sh

# Boot the daemon, stream edit batches at a live graph under concurrent
# planarsiload traffic, and prove the incremental index honest: answers
# byte-identical to a fresh build on the mutated edge list, and band
# invalidations strictly below the full-rebuild count. RACE=1 builds the
# daemon with -race.
mutation-smoke:
	RACE=$(RACE) ./scripts/mutation-smoke.sh

# Fuzz budget per target: 30s is the quick local pass; the nightly
# workflow overrides it (make fuzz-gio FUZZTIME=10m).
FUZZTIME ?= 30s

# Fuzz the network-facing edge-list parser.
fuzz-gio:
	$(GO) test -run '^$$' -fuzz FuzzReadEdgeList -fuzztime $(FUZZTIME) ./internal/gio

# Fuzz the snapshot decoder: arbitrary bytes must error cleanly (never
# panic or over-allocate), and inputs that decode must round-trip.
fuzz-snap:
	$(GO) test -run '^$$' -fuzz FuzzDecodeSnapshot -fuzztime $(FUZZTIME) ./internal/snap

# Fuzz the live-graph edit path: random toggle batches must either apply
# (epoch +1) or reject cleanly (epoch unchanged), and the mutated index
# must answer exactly like a fresh build on the same graph.
fuzz-edits:
	$(GO) test -run '^$$' -fuzz FuzzApplyEdits -fuzztime $(FUZZTIME) ./internal/index

# benchstat-ready runs of the perf-tracked benchmarks: the Table 1
# decision pipeline, the Fig. 6 connectivity searches and the Fig. 7
# separating search (root package) and the flat state-set
# micro-benchmarks (internal/match), 5 repetitions each. Pipe two runs
# into benchstat to compare PRs; BENCH_*.json records the trajectory.
benchstat:
	$(GO) test -bench 'Table1|Fig6Connectivity|Fig7Separating|StateSet' -benchmem -count 5 -run '^$$' . ./internal/match

# Pinned-seed smoke benchmark: every benchmark seeds its own PCG, so a
# single iteration both exercises the perf-critical paths end to end and
# fails loudly if a result drifts (each benchmark asserts its answers).
# Fig7Separating covers the separating DP where every call hits, and
# Fig6Connectivity (connectivity 2-5) the searches that miss.
# Fig5PathDAG and AblationShortcut run the path-DAG engine on long path
# targets, where the shortcut construction does most of the work.
# ListAll lists the 392 4-cycles of an 8x8 grid in one layered run.
bench-smoke:
	$(GO) test -bench 'Table1DecideOurs|Fig6Connectivity|Fig7Separating|StateSet|ScanMultiPattern|Fig5PathDAG|AblationShortcut|ListAll' -benchtime 1x -benchmem -run '^$$' . ./internal/match

# The paper's claims as shape checks: every experiment of
# internal/experiments (Table 1, Figs 1-7, Thm 4.2/4.4, Lemma 4.1, the
# ablations) on shrunken sweeps. Every check is a count or a work/depth
# figure, never wall-clock, and paperbench exits nonzero when any fails.
paper-smoke:
	$(GO) run ./cmd/paperbench -quick -all

# Short planarsiload smoke: boot the daemon, drive both arrival modes
# for a couple of seconds, assert the latency report is sound.
# BENCH_6.json records a longer run of the same tool.
bench-load:
	./scripts/bench-load.sh
