GO ?= go

# BENCH_BASELINE / BENCH_NEW name the checked-in summaries the regression
# gate compares; BENCH_THRESHOLD is the min-ns/op slowdown (percent) that
# fails bench-compare.
BENCH_BASELINE ?= BENCH_PR10.json
BENCH_NEW ?= BENCH_PR13.json
BENCH_THRESHOLD ?= 10

.PHONY: tier1 tier2 fuzz-smoke bench bench-compare determinism experiments-golden ensemble-golden smoke

# tier1 is the gate every change must keep green: full build + test suite.
tier1:
	$(GO) build ./...
	$(GO) test ./...

# tier2 adds the gofmt check, static analysis, the race detector, short
# fuzz smokes over the input parsers (the corrupt-input seed corpora run even
# at -fuzztime=0, so regressions in rejected-input handling surface here
# first), and the perfbench module, which the root ./... never compiles.
tier2: tier1
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	$(GO) test -race ./...
	$(MAKE) fuzz-smoke
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# bench runs every benchmark three times and distills the text output into
# $(BENCH_NEW) (per-benchmark min/mean ns/op plus the gates below). The
# tracing gate records the RouteWithTracingOff/On overhead ratio without a
# bound (budget: <= 2% on the full-compute route path; see DESIGN.md §11).
# The focused -count=10 passes tighten the noise floor on both overhead
# pairs (min ns/op converges to the true floor as count grows).
bench:
	$(GO) test -run='^$$' -bench=. -benchmem -count=3 ./... | tee bench.out
	$(GO) test -run='^$$' -bench='EvaluateTelemetry' -count=10 -benchtime=0.5s ./internal/core | tee -a bench.out
	# RouteTracingPaired interleaves traced/untraced batches inside one
	# timer window and reports the overhead ratio itself — the only
	# estimator that resolves a ~0.5µs delta on a noisy box (separately
	# invoked Off/On minima swing by several percent either way).
	$(GO) test -run='^$$' -bench='RouteTracingPaired' -count=5 -benchtime=1s ./internal/serve | tee -a bench.out
	# RouteExplainPaired is the PR 8 explain-off gate: the explain-capable
	# route handler may cost requests that never ask for an explanation at
	# most 1% over the attribution-free body (same interleaved estimator).
	$(GO) test -run='^$$' -bench='RouteExplainPaired' -count=5 -benchtime=1s ./internal/serve | tee -a bench.out
	# The coldstart gate is the PR 9 snapshot-boot floor: booting from a
	# baked world snapshot must be at least 20x faster than the full fit
	# (measured ~55x; the margin absorbs slow CI hosts).
	$(GO) run ./cmd/benchjson -o $(BENCH_NEW) \
		-gate 'tracing=RouteWithTracingOff/RouteWithTracingOn/RouteTracingPaired' \
		-gate 'explain=RouteExplainOff/RouteExplainOn/RouteExplainPaired@1' \
		-gate 'coldstart=ColdStartFit/ColdStartSnapshot@x20' bench.out
	@rm -f bench.out

# bench-compare diffs the new summary against the checked-in baseline and
# exits nonzero when any benchmark's min ns/op regressed by at least
# $(BENCH_THRESHOLD) percent. Run `make bench` first to produce $(BENCH_NEW).
bench-compare:
	$(GO) run ./cmd/benchjson -compare -threshold $(BENCH_THRESHOLD) \
		$(BENCH_BASELINE) $(BENCH_NEW)

fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=5s ./internal/topology
	$(GO) test -run='^$$' -fuzz='^FuzzParseGraphML$$' -fuzztime=5s ./internal/topology
	$(GO) test -run='^$$' -fuzz='^FuzzParseAdvisory$$' -fuzztime=5s ./internal/forecast
	$(GO) test -run='^$$' -fuzz='^FuzzEquirectGuard$$' -fuzztime=5s ./internal/geo
	$(GO) test -run='^$$' -fuzz='^FuzzAdvisoryIngest$$' -fuzztime=5s ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzRouteQuery$$' -fuzztime=5s ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzJSONFloat$$' -fuzztime=5s ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzJournalReplay$$' -fuzztime=5s ./internal/ingest
	$(GO) test -run='^$$' -fuzz='^FuzzJournalAppendReplay$$' -fuzztime=5s ./internal/ingest
	$(GO) test -run='^$$' -fuzz='^FuzzSnapshotLoad$$' -fuzztime=5s ./internal/snapshot
	$(GO) test -run='^$$' -fuzz='^FuzzScenarioSpec$$' -fuzztime=5s ./internal/scenario

# experiments-golden reruns the reduced-scale reproduction and diffs its
# stdout against the pinned golden (linux/amd64; see
# cmd/experiments/testdata/README.md). CI runs the same diff.
experiments-golden:
	$(GO) run ./cmd/experiments -fast | diff cmd/experiments/testdata/fast.golden -

# ensemble-golden reruns a small five-family scenario sweep and diffs its
# stdout against the pinned golden (linux/amd64; see
# cmd/riskroute/testdata/README.md). CI runs the same diff.
ensemble-golden:
	$(GO) run ./cmd/riskroute ensemble -networks Sprint,NTT \
		-scenarios track=20,genesis=10,cut=40,disk=40,regional=40 \
		-blocks 4000 -event-scale 0.03 | diff cmd/riskroute/testdata/ensemble.golden -

# determinism replays the bit-identity tests under contrasting scheduler
# widths: results must not depend on how many cores the host exposes.
determinism:
	GOMAXPROCS=1 $(GO) test -run 'Deterministic' ./internal/parallel ./internal/kde ./internal/population ./internal/core
	GOMAXPROCS=4 $(GO) test -run 'Deterministic' -count=1 ./internal/parallel ./internal/kde ./internal/population ./internal/core

# smoke builds riskroute and riskrouted and runs CI's three end-to-end
# daemon smokes (scripts/*-smoke.sh) in .smoke/, which holds the binaries,
# the explain golden serve-smoke diffs against, and everything the runs
# write. Each smoke boots riskrouted on a random loopback port.
smoke:
	rm -rf .smoke
	mkdir -p .smoke/internal/serve/testdata
	cp internal/serve/testdata/explain_golden.geojson .smoke/internal/serve/testdata/
	$(GO) build -o .smoke/riskroute_cli ./cmd/riskroute
	$(GO) build -o .smoke/riskrouted ./cmd/riskrouted
	cd .smoke && bash ../scripts/serve-smoke.sh
	cd .smoke && bash ../scripts/bake-smoke.sh
	cd .smoke && bash ../scripts/ingest-crash-smoke.sh
