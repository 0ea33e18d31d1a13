GO ?= go

.PHONY: tier1 tier2 fuzz-smoke bench bench-compare determinism experiments-golden experiments-full-golden ensemble-golden smoke

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
# the git-ignored bench.json (per-benchmark min/mean ns/op plus the gates
# below). The tracing gate records the RouteWithTracingOff/On overhead
# ratio without a bound (budget: <= 2% on the full-compute route path; see
# DESIGN.md §11). The focused -count=10 pass tightens the noise floor on
# the telemetry pair (min ns/op converges to the true floor as count grows).
bench:
	$(GO) test -run='^$$' -bench=. -benchmem -count=3 ./... | tee bench.out
	$(GO) test -run='^$$' -bench='EvaluateTelemetry' -count=10 -benchtime=0.5s ./internal/core | tee -a bench.out
	# RouteTracingPaired interleaves traced/untraced batches inside one
	# timer window and reports the overhead ratio itself — the only
	# estimator that resolves a ~0.5µs delta on a noisy box (separately
	# invoked Off/On minima swing by several percent either way).
	$(GO) test -run='^$$' -bench='RouteTracingPaired' -count=5 -benchtime=1s ./internal/serve | tee -a bench.out
	# The coldstart gate, the one enforced bound, is the snapshot-boot
	# floor: booting from a baked world snapshot must be at least 20x faster
	# than the full fit (measured 66x on a 2-vCPU host; the margin absorbs
	# slow CI hosts).
	$(GO) run ./cmd/benchjson -o bench.json \
		-gate 'tracing=RouteWithTracingOff/RouteWithTracingOn/RouteTracingPaired' \
		-gate 'coldstart=ColdStartFit/ColdStartSnapshot@x20' bench.out
	@rm -f bench.out

# bench-compare runs the route and set-up benchmarks on commit BASE and on
# the working tree, in ABBA order on this machine, and exits nonzero when
# any benchmark's min ns/op regressed by at least 10 percent
# (scripts/bench-compare.sh; CI's bench job runs the same script):
#   make bench-compare BASE=main
bench-compare:
	bash scripts/bench-compare.sh $(BASE)

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

# experiments-golden reruns the reduced-scale reproduction into fast.out
# and diffs it against the pinned golden (linux/amd64; see
# cmd/experiments/testdata/README.md). The run and the diff are separate
# steps, so a run that exits non-zero fails the target even when its stdout
# matches. CI's experiments-golden job runs this target.
experiments-golden:
	$(GO) run ./cmd/experiments -fast > fast.out
	diff cmd/experiments/testdata/fast.golden fast.out

# experiments-full-golden does the same for the paper-scale run (~15 s on 2
# vCPUs), whose tables and figures EXPERIMENTS.md reports: it reruns
# cmd/experiments into full.out and diffs it against full.golden, run and
# diff as separate steps. CI's experiments-full-golden job runs this target.
experiments-full-golden:
	$(GO) run ./cmd/experiments > full.out
	diff cmd/experiments/testdata/full.golden full.out

# ensemble-golden reruns a small five-family scenario sweep into
# ensemble.out and diffs it against the pinned golden (linux/amd64; see
# cmd/riskroute/testdata/README.md), run and diff as separate steps like
# experiments-golden. CI's ensemble-golden job runs this target.
ensemble-golden:
	$(GO) run ./cmd/riskroute ensemble -networks Sprint,NTT \
		-scenarios track=20,genesis=10,cut=40,disk=40,regional=40 \
		-blocks 4000 -event-scale 0.03 > ensemble.out
	diff cmd/riskroute/testdata/ensemble.golden ensemble.out

# determinism replays the bit-identity tests under contrasting scheduler
# widths: results must not depend on how many cores the host exposes. CI's
# analysis job runs this target.
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
