# Entry points for the dramscope reproduction.
#
#   make test    - full tier-1 verify (build + vet + all tests)
#   make race    - full test suite under the race detector
#   make short   - fast unit tests only (skips catalog-scale probes)
#   make bench   - regenerate every paper artifact as benchmarks
#   make bench-snapshot - re-measure and commit the perf snapshots
#                  (BENCH_suite.json / BENCH_campaign.json: ns/ACT,
#                  cold/warm suite wall time, campaign throughput;
#                  BENCH_serve.json: serving-layer load test — latency
#                  percentiles, coalesce rate, rejects)
#   make bench-check - CI smoke gate: fail if the cold- or warm-suite
#                  ns/ACT regressed more than 1.5x vs the committed
#                  snapshot (GOMAXPROCS pinned to 1 on both sides),
#                  if BENCH_serve.json records 5xx errors or zero
#                  coalesced requests, or if tracing the cold suite
#                  costs more than 5% wall time
#   make perfbench-smoke - run every BENCHMARK.json workload for a 5 s
#                  window (perfbench/run.sh) and fail unless each result
#                  line reports correct outputs and no failed operations
#   make bench-profile - capture a CPU profile of a warm suite run
#                  (PROFILE_OUT, default bench.prof) for inspection
#                  with `go tool pprof`
#   make load    - hammer a self-hosted server with examples/loadgen
#                  and print the ServeBench numbers (no files written)
#   make suite   - run the concurrent experiment suite (all artifacts)
#   make serve   - boot the HTTP run service (cmd/dramscoped)
#   make golden  - regenerate the golden-report fixtures (full suite +
#                  campaign aggregate) after an intentional output
#                  change (review the diff!)
#   make campaign - run the golden campaign population from the CLI
#                  (3 vendors x 2 seeds, per-device recovery)
#   make fleet   - federation tests: fault injection, placement
#                  invariance, and the golden campaign byte-diffed
#                  over 1/2/4 worker nodes
#   make clean-store - delete the local probe-artifact store
#                  (STORE_DIR, default ./dramscope-store); do this after
#                  changing probe code without bumping ProbeSchemaVersion
#
# SUITE_FLAGS passes through to cmd/experiments, e.g.
#   make suite SUITE_FLAGS='-run fig12,fig14 -jobs 8 -shards 32 -json out.json'
#   make suite SUITE_FLAGS='-run all -store dramscope-store'  # warm runs skip probing
# SERVE_FLAGS passes through to cmd/dramscoped, e.g.
#   make serve SERVE_FLAGS='-addr :9000 -budget 8 -cache 128 -store dramscope-store'

GO ?= go
SUITE_FLAGS ?= -run all
SERVE_FLAGS ?=
STORE_DIR ?= dramscope-store

.PHONY: build test race short bench bench-snapshot bench-check perfbench-smoke bench-profile load suite serve vet golden campaign fleet clean-store

# The golden campaign population (mirrored by expt.GoldenCampaign and
# asserted by TestGoldenCampaignReport): one representative device per
# vendor x two seeds, each run recovering its own Table III row.
GOLDEN_CAMPAIGN = -campaign 'MfrA-DDR4-x4-2016,MfrB-DDR4-x4-2019,MfrC-DDR4-x8-2016' -seeds 5,7 -run recover

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: build vet
	$(GO) test ./...

race:
	$(GO) test -race -timeout 40m ./...

short:
	$(GO) test -short ./...

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# The committed perf snapshots record the hot path's trajectory
# (ns/ACT is the headline; wall times are machine-dependent context).
# Refresh them on a quiet machine after intentional perf changes and
# commit the diff.
bench-snapshot:
	$(GO) run ./cmd/benchsnap
	$(GO) run ./examples/loadgen -selfhost -duration 5s -min-coalesced 1 -max-5xx 0 -out BENCH_serve.json

bench-check:
	$(GO) run ./cmd/benchsnap -check

# The end-to-end benchmark's correctness gate, in miniature: each
# workload's short run must report every output correct and no failed
# operation, the same verdict a full benchmark run has to reach.
perfbench-smoke:
	set -e; for w in $$(jq -r '.workloads[].name' BENCHMARK.json); do \
		out=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 5 --trace 0); \
		line=$$(printf '%s\n' "$$out" | tail -n 1); \
		echo "$$w: $$line"; \
		printf '%s\n' "$$line" | jq -e -n 'input | .correct == true and .failed == 0' > /dev/null || \
			{ echo "perfbench-smoke: $$w reported incorrect outputs or failed operations" >&2; exit 1; }; \
	done

# A CPU profile of the warm measurement path: populate a throwaway
# store with one cold suite run, then profile the warm run that hits
# the arena + flip-table kernels. CI uploads the profile as a
# bench-smoke artifact so a regression comes with its own flame graph.
PROFILE_OUT ?= bench.prof
bench-profile:
	set -e; dir=$$(mktemp -d /tmp/dramscope-profile-XXXXXX); \
	trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/experiments -run all -store "$$dir" > /dev/null; \
	$(GO) run ./cmd/experiments -run all -store "$$dir" -cpuprofile $(PROFILE_OUT) > /dev/null
	@echo "wrote $(PROFILE_OUT); inspect with: $(GO) tool pprof $(PROFILE_OUT)"

# LOAD_FLAGS passes through to examples/loadgen, e.g.
#   make load LOAD_FLAGS='-duration 30s -clients 64 -hot 0.5'
LOAD_FLAGS ?= -duration 5s
load:
	$(GO) run ./examples/loadgen -selfhost $(LOAD_FLAGS)

suite:
	$(GO) run ./cmd/experiments $(SUITE_FLAGS)

serve:
	$(GO) run ./cmd/dramscoped $(SERVE_FLAGS)

# The fixtures are the full default-profile/default-seed suite report
# and the golden-campaign aggregate; TestGoldenSuiteReport and
# TestGoldenCampaignReport fail on any byte of drift from them.
golden:
	$(GO) run ./cmd/experiments -run all -json internal/expt/testdata/suite_report.json > /dev/null
	$(GO) run ./cmd/experiments $(GOLDEN_CAMPAIGN) -json internal/expt/testdata/campaign_report.json > /dev/null

# The federation gate: fault-injection and placement-invariance tests
# under the race detector, then the golden campaign federated over
# 1/2/4 in-process worker nodes and byte-diffed against the fixture.
fleet:
	$(GO) test -race -count=1 -run 'Federated|RetryAfter' -timeout 20m ./internal/serve/
	$(GO) test -race -count=1 ./internal/serve/dispatch/
	$(GO) test -count=1 -run 'TestFederatedCampaignBytes' -timeout 20m ./internal/serve/

# CAMPAIGN_FLAGS appends extras, e.g.
#   make campaign CAMPAIGN_FLAGS='-store dramscope-store -progress'
campaign:
	$(GO) run ./cmd/experiments $(GOLDEN_CAMPAIGN) $(CAMPAIGN_FLAGS)

# The store is a pure cache: deleting it is always safe (the next run
# re-probes) and is the invalidation of last resort for dev builds,
# whose entries share one "dev" fingerprint (see internal/store).
clean-store:
	rm -rf $(STORE_DIR)
