# Verification recipe. `make verify` is the tier-1 gate: gofmt, build,
# vet, the full test suite, a race-detector pass over the concurrent
# packages (the run scheduler and the sweeps routed through it) plus
# the fault-injection/recovery datapath, and short fuzz smokes of the
# integrity tree and the run-spec grammar.
#
# `make bench` runs the benchmark suite once and appends a labeled entry
# to the tracked ledger BENCH_sim.json (label via BENCH_LABEL=...), so
# perf changes land with their before/after numbers. benchjson refuses a
# label the ledger already holds (re-record deliberately with
# BENCH_FLAGS=-force) and prints non-blocking warnings for metrics that
# regressed >10% against the previous entry. See EXPERIMENTS.md for the
# profiling workflow built on top of it.

GO ?= go
BENCH_LABEL ?= local
BENCH_FLAGS ?=

.PHONY: fmt build vet test race fuzz smoke loadtest-smoke loadtest chaos-smoke chaos capacity-smoke ctrbench-test verify bench

# Every tracked Go file must be gofmt-clean; the target lists offenders
# and fails when there are any.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The experiments race run is restricted to the tests that exercise the
# worker pool; a full -race suite multiplies the 40 s experiment tests
# several-fold for no extra concurrency coverage. cryptoengine rides
# along (it is cheap) so the engine-model conformance suite runs under
# the race detector too — engine models are shared state inside every
# concurrently-run machine of a sweep.
race:
	$(GO) test -race ./internal/runpool ./internal/server ./internal/cryptoengine ./internal/cluster ./internal/chaos ./internal/tenancy
	$(GO) test -race ./internal/experiments -run 'Parallel|SweepProgress|SweepError|SweepCancel|SweepPreCancelled|SimTimeout|EnginesDeterministic|TenantsDeterministic'
	$(GO) test -race ./internal/faults ./internal/secmem
	$(GO) test -race ./internal/sim -run 'Tamper|Replay|Halt|CleanRunWithArmed|RunContextCancel'

# Boot the job server on an ephemeral port, push one simulation through
# the full HTTP path (streamed NDJSON, then a cache-hit repeat), and
# exit non-zero on any mismatch. This is the CI boot check.
smoke:
	$(GO) run ./cmd/ctrpredd -smoke -workers 2

# Boot a 2-worker cluster behind a coordinator in-process, drive it
# with concurrent streaming clients through cold/warm/verify phases,
# and assert byte-identity with single-node plus a >=95% warm-cache
# ratio. The cluster-mode analogue of the daemon smoke above.
loadtest-smoke:
	$(GO) run ./cmd/loadtest -smoke

# The full cluster load report (1/2/4 workers), appended to the ledger.
loadtest:
	$(GO) run ./cmd/loadtest -nodes 1,2,4 -requests 8 -seeds 8 -clients 8 -bench \
		| grep '^Benchmark' \
		| $(GO) run ./cmd/benchjson -label '$(BENCH_LABEL)' $(BENCH_FLAGS) -o BENCH_sim.json

# The chaos analogue of loadtest-smoke: the same 2-worker cluster and
# byte-identity assertions, but every coordinator->worker connection
# runs through internal/chaos's fault-injecting transport. The clients
# must still see only clean, identical answers.
chaos-smoke:
	$(GO) run ./cmd/loadtest -smoke -chaos 'latency:p=0.1,ms=50;err:p=0.1,status=503;corrupt:p=0.05' -chaos-seed 7

# The full chaos load report, appended to the ledger under its own
# benchmark family (resilience overhead, not clean-path throughput).
chaos:
	$(GO) run ./cmd/loadtest -nodes 1,2,4 -requests 8 -seeds 8 -clients 8 -bench \
		-chaos 'latency:p=0.1,ms=50;err:p=0.1,status=503;corrupt:p=0.05' -chaos-seed 7 \
		| grep '^Benchmark' \
		| $(GO) run ./cmd/benchjson -label '$(BENCH_LABEL)' $(BENCH_FLAGS) -o BENCH_sim.json

# Determinism smoke of the capacity planner: the same tiny capacity
# grid swept sequentially and with four workers must produce identical
# metrics snapshots — the search's convergence contract.
capacity-smoke:
	$(GO) run ./cmd/experiments -exp capacity -bench gzip -instr 5000 -maxtenants 3 \
		-progress=false -j 1 -metrics /tmp/ctrpred_capacity_j1.json >/dev/null
	$(GO) run ./cmd/experiments -exp capacity -bench gzip -instr 5000 -maxtenants 3 \
		-progress=false -j 4 -metrics /tmp/ctrpred_capacity_j4.json >/dev/null
	cmp /tmp/ctrpred_capacity_j1.json /tmp/ctrpred_capacity_j4.json
	rm -f /tmp/ctrpred_capacity_j1.json /tmp/ctrpred_capacity_j4.json

# Short coverage-guided smokes of the integrity tree (its security
# contract under update/verify/corrupt interleavings, and its agreement
# with the eager-hashing oracle call for call) and of the run-spec
# grammar every job body and CLI flag resolves through. One
# `go test -fuzz` run fuzzes one target, hence one line each. The
# committed seed corpora under internal/integrity/testdata and
# internal/spec/testdata run as regression tests in plain `go test` too.
fuzz:
	$(GO) test ./internal/integrity -run '^$$' -fuzz FuzzIntegrityTree -fuzztime 30s
	$(GO) test ./internal/integrity -run '^$$' -fuzz FuzzTreeMatchesEager -fuzztime 30s
	$(GO) test ./internal/spec -run '^$$' -fuzz FuzzResolve -fuzztime 30s

# cmd/ctrbench is a nested Go module, so the root `go build ./...` never
# compiles it: vet and test it here, or a change to the server or cluster
# API could break the benchmark while every root check stays green.
ctrbench-test:
	cd cmd/ctrbench && $(GO) vet ./... && $(GO) test -short ./...

verify: fmt build vet test race fuzz smoke loadtest-smoke chaos-smoke capacity-smoke ctrbench-test

bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x . \
		| $(GO) run ./cmd/benchjson -label '$(BENCH_LABEL)' $(BENCH_FLAGS) -o BENCH_sim.json
