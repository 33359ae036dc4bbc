# Verification recipe. `make verify` is the tier-1 gate: gofmt, build,
# vet, the full test suite, a race-detector pass over the concurrent
# packages (the run scheduler and the sweeps routed through it, the
# cluster with its concurrent streaming clients) plus the
# fault-injection/recovery datapath and the machine-template cache,
# short fuzz smokes of the integrity tree, the run-spec grammar, the
# chaos schedule grammar and the cluster journal's reload, the daemon's
# boot smoke, and the benchmark module's own vet and tests.
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

.PHONY: fmt build vet test race fuzz smoke ctrbench-test verify bench

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
	$(GO) test -race ./internal/experiments -run 'Parallel|SweepProgress|SweepError|SweepCancel|SweepPreCancelled|SimTimeout|EnginesDeterministic|TenantsDeterministic|CapacityDeterministic'
	$(GO) test -race ./internal/faults ./internal/secmem
	$(GO) test -race ./internal/sim -run 'Tamper|Replay|Halt|CleanRunWithArmed|RunContextCancel|TemplateConcurrentAttach|TemplateBuildErrorNotCached|IntegrityTreeImageErrorNotCached'

# Boot the job server on an ephemeral port, push one simulation through
# the full HTTP path (streamed NDJSON, then a cache-hit repeat), and
# exit non-zero on any mismatch. This is the CI boot check.
smoke:
	$(GO) run ./cmd/ctrpredd -smoke -workers 2

# Short coverage-guided smokes of the integrity tree (its security
# contract under update/verify/corrupt interleavings, and its agreement
# with the eager-hashing oracle call for call), of the run-spec grammar
# every job body and CLI flag resolves through, of the chaos schedule
# grammar, and of the cluster journal's reload over torn and corrupt
# files. One `go test -fuzz` run fuzzes one target, hence one line each.
# The committed seed corpora under internal/integrity, internal/spec,
# internal/chaos and internal/cluster testdata run as regression tests
# in plain `go test` too.
fuzz:
	$(GO) test ./internal/integrity -run '^$$' -fuzz FuzzIntegrityTree -fuzztime 30s
	$(GO) test ./internal/integrity -run '^$$' -fuzz FuzzTreeMatchesEager -fuzztime 30s
	$(GO) test ./internal/spec -run '^$$' -fuzz FuzzResolve -fuzztime 30s
	$(GO) test ./internal/chaos -run '^$$' -fuzz FuzzChaosParse -fuzztime 30s
	$(GO) test ./internal/cluster -run '^$$' -fuzz FuzzJournalReload -fuzztime 30s

# cmd/ctrbench is a nested Go module, so the root `go build ./...` never
# compiles it: vet and test it here, or a change to the server or cluster
# API could break the benchmark while every root check stays green.
ctrbench-test:
	cd cmd/ctrbench && $(GO) vet ./... && $(GO) test -short ./...

verify: fmt build vet test race fuzz smoke ctrbench-test

bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x . \
		| $(GO) run ./cmd/benchjson -label '$(BENCH_LABEL)' $(BENCH_FLAGS) -o BENCH_sim.json
