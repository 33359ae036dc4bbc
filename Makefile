# Verification recipe. `make verify` is the tier-1 gate: gofmt, build,
# vet, the full test suite, the crypto kernels' portable fallback held to
# the references and snapshots, a race-detector pass over the concurrent
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
# BENCH_FLAGS=-force) and compares the new entry with the most recent
# earlier entry that ran the same benchmarks (saying so when none did):
# non-blocking warnings for metrics that regressed >10%, then per
# benchmark the rounds the new entry won on ns/op and both medians. See
# EXPERIMENTS.md for the profiling workflow built on top of it.
#
# `make bench-ab BASE=<rev>` is a same-session A/B of the root
# benchmarks: it builds the root test binary of <rev> (from git archive,
# with this tree's bench_test.go copied in, so both sides run the same
# benchmarks) and this tree's own, runs the two alternately for ROUNDS
# rounds of 5 iterations over the BENCH regexp, and records each side in
# BENCH_sim.json as $(BENCH_LABEL)-parent and $(BENCH_LABEL). Recording
# $(BENCH_LABEL) compares it with $(BENCH_LABEL)-parent, so its ns/op
# lines are the verdict: rounds won, each round against the base's round
# run beside it. The binaries and their output live in a temporary
# directory (under $TMPDIR) removed on exit.

GO ?= go
BENCH_LABEL ?= local
BENCH_FLAGS ?=
BASE ?=
ROUNDS ?= 8
BENCH ?= .

.PHONY: fmt build vet test purego race fuzz smoke ctrbench-test verify bench bench-ab

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

# AES and SHA-256 run the standard library's kernels, which use the CPU's
# AES and SHA instructions where it has them. A host without them runs
# the stdlib's portable fallback; -tags purego forces that fallback here
# and holds it to the same reference implementations and frozen snapshots.
purego:
	$(GO) test -tags purego ./internal/aes ./internal/sha256 ./internal/ctr ./internal/integrity
	$(GO) test -tags purego ./internal/sim -run EquivalenceGolden

# The experiments race run is restricted to the tests that exercise the
# worker pool; a full -race suite multiplies the 40 s experiment tests
# several-fold for no extra concurrency coverage. The MergeParts tests
# run every grid whole and split by benchmark, through the one assemble
# a node's run and a cluster merge share; OracleCells and StudiesAverage
# run the performance-mode grids (the oracle-normalized figures and
# studies, integrity) through the pool. cryptoengine rides
# along (it is cheap) so its conformance suite runs under the race
# detector too. An engine belongs to one machine and is never shared,
# so the sweeps' concurrent machines never touch the same one.
race:
	$(GO) test -race ./internal/runpool ./internal/server ./internal/cryptoengine ./internal/cluster ./internal/chaos ./internal/tenancy
	$(GO) test -race ./internal/experiments -run 'Parallel|SweepProgress|SweepError|SweepCancel|SweepPreCancelled|SimTimeout|OracleCells|StudiesAverage|EnginesDeterministic|TenantsDeterministic|CapacityDeterministic|MergeParts'
	$(GO) test -race ./internal/faults ./internal/secmem
	$(GO) test -race ./internal/sim -run 'Tamper|Replay|Halt|CleanRunWithArmed|RunContextCancel|TemplateConcurrentAttach|TemplateBuildErrorNotCached|Group'

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

verify: fmt build vet test purego race fuzz smoke ctrbench-test

bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 1x . \
		| $(GO) run ./cmd/benchjson -label '$(BENCH_LABEL)' $(BENCH_FLAGS) -o BENCH_sim.json

# Odd rounds run the base first, even rounds this tree, so neither side
# always runs on the warmer (or the more contended) half of a round.
bench-ab:
	@test -n "$(BASE)" || { echo "usage: make bench-ab BASE=<rev> [ROUNDS=8] [BENCH=regexp] [BENCH_LABEL=name]" >&2; exit 2; }
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	mkdir "$$dir/base"; git archive "$(BASE)" | tar -x -C "$$dir/base"; \
	cp bench_test.go "$$dir/base/"; \
	(cd "$$dir/base" && $(GO) test -c -o "$$dir/base.test" .); \
	$(GO) test -c -o "$$dir/head.test" .; \
	run() { (cd "$$2" && "$$dir/$$1.test" -test.run '^$$' -test.bench '$(BENCH)' \
		-test.benchmem -test.benchtime 5x) >> "$$dir/$$1.out"; }; \
	for i in $$(seq $(ROUNDS)); do \
		echo "bench-ab: round $$i of $(ROUNDS)" >&2; \
		if [ $$((i % 2)) = 1 ]; then run base "$$dir/base"; run head .; \
		else run head .; run base "$$dir/base"; fi; \
	done; \
	$(GO) run ./cmd/benchjson -q -label '$(BENCH_LABEL)-parent' $(BENCH_FLAGS) -o BENCH_sim.json < "$$dir/base.out"; \
	$(GO) run ./cmd/benchjson -q -label '$(BENCH_LABEL)' $(BENCH_FLAGS) -o BENCH_sim.json < "$$dir/head.out"
