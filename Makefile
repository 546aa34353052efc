# Standard development targets; CI runs `make ci`.

GO ?= go

.PHONY: all vet orapvet audit fmt build perfbench test race fuzz-smoke bench bench-parallel bench-smoke bench-json ci

all: vet build test

vet:
	$(GO) vet ./...

# The repo's own invariants (no math/rand or wall-clock reads in
# internal/, ir.Program immutability, race-leg test hygiene, no exported
# func or method without a caller outside its package, resolved over the
# typechecked tests, examples/ and perfbench/ too) plus the
# interprocedural secret-flow engine behind the nosecret rule; see
# cmd/orapvet and DESIGN.md "Static analysis". The
# binary is built once so CI can rerun it with -report for the
# machine-readable artifact without a second compile.
orapvet:
	$(GO) build -o bin/orapvet ./cmd/orapvet
	./bin/orapvet -report VET_report.json

# Security clean-sweep: every shipped circuit × all five locking schemes
# through the audit analyzer, plus the weighted + OraP oracle pairing.
# Random XOR must fire the fingerprint/removability rules; OraP configs
# must audit error-free with full key entropy. See cmd/orapaudit -sweep.
audit:
	$(GO) run ./cmd/orapaudit -sweep

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

# The repository benchmark is a nested module (perfbench/go.mod), so
# `go build ./...` never sees it; vetting it here fails the build when a
# change deletes or renames anything the benchmark calls.
perfbench:
	cd perfbench && $(GO) vet .

test:
	$(GO) test ./...

# Whole-repo race leg. -short skips the 2e6-draw RNG disjointness scan,
# which is slow under the race runtime and single-goroutine anyway; the
# orapvet shortrace rule guarantees no goroutine-spawning test hides
# behind the same gate. `go test` always executes the checked-in fuzz
# seed corpora (internal/sat's FuzzSolver/FuzzParseDIMACS included), so
# this leg also replays the solver crashers under the race detector.
race:
	$(GO) test -race -short ./...

# Ten seconds of real fuzzing on each loader fuzz target, the BDD kernel
# and the SAT solver (`go test` alone only replays their seed corpora).
# Parse runs no validator: FuzzRoundTrip checks that every circuit it
# accepts compiles, formats and reparses, and FuzzCheckCircuit that the
# checker never panics on whatever the parser makes of arbitrary text.
# FuzzITE checks the unique table, the lossy computed cache, the
# Flip/Exists memos and Mark/Rollback/Reset against truth tables.
# FuzzSolver checks models, determinism and, with derived variables,
# that every variable is assigned and that the verdict matches a twin
# solver where those variables are ordinary. FuzzMarkRollback checks
# that a solver rolled back to a mark answers like one that never saw
# what the mark added; its rounds can call reduceDB, which on its
# 60-variable random 3-SAT bases evicts learned clauses from both sides
# of the mark and compacts the arena before the rollback. A crasher
# lands in the package's testdata/fuzz/ for checking in.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzRoundTrip$$' -fuzztime 10s ./internal/bench
	$(GO) test -run '^$$' -fuzz '^FuzzCheckCircuit$$' -fuzztime 10s ./internal/check
	$(GO) test -run '^$$' -fuzz '^FuzzITE$$' -fuzztime 10s ./internal/bdd
	$(GO) test -run '^$$' -fuzz '^FuzzSolver$$' -fuzztime 10s ./internal/sat
	$(GO) test -run '^$$' -fuzz '^FuzzMarkRollback$$' -fuzztime 10s ./internal/sat

bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# The serial-vs-parallel pairs behind the Performance sections of README
# and EXPERIMENTS.md.
bench-parallel:
	$(GO) test -run '^$$' -bench 'Serial|Parallel' -benchtime 3x .

# One-iteration compile-and-run pass over the SAT-engine, ATPG, dataflow,
# BDD, audit, Hamming-distance and vet benchmarks: the SAT attack on the cone-of-influence miter
# (a 10-bit weighted lock's few hard solves, and an 8-bit SARLock's
# easy incremental ones, which must number exactly 255 DIPs), the key equivalence check under correct and wrong keys, the propagation
# microbench, the SAT-ATPG campaign on the tables workload's costliest
# locked designs, the four-domain fixpoint sweep (the pair domain once
# per 64-key slice, as the audit runs it), a BDD cone compile and the
# exact audit (one compile per cone group, fallbacks must stay 0), the
# structural audit of the weighted-locked b19@0.05 (its 8,914 findings
# pinned, the one large report sort), random fault simulation of
# b20@0.05 serial and parallel (each must detect exactly 4,839 of its
# 5,079 collapsed faults), the
# Hamming-distance kernel on Table I's s38417@0.1 lock, and a full
# secret-flow analysis of the orapvet fixture module. Catches benchmark
# bit-rot in CI without paying for stable timings.
bench-smoke:
	$(GO) test -run '^$$' -bench 'SATAttack|VerifyKey|SolverPropagate|ATPG|Dataflow|BDDCompile|ExactCorrupt|HammingDistanceTableI|VetModule' -benchtime 1x ./internal/attack ./internal/sat ./internal/atpg ./internal/dataflow ./internal/bdd ./internal/audit ./internal/metrics ./internal/vet
	$(GO) test -run '^$$' -bench '^Benchmark(Audit|FaultSimSerial|FaultSimParallel)$$' -benchtime 1x .

# Machine-readable oracle-channel benchmarks: a 64-lane scan-protocol
# batch, a fully memoised session batch, disagreement sampling and a full
# AppSAT run, emitted as `go test -json` into BENCH_oracle.json for
# dashboards and regression diffing. BENCHTIME=3x for stabler numbers;
# CI runs the 1x default as a smoke pass.
BENCHTIME ?= 1x
bench-json:
	$(GO) test -run '^$$' -bench 'ScanOracle|SessionCached|SampleDisagreement|AppSAT' \
		-benchtime $(BENCHTIME) -json ./internal/oracle ./internal/attack > BENCH_oracle.json

ci: vet fmt orapvet audit build perfbench test race fuzz-smoke bench-smoke bench-json
