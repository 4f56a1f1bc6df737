GO ?= go
GOFMT ?= gofmt

# BENCH_ID numbers the committed benchmark snapshot (BENCH_$(BENCH_ID).json);
# bump it when a PR re-baselines the perf gate.
BENCH_ID ?= 10
BENCH_PATTERN = GIOPRequestEncode|GIOPRequestDecode|GIOPReplyDecode|SerializedInvocations|PipelinedInvocations

.PHONY: check fmt-check vet build test wire-guards bench-smoke bench-module bench bench-json bench-compare fuzz-smoke chaos-smoke metrics-smoke dr-smoke

## check: the full verification gate — formatting, static analysis, build,
## race-enabled tests, the write-count and alloc guards without the race
## detector, and a one-iteration smoke pass over every benchmark (which also
## exercises the alloc-reporting paths). Run `make bench-compare`
## afterwards to gate wire-path performance against the committed
## BENCH_$(BENCH_ID).json snapshot, and `make bench-json` to re-baseline it.
check: fmt-check vet build test wire-guards bench-smoke

## fmt-check: fail (listing the offenders) when any tracked Go file is not
## gofmt-clean.
fmt-check:
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

## wire-guards: the host-independent performance gates — transport writes per
## burst and per invocation under the replicated path, transport writes and
## reads per control-plane frame (GCS hub and member, naming call), dials per
## naming session (one) and inside a crash re-resolution (the replica's only),
## the naming server's Close not waiting for idle sessions, the hub sequencer
## staying off the sockets, appends per log-file write, Dial calls inside a
## MEAD hand-off whose standby is ready (none), wire bytes identical to the
## recorded parent-side streams, and the zero-allocation guards. `make
## test` runs them too, but under -race sync.Pool drops a quarter of its Puts,
## which hides an allocation behind the slack the guards then need; here they
## run exact.
wire-guards:
	$(GO) test -count=1 -run 'OneWrite|ShareServerWrites|SplitsBatch|ResendsBatch|DoNotAllocate|DispatchAllocatesNothing|GroupCommits|FlushesConcurrent|HandOffDialsNothing|SequencerNeverCloses|SlowConsumer|WireBytesMatchParent|ReaderDrains|SessionDialsOnce|ReresolveDialsOnlyTheReplica|CloseDoesNotWait' \
		./internal/interceptor/ ./internal/orb/ ./internal/durable/ ./internal/ftmgr/ \
		./internal/gcs/ ./internal/namesvc/ ./internal/frame/ ./internal/client/

## chaos-smoke: the deterministic network-chaos suite — the netfault
## injector's own tests plus the {scheme × fault-plan} conformance matrix
## and the same-seed determinism check, all race-enabled.
chaos-smoke:
	$(GO) test -race -count=1 -run 'Chaos|Cut|Blackhole|Partition|Duplicate|ShortWrites|Latency|Seeded|Determin|Table1' \
		./internal/netfault/ ./internal/experiment/

## metrics-smoke: boot a real multi-process deployment with -metrics, drive
## a client workload, and validate the Prometheus/JSON/JSONL responses of
## the telemetry endpoint.
metrics-smoke:
	sh scripts/metrics_smoke.sh

## dr-smoke: the disaster-recovery gate — the durable subsystem's own tests
## plus the disaster chaos suite (kill-all cold restart, torn-tail and
## corrupted-record truncation, restart-time at-most-once), race-enabled,
## then a real multi-process kill-all drill over -statedir.
dr-smoke:
	$(GO) test -race -count=1 ./internal/durable/
	$(GO) test -race -count=1 -run 'Disaster' ./internal/experiment/
	sh scripts/dr_smoke.sh

## bench-smoke: run every benchmark once. Catches bit-rot in the benchmark
## harnesses (including the alloc-guarded GIOP/CDR micro-benches and the
## pipelined-invocation throughput benches) without the cost of a real
## measurement run.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

## bench-module: vet, build and smoke-test the nested meadbench module under
## bench/. It is its own Go module (it imports mead/internal/... through a
## replace directive), so `go build ./... && go test ./...` at the root never
## compiles it; run this whenever a package it imports changes.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) build -o /dev/null ./... && $(GO) test ./...

## bench: a real measurement pass over the transport benchmarks used in
## EXPERIMENTS.md (encode/decode micro-benches and serialized-vs-pipelined
## invocation throughput).
bench:
	$(GO) test -run '^$$' -bench 'GIOPRequestEncode|GIOPRequestDecode|GIOPReplyDecode|RequestParse|Invocations' -benchmem -benchtime=20000x .

## bench-json: write the machine-readable benchmark snapshot
## BENCH_$(BENCH_ID).json at the repo root — the perf-gate baseline that CI
## compares fresh runs against. Runs the wire-path benches repeatedly at
## GOMAXPROCS 1/2/4 and keeps the per-bench MAXIMUM ns/op (and maximum
## allocs/op): the baseline records the slowest observed estimate while the
## bench-compare gate keeps the fastest of its fresh runs, so the 15%
## ns/op margin gates genuine regressions rather than run-to-run scheduler
## noise. Pure go; no external tools.
bench-json:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -benchtime=10000x -count=3 -cpu 1,2,4 . \
		| $(GO) run ./scripts/benchjson -keep max > BENCH_$(BENCH_ID).json
	@echo "wrote BENCH_$(BENCH_ID).json"

## bench-compare: re-measure the wire-path benches and fail if any regresses
## against the committed BENCH_$(BENCH_ID).json: 15% ns/op on the
## encode/decode micro-benches, 60% on the macro TCP round-trip invocation
## benches (their wall clock swings ~35% run-to-run on an idle host), and
## any added allocation on a zero-alloc-guarded path. This is the CI perf
## gate.
bench-compare:
	@tmp="$$(mktemp)"; trap 'rm -f "$$tmp"' EXIT; \
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -benchtime=10000x -count=3 -cpu 1,2,4 . \
		| $(GO) run ./scripts/benchjson > "$$tmp" && \
	$(GO) run ./scripts/benchcompare BENCH_$(BENCH_ID).json "$$tmp"

## fuzz-smoke: a short burst over each fuzz target (decode paths and the CDR
## string reader, the control-plane frame reader) to keep them healthy;
## CI-friendly at under a minute.
fuzz-smoke:
	$(GO) test ./internal/giop/ -run '^$$' -fuzz FuzzDecodeRequest -fuzztime 8s
	$(GO) test ./internal/giop/ -run '^$$' -fuzz FuzzDecodeReply -fuzztime 8s
	$(GO) test ./internal/cdr/ -run '^$$' -fuzz FuzzReadString -fuzztime 8s
	$(GO) test ./internal/cdr/ -run '^$$' -fuzz FuzzDecoderStream -fuzztime 8s
	$(GO) test ./internal/durable/ -run '^$$' -fuzz FuzzLogRecordDecode -fuzztime 8s
	$(GO) test ./internal/durable/ -run '^$$' -fuzz FuzzCheckpointDecode -fuzztime 8s
	$(GO) test ./internal/frame/ -run '^$$' -fuzz FuzzReader -fuzztime 8s
