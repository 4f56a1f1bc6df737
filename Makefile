GO ?= go
GOFMT ?= gofmt

.PHONY: check fmt-check vet build test perf-guards bench-smoke bench-module bench fuzz-smoke chaos-smoke metrics-smoke dr-smoke

## check: the full verification gate — formatting, static analysis, build,
## race-enabled tests, the write-count and alloc guards without the race
## detector, and a one-iteration smoke pass over every benchmark (which also
## exercises the alloc-reporting paths). Speed itself is judged by
## `bash bench/run.sh` against BENCHMARK.json (see bench/README.md); nothing
## here compares nanoseconds.
check: fmt-check vet build test perf-guards bench-smoke

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

## perf-guards: the host-independent performance gates, and the only perf gate
## besides the benchmark — allocations per invocation (on a reference that owns
## its connection and on one that shares it) and per encoded or decoded GIOP
## message, exact; transport writes per burst and per invocation under the
## replicated path, write system calls per invocation of the whole replicated
## path, transport writes and reads per control-plane frame (GCS hub and member, naming call), dials per
## naming session (one) and inside a crash re-resolution (the replica's only),
## the naming server's Close not waiting for idle sessions, the hub sequencer
## staying off the sockets, appends per log-file write and per durable-writer
## wake-up, a checkpoint never truncating an op it does not cover, Dial calls inside a
## MEAD hand-off whose standby is ready (none), the transports a hand-off leaves
## (old, replaced, given up) closed behind the caller, not in front of the
## reply, wire bytes identical to the
## recorded parent-side streams, SyncLists after a crash view (none) and a join
## (one), recovery queries (one) and answers (one per member) per join, one
## decode of a checkpoint per consuming goroutine, requests read in one piece
## dispatched concurrently (a lone one runs on the reader: 0 allocs/op per
## invocation, through the ORB and through a MEAD-message client strategy),
## and the zero-allocation guards. `make test` runs them too, but under -race sync.Pool drops a quarter of its Puts,
## which hides an allocation behind the slack the guards then need; here they
## run exact.
perf-guards:
	$(GO) test -count=1 -run 'AllocsExact|OneWrite|ShareServerWrites|WriteSyscalls|SplitsBatch|ResendsBatch|DoNotAllocate|DispatchAllocatesNothing|GroupCommits|WakesWriterOnce|KeepsUncoveredOps|FlushesConcurrent|HandOffDialsNothing|ClosesBehind|SequencerNeverCloses|SlowConsumer|WireBytesMatchParent|ReaderDrains|SessionDialsOnce|ReresolveDialsOnlyTheReplica|CloseDoesNotWait|CrashViewSendsNoSyncList|JoinCostsOneAnswerPerMember|DispatchConcurrently' \
		./internal/giop/ ./internal/interceptor/ ./internal/orb/ ./internal/durable/ ./internal/ftmgr/ \
		./internal/gcs/ ./internal/namesvc/ ./internal/frame/ ./internal/client/ ./internal/experiment/ \
		./internal/replica/ ./internal/recovery/

## chaos-smoke: the deterministic network-chaos suite — the netfault
## injector's own tests plus the {scheme × fault-plan} conformance matrix
## and the same-seed determinism check, all race-enabled — and twenty
## race-enabled passes of the hand-off tests, which race the close a swap
## leaves behind against Close, OnClose and the standby's dial, and of the
## replica's rejuvenation-trigger tests: T2 crossed on the write path with
## the reply's connection open (the connection-closed hook rejuvenates: after
## a MEAD hand-off, and behind a lone request the server's reader ran itself)
## and with none left open (the migrate callback does: two requests in one
## write, dispatched on goroutines that reply after the close is seen).
chaos-smoke:
	$(GO) test -race -count=1 -run 'Chaos|Cut|Blackhole|Partition|Duplicate|ShortWrites|Latency|Seeded|Determin|Table1' \
		./internal/netfault/ ./internal/experiment/
	$(GO) test -race -count=20 -run 'Swap|HandOff|Standby|CloseReleases|OnClose' \
		./internal/interceptor/ ./internal/ftmgr/
	$(GO) test -race -count=20 -run 'Rejuvenat' ./internal/replica/

## metrics-smoke: boot a real multi-process deployment with -metrics, drive
## a client workload, and validate the Prometheus/JSON/JSONL responses of
## the telemetry endpoint.
metrics-smoke:
	sh scripts/metrics_smoke.sh

## dr-smoke: the disaster-recovery gate — the durable subsystem's own tests
## (the perf guards on appends per write and wake-up and the
## uncovered-op checkpoint regression among them) plus the disaster chaos
## suite (kill-all cold restart, torn-tail and corrupted-record truncation,
## restart-time at-most-once) and the replica and FT-manager packages, whose
## tests cover state transfer (checkpoints and the recovery handshake over a
## real hub), race-enabled, then a real multi-process kill-all drill over
## -statedir.
dr-smoke:
	$(GO) test -race -count=1 ./internal/durable/ ./internal/replica/ ./internal/ftmgr/
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

## fuzz-smoke: a short burst over each fuzz target (decode paths and the CDR
## string reader, the control-plane frame reader, the interceptor's read
## side against giop.FrameAt) to keep them healthy;
## CI-friendly at under a minute.
fuzz-smoke:
	$(GO) test ./internal/giop/ -run '^$$' -fuzz FuzzDecodeRequest -fuzztime 8s
	$(GO) test ./internal/giop/ -run '^$$' -fuzz FuzzDecodeReply -fuzztime 8s
	$(GO) test ./internal/cdr/ -run '^$$' -fuzz FuzzReadString -fuzztime 8s
	$(GO) test ./internal/cdr/ -run '^$$' -fuzz FuzzDecoderStream -fuzztime 8s
	$(GO) test ./internal/durable/ -run '^$$' -fuzz FuzzLogRecordDecode -fuzztime 8s
	$(GO) test ./internal/durable/ -run '^$$' -fuzz FuzzCheckpointDecode -fuzztime 8s
	$(GO) test ./internal/frame/ -run '^$$' -fuzz FuzzReader -fuzztime 8s
	$(GO) test ./internal/interceptor/ -run '^$$' -fuzz FuzzReadSplitsLikeFrameAt -fuzztime 8s
