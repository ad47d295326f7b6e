GO ?= go

.PHONY: all build test race vet check fuzz bench bench-telemetry bench-wire bench-cache bench-tenant bench-fanout bench-obs fanout-race ledger-kill audit-kill prom-lint alloc-pins

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# ledger-kill runs the SIGKILL recovery matrix for the durable privacy
# ledger: child processes are killed at every fsync/rename boundary and at
# random instants, and recovery must never under-count acknowledged ε.
# The second pass repeats the group-commit tests: flush leaders racing
# compaction's file swap, fsync sharing, timer-free lone acks and a failed
# fsync surfacing on Status.
ledger-kill:
	$(GO) test -race -count=1 -run 'TestKill' ./internal/ledger
	$(GO) test -race -count=20 -run 'GroupCommit|RacesFlushLeader|LoneCharge|FsyncFailure' ./internal/ledger

# audit-kill is the same matrix for the tamper-evident audit log: SIGKILL
# at every append/head-write boundary must leave a chain that verifies,
# with at most benign crash artifacts (torn tail, lagged head).
audit-kill:
	$(GO) test -race -count=1 -run 'TestKill' ./internal/telemetry/audit

# fanout-race runs the sharded-dispatch and scheduler tests under the race
# detector: concurrent block fan-out, straggler duplication, failover and
# EDF admission are the raciest paths in the tree. The second pass repeats
# the shared-table tests: concurrent queries gather their blocks straight
# from one registered table while vandal programs write their private
# copies, and first queries race to seal the table.
fanout-race:
	$(GO) test -race -count=1 -run 'TestFanout|TestScheduler|TestServerOverload|TestServerDeadline|TestWorker' ./internal/compman
	$(GO) test -race -count=10 -run 'Vandal|ConcurrentFirst' . ./internal/core ./internal/compman ./internal/dataset

# alloc-pins runs the allocation pins of the query path by name: a block
# hand-off, the shared table view and CSV parsing must not allocate per
# row, so an O(n) allocation regression fails here legibly. The table
# query pin also caps the bytes a query allocates per row.
alloc-pins:
	$(GO) test -count=1 -run 'Allocations' -v ./internal/core ./internal/sandbox ./internal/dataset

# check is the pre-merge gate: static analysis plus the full suite under
# the race detector, plus dedicated passes of both kill matrices, the
# fan-out concurrency tests and the allocation pins.
check: vet race fanout-race ledger-kill audit-kill alloc-pins

# fuzz runs each fuzz target briefly; lengthen FUZZTIME for soak runs.
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/sandbox -run xxx -fuzz FuzzReadResponse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sandbox -run xxx -fuzz FuzzReadRequest -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dataset -run xxx -fuzz FuzzReadCSV -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dp -run xxx -fuzz FuzzPercentile -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dp -run xxx -fuzz FuzzAccountant -fuzztime $(FUZZTIME)
	$(GO) test ./internal/compman -run xxx -fuzz FuzzDecodeRequest -fuzztime $(FUZZTIME)
	$(GO) test ./internal/compman -run xxx -fuzz FuzzDecodeResponse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/compman -run xxx -fuzz FuzzDecodeWorkRequest -fuzztime $(FUZZTIME)
	$(GO) test ./internal/compman -run xxx -fuzz FuzzDecodeWorkResponse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/compman -run xxx -fuzz FuzzWireEquivalence -fuzztime $(FUZZTIME)
	$(GO) test ./internal/compman -run xxx -fuzz FuzzFingerprint -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ledger -run xxx -fuzz FuzzDecodeRecord -fuzztime $(FUZZTIME)

bench:
	$(GO) test -bench . -benchtime 1x -run xxx .

# bench-telemetry measures instrumentation overhead on the query hot path
# (untraced vs metrics-only vs fully traced) and regenerates the
# checked-in report. Run on an idle machine; the experiment takes the best
# of three passes to filter scheduler noise.
bench-telemetry:
	$(GO) run ./cmd/gupt-bench -quick -exp telemetry -json BENCH_PR5.json

# bench-wire compares the legacy JSON wire against the binary framing on
# both compman paths (client round trips / DP queries, worker block
# shipping) and regenerates the checked-in report. Run on an idle machine.
bench-wire:
	$(GO) run ./cmd/gupt-bench -quick -exp wire -json BENCH_PR6.json

# bench-cache measures the noisy-answer cache: hit-path vs cold-path
# latency and cumulative ε over a repeat-heavy Zipf schedule with the
# cache on vs off, and regenerates the checked-in report.
bench-cache:
	$(GO) run ./cmd/gupt-bench -quick -exp cache -json BENCH_PR7.json

# bench-tenant measures the multi-tenant front door: authn + rate-limit +
# quota hot-path overhead versus tenancy off, and rejection throughput
# under a 95%-over-quota flood, and regenerates the checked-in report.
bench-tenant:
	$(GO) run ./cmd/gupt-bench -quick -exp tenant -json BENCH_PR8.json

# bench-fanout measures the sharded block executor: QPS / p99 (bucketed) /
# blocks-per-second over a 1->2->4 worker fleet with quantum-padded blocks,
# plus a deadline-carrying overload burst against a starved scheduler
# (expected: refusals with retry hints, zero late answers). Regenerates the
# checked-in report.
bench-fanout:
	$(GO) run ./cmd/gupt-bench -quick -exp fanout -json BENCH_PR9.json

# bench-obs measures what the query flight recorder, the ε burn-down
# plane, and the per-block fan-out spans add on top of the tracing
# baseline BENCH_PR5.json pinned, and regenerates the checked-in report.
bench-obs:
	$(GO) run ./cmd/gupt-bench -quick -exp obs -json BENCH_PR10.json

# prom-lint runs the exposition-format gates by name: the /metrics text
# must parse as valid Prometheus 0.0.4 and no raw duration may appear
# outside a bucketed histogram (§6.3), over the full metric registry.
prom-lint:
	$(GO) test -count=1 -run 'TestLint' ./internal/telemetry
