#!/bin/sh
# Verification gate: build, vet and format-check everything, run the full
# test suite, race every package with concurrent paths exactly once, then
# the benchrunner smokes and a short live-fuzz pass over the hostile-input
# parsers. CI and pre-commit should run exactly this.
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...
# Format gate: every Go file is gofmt-clean.
test -z "$(gofmt -l .)"
go test ./...
# Frozen-benchmark gate: bench/ is a nested module that the root build
# never compiles, so an internal API it uses can break unnoticed. Vet it
# and run its whole suite against this tree, uncached: TestSmoke drives
# every workload and the traced layer run, so a benchmark that compiles
# but fails at run time fails here.
go -C bench vet ./...
go -C bench test -count=1 ./...
# Race gate, never cached. Each package below runs whole, once:
# - shapedb: the store under concurrent reads and writes, the
#   fault-injection crash matrix, the migration primitives (byte-exact
#   export/import, corrupt-frame refusal before any apply, durable batched
#   deletes), and the ENOSPC read-only fence (zero acked-write loss,
#   clean-tail rollback, compaction heal);
# - core, colstore: the weighted-search brute-force equivalence table, the
#   coarse-bound safety property, and the columnar-store coherence test
#   (CommitNotify-driven refresh under concurrent mutation);
# - features: extracting kinds together equals extracting them alone;
# - faultfs: the fault-injection harness, FailWritesWith included;
# - scrub: the chaos soak (bit-flips under live traffic must all be found
#   and quarantined), the triggered-compaction crash matrix, and the
#   maintenance-vs-traffic mixed-ops test;
# - replica: protocol, node state machine, network fault injector;
# - scatter: consistent-hash ring properties, the shard client's
#   retry/hedge/deadline machinery (Retry-After hints from shards
#   included), the circuit breaker, hedge goroutine hygiene, and
#   versioned ring-epoch transitions and fencing;
# - backup: resumable crash-matrix capture, point-in-time cuts, bit-rot
#   refusal naming the frame, ring-fenced cluster backup, N→M reshard
#   restore, and the search-equivalence property.
go test -race -count=1 ./internal/shapedb/... ./internal/core/... ./internal/features/... ./internal/colstore/... \
	./internal/faultfs/... ./internal/scrub/... ./internal/replica/... ./internal/scatter/... ./internal/backup/...
# Server race gate, once, over the end-to-end suites:
# - replication: twin live servers, chaos failover mid-ingest (zero
#   acknowledged-write loss), promotion crash matrix, idempotent retries
#   (incl. the replay sync-ack gate), ack-offset clamping, the peer-secret
#   gate, commit-wake long-polling, drain/resume;
# - cluster: the merge-equivalence suite (coordinator answers
#   bit-identical to a single-node scan across shard counts, weights, and
#   scan modes) and the chaos suite (dead/partitioned/straggling shards
#   degrade to partial results, never errors);
# - brownout: the degradation ladder (tier selection from gate depth +
#   latency EWMA, truthful X-Degraded marking, the no-read-5xx churn
#   property), the result cache (ETag revalidation, bit-identical hits,
#   partial cluster answers never cached, coordinator write invalidation),
#   and bounded-staleness replica reads with the read-split client;
# - rebalance: per-phase bit-identical equivalence, crash-resume at a
#   higher term, 409 epoch self-healing both ways, the admin endpoint,
#   write-ring insert routing, and the chaos acceptance (migrator killed
#   mid-copy, partitions mid-verify and during cutover under live traffic);
# - disaster recovery: backup endpoints, 503 + Retry-After writes and 2xx
#   reads under the ENOSPC fence, readyz/stats reporting under live mixed
#   traffic, and the client's Retry-After honoring (the RetryAfter token
#   matches only TestClientHonorsRetryAfterOn503; the Retry-After parser
#   is tested in internal/retry, and the coordinator's hint handling in
#   the scatter race above and TestClusterShedShardIsPartial here).
go test -race -count=1 -run 'Replication|Chaos|Standby|Fencing|Drain|Readyz|Idempoten|InflatedAck|Failover|CommitNotify|Cluster|Coordinator|Shard|RetryAfter|Tier|Cache|Brownout|Partial|Staleness|ReadSplit|ReplicaReads|ETag|TestRebalance|Backup|Enospc|Retargets' ./internal/server/...
# Benchrunner perf smoke: the perf figure at toy sizes must produce a
# BENCH_perf.json that parses with every expected series.
BENCH_SMOKE="$(mktemp -d)"
go run ./cmd/benchrunner -fig perf -perf-sizes 500,2000 -perf-out "$BENCH_SMOKE/BENCH_perf.json" > /dev/null
go run ./cmd/benchrunner -check-perf "$BENCH_SMOKE/BENCH_perf.json"
rm -rf "$BENCH_SMOKE"
# Benchrunner cluster smoke: the scatter figure at a toy corpus size must
# produce a BENCH_cluster.json whose degradation contract held (every
# degraded answer partial, none an error).
CLUSTER_SMOKE="$(mktemp -d)"
go run ./cmd/benchrunner -fig cluster -cluster-size 400 -cluster-out "$CLUSTER_SMOKE/BENCH_cluster.json" > /dev/null
go run ./cmd/benchrunner -check-cluster "$CLUSTER_SMOKE/BENCH_cluster.json"
rm -rf "$CLUSTER_SMOKE"
# Benchrunner rebalance smoke: a toy live 4→6 migration under query
# load must move records, keep answering throughout, finalize the ring,
# and produce a BENCH_rebalance.json with zero 5xx answers.
REBAL_SMOKE="$(mktemp -d)"
go run ./cmd/benchrunner -fig rebalance -rebalance-size 400 -rebalance-out "$REBAL_SMOKE/BENCH_rebalance.json" > /dev/null
go run ./cmd/benchrunner -check-rebalance "$REBAL_SMOKE/BENCH_rebalance.json"
rm -rf "$REBAL_SMOKE"
# Hostile-input gate: a short live-fuzz pass over each mesh parser and
# the journal replayer (the checked-in seeds alone run in the normal
# suite; this explores beyond them). 5s per target keeps the gate fast
# while still catching shallow parser regressions.
go test -run '^$' -fuzz '^FuzzReadOFF$' -fuzztime 5s ./internal/geom
go test -run '^$' -fuzz '^FuzzReadOBJ$' -fuzztime 5s ./internal/geom
go test -run '^$' -fuzz '^FuzzReadSTL$' -fuzztime 5s ./internal/geom
go test -run '^$' -fuzz '^FuzzReplayJournal$' -fuzztime 5s ./internal/shapedb
