#!/bin/sh
# Verification gate: build everything, run the full test suite, then run
# the race detector over the packages with concurrent paths (the store,
# the engine's columnar scans / batch ingest, and the overlapped feature
# extraction). CI and pre-commit should run exactly this.
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...
go test ./...
# Frozen-benchmark gate: bench/ is a nested module that the root build
# never compiles, so an internal API it uses can break unnoticed. Vet it
# and run its short tests against this tree.
go -C bench vet ./...
go -C bench test -short ./...
# Weighted-search gate (core, colstore): the brute-force equivalence
# table, the coarse-bound safety property, and the columnar-store
# coherence test (CommitNotify-driven refresh under concurrent mutation),
# with the race detector, never cached.
go test -race -count=1 ./internal/shapedb/... ./internal/core/... ./internal/features/...
go test -race -count=1 ./internal/colstore/...
# Benchrunner smoke: the perf figure at toy sizes must produce a
# BENCH_perf.json that parses with every expected series.
BENCH_SMOKE="$(mktemp -d)"
go run ./cmd/benchrunner -fig perf -perf-sizes 500,2000 -perf-out "$BENCH_SMOKE/BENCH_perf.json" > /dev/null
go run ./cmd/benchrunner -check-perf "$BENCH_SMOKE/BENCH_perf.json"
rm -rf "$BENCH_SMOKE"
# Durability gate: the fault-injection crash matrix and faultfs harness
# under the race detector, never cached.
go test -race -count=1 -run 'Crash|Fault|Torn|Recovery' ./internal/shapedb/... ./internal/faultfs/...
# Self-healing gate: the chaos soak (bit-flips under live traffic must
# all be found and quarantined), the triggered-compaction crash matrix,
# and the maintenance-vs-traffic mixed-ops test, under the race detector.
go test -race -count=1 ./internal/scrub/...
# Replication gate: protocol + node state machine + network fault
# injector under the race detector, then the end-to-end suite in the
# server package — twin live servers, chaos failover mid-ingest (zero
# acknowledged-write loss), promotion crash matrix, idempotent retries
# (incl. the replay sync-ack gate), ack-offset clamping, the peer-secret
# gate, commit-wake long-polling, drain/resume — never cached.
go test -race -count=1 ./internal/replica/...
go test -race -count=1 -run 'Replication|Chaos|Standby|Fencing|Drain|Readyz|Idempoten|InflatedAck|Failover|CommitNotify' ./internal/server/... ./internal/shapedb/...
# Cluster gate: scatter-gather correctness — consistent-hash ring
# properties, the shard client's retry/hedge/deadline machinery, the
# merge-equivalence suite (coordinator answers bit-identical to a
# single-node scan across shard counts, weights, and scan modes), and the
# chaos suite (dead/partitioned/straggling shards degrade to partial
# results, never errors), under the race detector, never cached.
go test -race -count=1 ./internal/scatter/...
go test -race -count=1 -run 'Cluster|Chaos|Coordinator|Shard|RetryAfter' ./internal/server/...
# Benchrunner cluster smoke: the scatter figure at a toy corpus size must
# produce a BENCH_cluster.json whose degradation contract held (every
# degraded answer partial, none an error).
CLUSTER_SMOKE="$(mktemp -d)"
go run ./cmd/benchrunner -fig cluster -cluster-size 400 -cluster-out "$CLUSTER_SMOKE/BENCH_cluster.json" > /dev/null
go run ./cmd/benchrunner -check-cluster "$CLUSTER_SMOKE/BENCH_cluster.json"
rm -rf "$CLUSTER_SMOKE"
# Hostile-input gate: a short live-fuzz pass over each mesh parser (the
# checked-in seeds alone run in the normal suite; this explores beyond
# them). 5s per target keeps the gate fast while still catching
# shallow parser regressions.
go test -run '^$' -fuzz '^FuzzReadOFF$' -fuzztime 5s ./internal/geom
go test -run '^$' -fuzz '^FuzzReadOBJ$' -fuzztime 5s ./internal/geom
go test -run '^$' -fuzz '^FuzzReadSTL$' -fuzztime 5s ./internal/geom
# Brownout gate: the degradation ladder (tier selection from gate depth
# + latency EWMA, truthful X-Degraded marking, the no-read-5xx churn
# property), the result cache (ETag revalidation, bit-identical hits,
# partial cluster answers never cached, coordinator write invalidation),
# and bounded-staleness replica reads with the read-split client, under
# the race detector, never cached. (The scatter circuit breaker and the
# hedge goroutine hygiene test ran raced in the cluster gate.)
go test -race -count=1 -run 'Tier|Cache|Brownout|Partial|Staleness|ReadSplit|StandbyRefuses|ReplicaReads|ETag' ./internal/server/...
# Rebalance gate: versioned ring-epoch transitions and fencing (the
# scatter package already ran raced above), the migration primitives
# (byte-exact export/import, corrupt-frame refusal before any apply,
# durable batched deletes), and the end-to-end live-rebalance suite —
# per-phase bit-identical equivalence, crash-resume at a higher term,
# 409 epoch self-healing both ways, the admin endpoint, write-ring
# insert routing, and the chaos acceptance (driver killed mid-copy,
# partitions mid-verify and during cutover under live traffic) — under
# the race detector, never cached.
go test -race -count=1 -run 'ExportImport|ImportRejects|ContentCRC|RecordCRCs|DeleteMany|ExportRefuses' ./internal/shapedb/...
go test -race -count=1 -run 'TestRebalance|TestChaosRebalance' ./internal/server/...
# Benchrunner rebalance smoke: a toy live 4→6 migration under query
# load must move records, keep answering throughout, finalize the ring,
# and produce a BENCH_rebalance.json with zero 5xx answers.
REBAL_SMOKE="$(mktemp -d)"
go run ./cmd/benchrunner -fig rebalance -rebalance-size 400 -rebalance-out "$REBAL_SMOKE/BENCH_rebalance.json" > /dev/null
go run ./cmd/benchrunner -check-rebalance "$REBAL_SMOKE/BENCH_rebalance.json"
rm -rf "$REBAL_SMOKE"
# Disaster-recovery gate: the backup package (resumable crash-matrix
# capture, point-in-time cuts, bit-rot refusal naming the frame,
# ring-fenced cluster backup, N→M reshard restore, search-equivalence
# property), the ENOSPC read-only fence at the store layer (zero
# acked-write loss, clean-tail rollback, compaction heal) and at the
# server layer (503 + Retry-After writes, 2xx reads, readyz/stats
# reporting under live mixed traffic), and the client's Retry-After
# honoring — under the race detector, never cached.
go test -race -count=1 ./internal/backup/...
go test -race -count=1 -run 'Enospc|Fenced|ReadJournalServes' ./internal/shapedb/...
go test -race -count=1 -run 'FailWritesWith' ./internal/faultfs/...
go test -race -count=1 -run 'Backup|Enospc|RetryAfter|Retargets' ./internal/server/...
