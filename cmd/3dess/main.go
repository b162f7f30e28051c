// Command 3dess runs the 3D Engineering Shape Search server: the SERVER
// and DATABASE tiers of the paper's three-tier architecture behind an
// HTTP/JSON API (see internal/server for the endpoint reference).
//
// Usage:
//
//	3dess [-addr :8080] [-data ./data] [-load-corpus] [-seed 42]
//	      [-max-inflight 256] [-max-mesh-vertices N] [-max-mesh-triangles N]
//	      [-scrub-interval 5m] [-compact-ratio 2.0]
//
// With -data the shape database is durable (journal + crash recovery);
// without it the server is in-memory. -load-corpus generates and ingests
// the 113-shape evaluation corpus on startup when the database is empty;
// the listener comes up first, with GET /readyz answering 503 until the
// corpus is searchable (GET /healthz is 200 the whole time). -max-inflight
// bounds concurrently admitted requests — excess load is shed with 429 +
// Retry-After rather than queued. The -max-mesh-* flags cap what an
// uploaded mesh may declare before the parser refuses it.
//
// The self-healing maintenance loops run in the background:
// -scrub-interval paces full integrity scrubs (every record re-verified
// against its journal frame, damage quarantined), and -compact-ratio sets
// the write amplification at which the journal is compacted
// automatically. Status
// and manual triggers live at /api/admin/maintenance.
//
// Replication: a warm-standby pair is two 3dess processes, both with
// durable -data directories. The primary runs with -advertise (its own
// reachable URL); the standby adds -replicate-from pointing at the
// primary. The standby streams the primary's journal, serves read-only
// queries (mutations are refused with a pointer to the primary), and
// promotes itself automatically when the primary misses heartbeats for
// -failover-after. With -repl-sync (the default) the primary only
// acknowledges a write after the standby has durably applied it, so a
// failover loses no acknowledged write. Status lives at
// /api/admin/replication; /readyz reports role and lag, and a standby
// stays not-ready until its first full catch-up. The replication
// endpoints (journal stream, fencing) are open by default for trusted
// networks; on anything else set -repl-secret to the same value on both
// nodes so arbitrary API clients can neither read the journal nor demote
// the primary.
//
// Clustering: a scatter-gather cluster is N shard processes plus one
// coordinator. Each shard runs with -shard-of I -shards N and owns the
// slice of shape ids the cluster's hash ring assigns it (with
// -load-corpus a shard ingests only its slice, under globally consistent
// ids). The coordinator runs with -coordinator listing the shard
// endpoints (comma-separated shards; '|'-separated replica URLs within a
// shard) and routes every corpus and search endpoint over the fleet:
// searches fan out under per-shard deadlines (-shard-timeout) with
// bounded retries (-shard-retries) and straggler hedging (-hedge-after),
// and a shard that stays down past its retry budget degrades the answer
// — merged results from the survivors plus an X-Partial-Results header —
// instead of failing it. See DESIGN.md §12 for the merge-equivalence
// guarantee and the degradation policy.
//
// Rebalancing: a live cluster grows or shrinks without downtime. New
// shards start with -shard-of I -join (epoch 0, empty corpus, waiting
// for the driver's topology push); the coordinator drives the migration
// with -rebalance M -rebalance-add <new endpoints> (or over HTTP via
// POST /api/admin/rebalance on a running coordinator). Every
// coordinator↔shard call carries a versioned ring epoch; stale holders
// get 409 plus the current ring and self-heal. The driver journals every
// step in -rebalance-state (default <data>/rebalance.state), so a
// coordinator that crashes mid-migration resumes it automatically on
// restart, fenced above the dead driver; sources are only drained after
// the whole fleet acknowledges the cutover. See DESIGN.md §14 for the
// state machine and failure matrix.
//
// Brownout serving: under pressure (in-flight depth past the
// -brownout-* fractions of -max-inflight, or the decayed latency signal
// past -slow-latency) searches step down through cheaper tiers — coarse
// filter-stage answers marked X-Degraded: coarse, then cache-only
// serving, then 429 — instead of jumping straight to shedding. Exact
// results are cached (-cache-entries) with ETags and invalidated on
// every commit. A standby serves reads behind a bounded-staleness gate
// (-max-staleness, tightened per-request with the Max-Staleness header;
// every read carries X-Staleness), and a coordinator skips shards whose
// circuit breaker (-breaker-after / -breaker-cooldown) is open instead
// of burning their retry budget. See DESIGN.md §13 for the full ladder.
//
// On SIGINT/SIGTERM the server stops accepting connections and drains
// in-flight requests for up to -drain-timeout; requests still running
// after that are force-closed, which cancels their contexts and aborts
// their scans — a handler never hangs past shutdown. A standby
// additionally flushes the replication stream (pulling frames the primary
// committed but it has not yet applied) and writes a final applied-offset
// marker, so a restart resumes streaming instead of re-bootstrapping.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"threedess/internal/core"
	"threedess/internal/dataset"
	"threedess/internal/features"
	"threedess/internal/geom"
	"threedess/internal/replica"
	"threedess/internal/scatter"
	"threedess/internal/scrub"
	"threedess/internal/server"
	"threedess/internal/shapedb"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dataDir := flag.String("data", "", "durable database directory (empty = in-memory)")
	loadCorpus := flag.Bool("load-corpus", false, "ingest the generated 113-shape corpus when the DB is empty")
	seed := flag.Int64("seed", 42, "corpus generation seed for -load-corpus")
	voxelRes := flag.Int("voxel-res", 0, "voxel resolution for feature extraction (0 = default)")
	reqTimeout := flag.Duration("request-timeout", server.DefaultRequestTimeout, "per-request deadline (0 = default, negative = unlimited)")
	maxUpload := flag.Int64("max-upload-bytes", server.DefaultMaxUploadBytes, "request body cap in bytes (0 = default, negative = unlimited)")
	maxInFlight := flag.Int("max-inflight", server.DefaultMaxInFlight, "in-flight request cap; excess requests get 429 (0 = default, negative = unlimited)")
	maxVertices := flag.Int("max-mesh-vertices", 0, "per-upload vertex cap for mesh parsing (0 = default, negative = unlimited)")
	maxTriangles := flag.Int("max-mesh-triangles", 0, "per-upload triangle cap for mesh parsing (0 = default, negative = unlimited)")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "how long to drain in-flight requests on shutdown")
	scrubInterval := flag.Duration("scrub-interval", 5*time.Minute, "pause between background integrity scrub passes (0 = disabled)")
	scrubRate := flag.Int("scrub-rate", 2000, "background scrub throughput cap in records/sec (0 = unthrottled)")
	compactRatio := flag.Float64("compact-ratio", 2.0, "journal/live byte amplification that triggers automatic compaction (0 = disabled)")
	replicateFrom := flag.String("replicate-from", "", "run as warm standby of the primary at this URL (e.g. http://primary:8080)")
	advertise := flag.String("advertise", "", "this node's reachable URL, required for replication (fencing and client redirects)")
	heartbeat := flag.Duration("heartbeat-interval", 500*time.Millisecond, "standby stream/heartbeat cadence")
	failoverAfter := flag.Duration("failover-after", 0, "primary silence budget before the standby promotes itself (0 = 6 heartbeats)")
	replSync := flag.Bool("repl-sync", true, "primary acknowledges writes only after the standby has durably applied them")
	ackTimeout := flag.Duration("repl-ack-timeout", server.DefaultAckTimeout, "how long a synchronous write waits for the standby before failing with 503")
	replSecret := flag.String("repl-secret", "", "shared secret gating the replication endpoints; both nodes must set the same value (empty = open trusted-network mode)")
	shardIndex := flag.Int("shard-of", -1, "run as this shard index (0-based) of a -shards cluster")
	numShards := flag.Int("shards", 0, "total shard count when running with -shard-of")
	join := flag.Bool("join", false, "run as a JOINING shard: start at ring epoch 0 with an empty corpus and wait for the coordinator's rebalance driver to install the live topology (requires -shard-of, ignores -shards)")
	rebalanceTo := flag.Int("rebalance", 0, "coordinator: drive a live rebalance to this shard count after startup (grow needs -rebalance-add; 0 = none)")
	rebalanceAdd := flag.String("rebalance-add", "", "coordinator: endpoints of the shards joining under -rebalance, same syntax as -coordinator")
	rebalanceState := flag.String("rebalance-state", "", "coordinator: path of the crash-resume migration journal (default <data>/rebalance.state; empty without -data = no crash resume)")
	coordinator := flag.String("coordinator", "", "run as the cluster coordinator over these shards: comma-separated shard endpoints, '|'-separated replica URLs within a shard (e.g. http://s0:8080,http://s1:8080|http://s1b:8080)")
	shardTimeout := flag.Duration("shard-timeout", 0, "coordinator: per-attempt deadline for one shard request (0 = default)")
	shardRetries := flag.Int("shard-retries", 0, "coordinator: retries per shard after the first attempt (0 = default, negative = disabled)")
	hedgeAfter := flag.Duration("hedge-after", 0, "coordinator: straggler budget before a duplicate request is hedged to another replica (0 = default, negative = disabled)")
	breakerAfter := flag.Int("breaker-after", 0, "coordinator: consecutive per-shard failures that open its circuit breaker (0 = default, negative = disabled)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "coordinator: how long an open breaker skips a shard before probing it with one trial call (0 = default)")
	maxStaleness := flag.Duration("max-staleness", 0, "standby: staleness ceiling for serving reads; older data answers 503 with the primary pointer (0 = default 10s, negative = unbounded)")
	cacheEntries := flag.Int("cache-entries", 0, "query-result cache capacity in entries (0 = default, negative = disabled)")
	coarseAt := flag.Float64("brownout-coarse-at", 0, "in-flight fraction above which weighted searches serve the coarse filter stage only (0 = default 0.5, negative = brownout disabled)")
	cacheOnlyAt := flag.Float64("brownout-cache-only-at", 0, "in-flight fraction above which searches serve only from cache (0 = default 0.85)")
	slowLatency := flag.Duration("slow-latency", 0, "decayed request-latency EWMA above which the brownout tier is bumped one step (0 = default 1.5s, negative = disabled)")
	flag.Parse()

	replicated := *replicateFrom != "" || *advertise != ""
	if replicated && *advertise == "" {
		log.Fatalf("-replicate-from requires -advertise (this node's own reachable URL)")
	}
	if replicated && *dataDir == "" {
		log.Fatalf("replication requires -data: only a durable journal can be streamed")
	}
	isShard := *shardIndex >= 0 || *numShards != 0 || *join
	isCoord := *coordinator != ""
	if isShard && isCoord {
		log.Fatalf("-shard-of and -coordinator are mutually exclusive: a node is a shard or the coordinator, not both")
	}
	if *join && (*shardIndex < 0 || *loadCorpus) {
		log.Fatalf("-join needs -shard-of (the index this shard will own) and starts empty: drop -load-corpus")
	}
	if isShard && !*join && (*shardIndex < 0 || *numShards <= 0 || *shardIndex >= *numShards) {
		log.Fatalf("-shard-of needs 0 <= index < -shards (got index %d of %d shards)", *shardIndex, *numShards)
	}
	if isCoord && (replicated || *loadCorpus) {
		log.Fatalf("a coordinator holds no corpus: drop -load-corpus/-replicate-from/-advertise (with -data it keeps only the rebalance journal)")
	}
	if !isCoord && (*rebalanceTo != 0 || *rebalanceAdd != "" || *rebalanceState != "") {
		log.Fatalf("-rebalance/-rebalance-add/-rebalance-state only apply to a -coordinator node")
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	dbDir := *dataDir
	if isCoord {
		// A coordinator's own engine holds no corpus — its -data directory
		// (if any) keeps only the crash-resume rebalance journal.
		dbDir = ""
	}
	db, err := shapedb.Open(dbDir, features.Options{VoxelResolution: *voxelRes})
	if err != nil {
		log.Fatalf("opening database: %v", err)
	}
	defer db.Close()

	// Surface what crash recovery found before serving traffic: a degraded
	// open (quarantined + truncated journal tail) is worth an operator's
	// attention even though the store is consistent and writable.
	if rep := db.Recovery(); rep != nil {
		log.Printf("3dess: journal recovery: %s", rep)
		if rep.Degraded() {
			log.Printf("3dess: WARNING: journal tail discarded; inspect %s", rep.Quarantined)
		}
	}

	engine := core.NewEngine(db)
	if !isCoord {
		// Keep the columnar descriptor store fresh in the background so
		// weighted queries rarely pay the rebuild on the request path.
		// Query-time staleness checks remain the correctness guarantee.
		// (A coordinator's own engine holds no corpus — nothing to watch.)
		go engine.ColStore().Watch(ctx)
	}
	rebalPath := *rebalanceState
	if isCoord && rebalPath == "" && *dataDir != "" {
		rebalPath = filepath.Join(*dataDir, "rebalance.state")
	}
	api := server.NewWithConfig(engine, server.Config{
		RequestTimeout: *reqTimeout,
		MaxUploadBytes: *maxUpload,
		MaxInFlight:    *maxInFlight,
		MeshLimits: geom.ReadLimits{
			MaxVertices:  *maxVertices,
			MaxTriangles: *maxTriangles,
		},
		BrownoutCoarseAt:    *coarseAt,
		BrownoutCacheOnlyAt: *cacheOnlyAt,
		SlowLatency:         *slowLatency,
		CacheEntries:        *cacheEntries,
		RebalancePath:       rebalPath,
	})
	// Evict version-stale result-cache entries as commits land (lookups
	// re-check versions themselves; this reclaims memory early).
	go api.WatchCache(ctx)

	// Cluster roles: a shard validates explicit-id ownership against the
	// ring and serves the bounds endpoint; a coordinator scatter-gathers
	// every corpus and search endpoint over the shard fleet.
	var shardRing *scatter.Ring
	if isShard && *join {
		// A joining shard starts at ring epoch 0 with an empty corpus; the
		// coordinator's rebalance driver pushes the live topology and copies
		// its slice over (any call routed to it earlier self-heals via the
		// 409 epoch exchange).
		if _, err := api.SetShardJoining(*shardIndex); err != nil {
			log.Fatalf("-join: %v", err)
		}
		log.Printf("3dess: %s joining the cluster at epoch 0, awaiting rebalance", scatter.ShardName(*shardIndex))
	} else if isShard {
		if _, err := api.SetShard(*shardIndex, *numShards); err != nil {
			log.Fatalf("-shard-of: %v", err)
		}
		if shardRing, err = scatter.NewRing(*numShards); err != nil {
			log.Fatalf("-shards: %v", err)
		}
		log.Printf("3dess: %s of a %d-shard cluster", scatter.ShardName(*shardIndex), *numShards)
	}
	if isCoord {
		specs, err := parseShardSpecs(*coordinator)
		if err != nil {
			log.Fatalf("-coordinator: %v", err)
		}
		coord, err := scatter.New(specs, scatter.Policy{
			Timeout:         *shardTimeout,
			Retries:         *shardRetries,
			HedgeAfter:      *hedgeAfter,
			BreakerAfter:    *breakerAfter,
			BreakerCooldown: *breakerCooldown,
		})
		if err != nil {
			log.Fatalf("-coordinator: %v", err)
		}
		api.SetCoordinator(coord)
		log.Printf("3dess: coordinator over %d shards", len(specs))

		// Crash resume first: an interrupted migration in the state journal
		// outranks a fresh -rebalance request (the journal knows which phase
		// the fleet was left in; see DESIGN.md §14).
		if resumed, err := api.ResumeRebalance(); err != nil {
			log.Fatalf("resuming rebalance from %s: %v", rebalPath, err)
		} else if resumed {
			log.Printf("3dess: resuming interrupted rebalance from %s", rebalPath)
			if *rebalanceTo != 0 {
				log.Printf("3dess: -rebalance %d deferred: an interrupted migration is resuming first", *rebalanceTo)
			}
		} else if *rebalanceTo != 0 {
			opts := scatter.MigrateOptions{Target: *rebalanceTo}
			if *rebalanceAdd != "" {
				if opts.Add, err = parseShardSpecs(*rebalanceAdd); err != nil {
					log.Fatalf("-rebalance-add: %v", err)
				}
			}
			if _, err := api.StartRebalance(opts); err != nil {
				log.Fatalf("-rebalance: %v", err)
			}
			log.Printf("3dess: rebalancing %d -> %d shards", len(specs), *rebalanceTo)
		}
	}

	// Self-healing maintenance: background integrity scrubbing and
	// automatic compaction, surfaced at
	// /api/admin/maintenance. Stop() runs before db.Close (LIFO defers)
	// so no pass is mid-flight when the journal handle goes away. A
	// coordinator holds no corpus, so it runs no maintenance.
	if !isCoord {
		maintCfg := scrub.DefaultConfig()
		maintCfg.ScrubInterval = *scrubInterval
		maintCfg.ScrubRate = *scrubRate
		maintCfg.CompactRatio = *compactRatio
		if *replicateFrom != "" && maintCfg.CompactRatio > 0 {
			// A standby's journal must stay a byte-for-byte prefix of the
			// primary's; local compaction would diverge it and force a full
			// re-bootstrap. (The primary compacts normally — its epoch change
			// makes the standby re-sync.)
			log.Printf("3dess: standby mode: automatic compaction disabled")
			maintCfg.CompactRatio = 0
		}
		maintCfg.Logf = log.Printf
		maint := scrub.New(db, maintCfg)
		maint.Start(ctx)
		defer maint.Stop()
		api.SetMaintenance(maint)
	}

	// Replication wiring: the node's role state activates the server's
	// role gate, protocol endpoints, and sync-ack write path; a standby
	// additionally runs the streaming loop.
	var standby *replica.Standby
	if replicated {
		var node *replica.Node
		if *replicateFrom != "" {
			node = replica.NewStandbyNode(*advertise, *replicateFrom)
			standby = replica.NewStandby(db, node, replica.StandbyConfig{
				Heartbeat:     *heartbeat,
				FailoverAfter: *failoverAfter,
				MarkerDir:     *dataDir,
				Secret:        *replSecret,
				Logf:          log.Printf,
				OnPromote: func(term int64) {
					log.Printf("3dess: PROMOTED to primary at term %d; now accepting writes", term)
				},
			})
		} else {
			node = replica.NewPrimaryNode(*advertise)
		}
		api.SetReplication(node, server.ReplicationConfig{
			SyncWrites:   *replSync,
			AckTimeout:   *ackTimeout,
			PeerSecret:   *replSecret,
			MaxStaleness: *maxStaleness,
		})
		if standby != nil {
			standby.Start(ctx)
			log.Printf("3dess: standby of %s (heartbeat %s)", *replicateFrom, *heartbeat)
		} else {
			log.Printf("3dess: primary, advertising %s (sync writes: %v)", *advertise, *replSync)
		}
	}

	// Listen before loading the corpus so /healthz and /readyz answer
	// immediately; /readyz stays 503 until ingest finishes, holding load
	// balancer traffic without failing liveness.
	needCorpus := *loadCorpus && db.Len() == 0 && standby == nil
	if needCorpus {
		api.SetReady(false)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           api,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("3dess: serving %d shapes on %s", db.Len(), *addr)
	if needCorpus {
		go func() {
			if err := ingestCorpus(ctx, engine, *seed, shardRing, *shardIndex); err != nil {
				log.Fatalf("loading corpus: %v", err)
			}
			api.SetReady(true)
			log.Printf("3dess: ready, serving %d shapes", db.Len())
		}()
	}

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	case <-ctx.Done():
		stop() // restore default signal behavior: a second ^C kills immediately
		log.Printf("3dess: shutdown signal, draining for up to %s", *drainTimeout)
		sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			// Drain window expired: force-close the remaining connections,
			// which cancels their request contexts and unblocks any scan
			// still checking ctx.Err().
			log.Printf("3dess: drain incomplete (%v), closing connections", err)
			srv.Close()
		}
		if standby != nil {
			// Flush the replication stream (frames the primary committed
			// while we were shutting down) and durably record the applied
			// offset, so the next start resumes instead of re-bootstrapping.
			if err := standby.Stop(sctx); err != nil {
				log.Printf("3dess: replication drain: %v", err)
			} else {
				log.Printf("3dess: replication stream flushed, marker written")
			}
		}
	}
}

// ingestCorpus loads the generated corpus through the engine's batch
// ingest path, so startup loading shares the worker pool, ordering, and
// cancellation behavior of the HTTP batch endpoint. A shard (ring != nil)
// ingests only the slice the ring assigns it, under explicit ids that are
// globally consistent across the fleet — every shard derives the same
// id for corpus shape i, so the union over shards is exactly the
// single-node corpus.
func ingestCorpus(ctx context.Context, engine *core.Engine, seed int64, ring *scatter.Ring, shard int) error {
	shapes, err := dataset.Generate(seed)
	if err != nil {
		return err
	}
	var items []core.IngestShape
	for i, s := range shapes {
		it := core.IngestShape{Name: s.Name, Group: s.Group, Mesh: s.Mesh}
		if ring != nil {
			id := int64(i + 1)
			if ring.Owner(id) != shard {
				continue
			}
			it.ID = id
		}
		items = append(items, it)
	}
	if len(items) == 0 {
		log.Printf("3dess: corpus slice for this shard is empty")
		return nil
	}
	if _, err := engine.InsertBatch(ctx, items, nil); err != nil {
		return err
	}
	log.Printf("3dess: ingested %d of %d corpus shapes", len(items), len(shapes))
	return nil
}

// parseShardSpecs parses the -coordinator topology string: shards are
// comma-separated; replica URLs within one shard are '|'-separated.
func parseShardSpecs(s string) ([]scatter.ShardSpec, error) {
	var specs []scatter.ShardSpec
	for _, entry := range strings.Split(s, ",") {
		var eps []string
		for _, ep := range strings.Split(entry, "|") {
			if ep = strings.TrimSpace(ep); ep != "" {
				eps = append(eps, ep)
			}
		}
		if len(eps) == 0 {
			return nil, fmt.Errorf("empty shard entry in %q", s)
		}
		specs = append(specs, scatter.ShardSpec{Endpoints: eps})
	}
	return specs, nil
}
