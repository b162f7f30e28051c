package server

import (
	"context"

	"threedess/internal/retry"
)

// Idempotency keys: a client that times out on a mutating request cannot
// know whether it landed, and blind resending would duplicate the shape.
// Sending an Idempotency-Key header makes the retry safe: the key is
// journaled with each inserted record (surviving restart, compaction, and
// replication to a promoted standby), so a repeat of an already-applied
// request answers 200 with the original IDs instead of inserting again.
// Requests still in flight for the same key are serialized, so concurrent
// retries can't race past the lookup and double-insert.

// IdempotencyKeyHeader carries the client-chosen key on POST /api/shapes
// and POST /api/shapes/batch. Keys are opaque; clients should use enough
// randomness that keys never collide across distinct requests.
const IdempotencyKeyHeader = retry.IdempotencyKeyHeader

// lockIdemKey claims the in-flight slot for key, waiting out any request
// already holding it. The returned release must be called exactly once.
// A cancelled ctx abandons the wait with its error.
func (s *Server) lockIdemKey(ctx context.Context, key string) (release func(), err error) {
	for {
		s.idemMu.Lock()
		ch, busy := s.idemInFlight[key]
		if !busy {
			done := make(chan struct{})
			s.idemInFlight[key] = done
			s.idemMu.Unlock()
			return func() {
				s.idemMu.Lock()
				delete(s.idemInFlight, key)
				s.idemMu.Unlock()
				close(done)
			}, nil
		}
		s.idemMu.Unlock()
		select {
		case <-ch:
			// Holder finished; loop to re-check the journal and re-claim.
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// idemReplay rebuilds the single-insert response body for an
// already-applied key from the stored record.
func (s *Server) idemReplay(id int64) map[string]any {
	body := map[string]any{"id": id, "idempotent_replay": true}
	if rec, ok := s.engine.DB().Get(id); ok {
		body["degraded"] = rec.Degraded
	}
	return body
}

// idemReplayBatch rebuilds the batch response body for an already-applied
// key. ids come from the journal in batch order.
func (s *Server) idemReplayBatch(ids []int64) map[string]any {
	degraded := make([][]string, len(ids))
	anyDegraded := false
	for i, id := range ids {
		if rec, ok := s.engine.DB().Get(id); ok && len(rec.Degraded) > 0 {
			degraded[i] = rec.Degraded
			anyDegraded = true
		}
	}
	body := map[string]any{"ids": ids, "idempotent_replay": true}
	if anyDegraded {
		body["degraded"] = degraded
	}
	return body
}
