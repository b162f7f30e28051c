package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The load shape of every workload is a closed loop: callers are CAD tools
// and engineers that wait for the reply before sending the next request.
// Each client goroutine owns one keep-alive connection.

// newClient returns a plain net/http client with a private transport. It
// is deliberately not server.Client: one op is one HTTP attempt, so status,
// X-Cache, X-Degraded and X-Partial-Results are visible and a retry cannot
// hide a failure.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, IdleConnTimeout: time.Minute},
		Timeout:   60 * time.Second,
	}
}

type opKind int

const (
	opSearch opKind = iota
	opInsert
)

func (k opKind) path() string {
	if k == opInsert {
		return "/api/shapes"
	}
	return "/api/search"
}

func (k opKind) wantStatus() int {
	if k == opInsert {
		return http.StatusCreated
	}
	return http.StatusOK
}

// reply is what one HTTP attempt returned.
type reply struct {
	status   int
	cache    string // X-Cache: "hit", "fill" or ""
	degraded bool   // X-Degraded present
	partial  bool   // X-Partial-Results present
	body     []byte // valid until the next call with the same buffer
	err      error
}

// failed reports whether the attempt counts as a failed op. The load is
// sized far below the brownout thresholds, so a degraded or partial answer
// is a failure here, not a feature.
func (r reply) failed(kind opKind) bool {
	return r.err != nil || r.status != kind.wantStatus() || r.degraded || r.partial
}

func (r reply) String() string {
	if r.err != nil {
		return r.err.Error()
	}
	return fmt.Sprintf("status %d degraded=%v partial=%v body %.120q", r.status, r.degraded, r.partial, r.body)
}

// post performs one attempt, reading the body into buf.
func post(c *http.Client, url string, body []byte, buf *bytes.Buffer) reply {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := io.Copy(buf, resp.Body); err != nil {
		return reply{err: err}
	}
	return reply{
		status:   resp.StatusCode,
		cache:    resp.Header.Get("X-Cache"),
		degraded: resp.Header.Get("X-Degraded") != "",
		partial:  resp.Header.Get("X-Partial-Results") != "",
		body:     buf.Bytes(),
	}
}

// postJSON is the set-up path: one attempt that must succeed, optionally
// decoded into out.
func postJSON(c *http.Client, url string, body []byte, want int, out any) error {
	var buf bytes.Buffer
	r := post(c, url, body, &buf)
	if r.err != nil {
		return r.err
	}
	if r.status != want || r.degraded || r.partial {
		return fmt.Errorf("POST %s: %v", url, r)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(r.body, out)
}

// op is one request of a stream.
type op struct {
	kind opKind
	body []byte
	keep bool // retain the reply: it belongs to the workload's quality set
}

// role is a group of clients drawing ops from one stream through a shared
// counter, so the stream is the same however the clients interleave.
type role struct {
	clients int
	op      func(i uint64) op
	// period is the length of one pass when the stream walks the corpus,
	// 0 for a homogeneous stream; it decides how summarise slices the ops.
	period int
	next   atomic.Uint64
	// nextCheck is when, in nanoseconds since the run started, the next
	// search reply is due to be kept for the reference check.
	nextCheck atomic.Int64
}

// oracleSamples is how many search replies of a run are compared with the
// reference. They are picked by time — the first op a client starts in each
// 1/64th of the run, warm-up included — so they cover the whole run however
// fast the system answers; the oracle regenerates the request from its
// index.
const oracleSamples = 64

// checkDue reports whether the op starting at elapsed is the one to check.
func (ro *role) checkDue(elapsed, interval time.Duration) bool {
	due := ro.nextCheck.Load()
	return int64(elapsed) >= due && ro.nextCheck.CompareAndSwap(due, due+int64(interval))
}

// insertAck decodes an insert acknowledgement; ok is false when it names no
// id or reports a degraded extraction.
func insertAck(body []byte) (id int64, ok bool) {
	var ack struct {
		ID       int64    `json:"id"`
		Degraded []string `json:"degraded"`
	}
	if err := json.Unmarshal(body, &ack); err != nil || ack.ID == 0 || len(ack.Degraded) > 0 {
		return 0, false
	}
	return ack.ID, true
}

// sample is one completed op.
type sample struct {
	kind   opKind
	index  uint64        // position in the role's stream
	end    time.Duration // completion time since the run started
	lat    time.Duration
	failed bool
	hit    bool // served from the result cache
	shed   bool // refused with 429
	deg    bool // degraded or partial
}

// kept is a retained search reply. lo and hi bracket the highest
// acknowledged insert id around the op, for answers that depend on
// concurrent writes.
type kept struct {
	index  uint64
	check  bool // picked for the reference check
	body   []byte
	lo, hi int64
}

// loadResult is everything the clients observed.
type loadResult struct {
	samples []sample
	kept    []kept
	acked   []int64  // ids of acknowledged inserts, in ack order
	errs    []string // first few failure descriptions
}

// runLoad drives the roles against url from now until d has passed. acked
// is the highest acknowledged insert id so far.
func runLoad(url string, roles []*role, d time.Duration, acked *atomic.Int64) loadResult {
	var (
		mu  sync.Mutex
		res loadResult
		wg  sync.WaitGroup
	)
	start := time.Now()
	interval := d / oracleSamples
	for _, ro := range roles {
		for c := 0; c < ro.clients; c++ {
			wg.Add(1)
			go func(ro *role) {
				defer wg.Done()
				client := newClient()
				defer client.CloseIdleConnections()
				var (
					buf     bytes.Buffer
					samples []sample
					keeps   []kept
					ids     []int64
					errs    []string
				)
				for {
					i := ro.next.Add(1) - 1
					o := ro.op(i) // building the request is not the system's time
					lo := acked.Load()
					t0 := time.Now()
					if t0.Sub(start) >= d {
						break
					}
					check := o.kind == opSearch && ro.checkDue(t0.Sub(start), interval)
					r := post(client, url+o.kind.path(), o.body, &buf)
					t1 := time.Now()
					s := sample{kind: o.kind, index: i, end: t1.Sub(start), lat: t1.Sub(t0),
						failed: r.failed(o.kind), hit: r.cache == "hit",
						shed: r.status == http.StatusTooManyRequests, deg: r.degraded || r.partial}
					if o.kind == opInsert && !s.failed {
						if id, ok := insertAck(r.body); ok {
							ids = append(ids, id)
							acked.Store(id) // one writer, ascending ids
						} else {
							s.failed = true
						}
					}
					if s.failed && len(errs) < 3 {
						errs = append(errs, fmt.Sprintf("op %d: %v", i, r))
					}
					samples = append(samples, s)
					if (o.keep || check) && !s.failed {
						keeps = append(keeps, kept{index: i, check: check,
							body: append([]byte(nil), r.body...), lo: lo, hi: acked.Load()})
					}
				}
				mu.Lock()
				res.samples = append(res.samples, samples...)
				res.kept = append(res.kept, keeps...)
				res.acked = append(res.acked, ids...)
				res.errs = append(res.errs, errs...)
				mu.Unlock()
			}(ro)
		}
	}
	wg.Wait()
	sort.Slice(res.kept, func(i, j int) bool { return res.kept[i].index < res.kept[j].index })
	return res
}

// windowSlices is how many equal slices the measured window of a
// homogeneous stream is cut into. Each gated number is the median over the
// slices, so one disturbed second moves it less than it would move a
// whole-window figure.
const windowSlices = 5

// opStats summarises one kind of op over the measured window.
type opStats struct {
	count     int
	perSec    float64 // median over slices of completions per second
	p50, p95  float64 // ms; median over slices of the slice percentile
	tailP     float64 // highest percentile with ten samples beyond it (whole window)
	tailValue float64 // ms
	missP50   float64 // ms; median of the replies not served from the result cache (whole window)
	hits      int
	shed      int
	degraded  int
}

// summarise takes the ops of one kind that completed in [from, to) and
// reduces them slice by slice.
//
// period == 0 (a homogeneous stream): the slices are windowSlices equal
// spans of time. period > 0 (a stream that walks the corpus, whose parts
// cost 8–240 ms each): a slice is period consecutive ops of the stream —
// one full pass over the corpus, every part exactly once — so every slice
// of every run measures the same work; the ops after the last full pass
// are left out. A window shorter than one pass is one slice.
func summarise(samples []sample, kind opKind, from, to time.Duration, period int) opStats {
	var st opStats
	var in []sample
	for _, s := range samples {
		if s.kind != kind || s.end < from || s.end >= to {
			continue
		}
		in = append(in, s)
		st.count++
		if s.hit {
			st.hits++
		}
		if s.shed {
			st.shed++
		}
		if s.deg {
			st.degraded++
		}
	}
	if len(in) == 0 {
		return st
	}
	ms := func(s sample) float64 { return float64(s.lat) / float64(time.Millisecond) }
	all := make([]float64, len(in))
	var misses []float64
	for i, s := range in {
		all[i] = ms(s)
		if !s.hit {
			misses = append(misses, all[i])
		}
	}
	st.missP50 = median(misses)
	sort.Float64s(all)
	if st.tailP = highestSupported(len(all)); st.tailP > 0 {
		st.tailValue = percentile(all, st.tailP)
	}

	// Cut into slices: each a set of latencies and the time it spanned.
	var (
		slices [][]float64
		spans  []time.Duration
	)
	if period == 0 {
		width := (to - from) / windowSlices
		slices = make([][]float64, windowSlices)
		for _, s := range in {
			k := min(int((s.end-from)/width), windowSlices-1)
			slices[k] = append(slices[k], ms(s))
		}
		for range slices {
			spans = append(spans, width)
		}
	} else {
		sort.Slice(in, func(i, j int) bool { return in[i].index < in[j].index })
		size := period
		if len(in) < period {
			size = len(in)
		}
		began := in[0].end - in[0].lat
		for _, s := range in[:size] {
			began = min(began, s.end-s.lat)
		}
		for lo := 0; lo+size <= len(in); lo += size {
			var lat []float64
			ended := time.Duration(0)
			for _, s := range in[lo : lo+size] {
				lat = append(lat, ms(s))
				ended = max(ended, s.end)
			}
			slices = append(slices, lat)
			spans = append(spans, ended-began)
			began = ended
		}
	}
	var rates, p50s, p95s []float64
	for k, lat := range slices {
		rates = append(rates, float64(len(lat))/spans[k].Seconds())
		if len(lat) == 0 {
			continue
		}
		sort.Float64s(lat)
		p50s = append(p50s, percentile(lat, 50))
		p95s = append(p95s, percentile(lat, 95))
	}
	st.perSec, st.p50, st.p95 = median(rates), median(p50s), median(p95s)
	return st
}
