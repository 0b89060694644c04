package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Recorder keeps the benchmark's own spans in memory until the run ends.
// Each client goroutine records into its own Lane, so recording takes no
// lock; a nil *Recorder and a nil *Lane record nothing.
type Recorder struct {
	nextID atomic.Int64
	mu     sync.Mutex
	lanes  []*Lane
}

// Lane is one goroutine's span buffer.
type Lane struct {
	rec   *Recorder
	spans []SpanRec
}

// SpanRec is one recorded span. Spans of one client op share Op; Parent
// is 0 for a root span.
type SpanRec struct {
	ID     int64     `json:"id"`
	Parent int64     `json:"parent,omitempty"`
	Op     int64     `json:"op"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Lane returns a new lane for one goroutine.
func (r *Recorder) Lane() *Lane {
	if r == nil {
		return nil
	}
	l := &Lane{rec: r}
	r.mu.Lock()
	r.lanes = append(r.lanes, l)
	r.mu.Unlock()
	return l
}

// Span is an open span handle.
type Span struct {
	lane *Lane
	idx  int
}

// ID returns the span's identifier, or 0 for a no-op span.
func (s Span) ID() int64 {
	if s.lane == nil {
		return 0
	}
	return s.lane.spans[s.idx].ID
}

// Begin opens a span now.
func (l *Lane) Begin(name string, parent, op int64) Span {
	if l == nil {
		return Span{}
	}
	return l.Add(name, parent, op, time.Now(), time.Time{})
}

// Add records a span with explicit times (end may be set later by End).
func (l *Lane) Add(name string, parent, op int64, start, end time.Time) Span {
	if l == nil {
		return Span{}
	}
	l.spans = append(l.spans, SpanRec{ID: l.rec.nextID.Add(1), Parent: parent, Op: op, Name: name, Start: start, End: end})
	return Span{lane: l, idx: len(l.spans) - 1}
}

// End closes the span now.
func (s Span) End() {
	if s.lane != nil {
		s.lane.spans[s.idx].End = time.Now()
	}
}

// NewOp returns a fresh op identifier, or 0 on a nil recorder.
func (r *Recorder) NewOp() int64 {
	if r == nil {
		return 0
	}
	return r.nextID.Add(1)
}

// Durations returns the durations of every span with the given name.
func (r *Recorder) Durations(name string) []time.Duration {
	if r == nil {
		return nil
	}
	var out []time.Duration
	for _, l := range r.lanes {
		for _, s := range l.spans {
			if s.Name == name {
				out = append(out, s.End.Sub(s.Start))
			}
		}
	}
	return out
}

// Count returns the number of recorded spans.
func (r *Recorder) Count() int {
	n := 0
	for _, l := range r.lanes {
		n += len(l.spans)
	}
	return n
}

// WriteJSONL writes every span, one JSON object per line, to dir/name.
func (r *Recorder) WriteJSONL(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, l := range r.lanes {
		for i := range l.spans {
			if err := enc.Encode(&l.spans[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	fmt.Fprintf(os.Stderr, "  wrote %d spans to %s\n", r.Count(), filepath.Join(dir, name))
	return f.Close()
}

// tableTolerance is how far the layer table's sum may sit from the
// untraced end-to-end p50 before the table is flagged: the gap is the
// benchmark's tracing overhead plus the non-additivity of medians.
const tableTolerance = 0.15

// LayerRow is one layer's share of the end-to-end p50.
type LayerRow struct {
	Name string
	D    time.Duration
	How  string // "replayed", "measured" or "remainder"
}

// LayerTable splits the traced end-to-end p50 of a workload's unit op
// into per-layer medians.
type LayerTable struct {
	Workload string
	Op       string
	Rows     []LayerRow
	// Traced and Untraced are the unit op's p50 with and without the
	// benchmark's spans.
	Traced, Untraced time.Duration
}

// Sum adds the rows.
func (t LayerTable) Sum() time.Duration {
	var s time.Duration
	for _, r := range t.Rows {
		s += r.D
	}
	return s
}

func usDur(v float64) time.Duration { return time.Duration(v * 1e3) }

// unitSpan names the benchmark span around a workload's unit op.
func unitSpan(workload string) string {
	switch workload {
	case "api-mixed":
		return "graphapi.like"
	case "http-wire":
		return "platform.like"
	}
	return "core.milk_round"
}

// buildLayerTable assembles the table from the traced and untraced p50
// of the unit op and the replay probe's per-layer medians in layer.
// Replayed inner layers are subtracted from the measured outer call; the
// outer layer's own share is the remainder, so the rows add up to the
// traced p50.
func buildLayerTable(workload string, traced time.Duration, layer map[string]float64, untraced time.Duration) LayerTable {
	t := LayerTable{Workload: workload, Traced: traced, Untraced: untraced}
	inner := []LayerRow{
		{"oauthsim.validate", usDur(layer["oauthsim.validate_us_p50"]), "replayed"},
		{"defense.evaluate", usDur(layer["defense.evaluate_us_p50"]), "replayed"},
		{"socialgraph.add_like", usDur(layer["socialgraph.add_like_us_p50"]), "replayed"},
	}
	var innerSum time.Duration
	for _, r := range inner {
		innerSum += r.D
	}
	switch workload {
	case "api-mixed":
		t.Op = "graphapi.Like"
		t.Rows = append(inner, LayerRow{"graphapi (own)", t.Traced - innerSum, "remainder"})
	case "http-wire":
		t.Op = "HTTPClient.Like"
		apiLike := usDur(layer["graphapi.like_us_p50"])
		server := usDur(layer["platform.http.server_us_p50"])
		t.Rows = append(inner,
			LayerRow{"graphapi (own)", apiLike - innerSum, "remainder"},
			LayerRow{"platform.http server (mux, middleware, JSON)", server - apiLike, "remainder"},
			LayerRow{"platform.http client + loopback wire", t.Traced - server, "remainder"})
	default:
		// A milking round drives the batched delivery path inside
		// collusion, which the benchmark cannot open from outside; its
		// per-like layers are reported as replayed medians only.
		t.Op = "Study.MilkNetwork"
		t.Rows = []LayerRow{{"core.milk_round (not decomposed)", t.Traced, "measured"}}
	}
	return t
}

// Print writes the table.
func (t LayerTable) Print(w io.Writer) {
	fmt.Fprintf(w, "\n  layer table: %s, p50 of one %s\n", t.Workload, t.Op)
	fmt.Fprintf(w, "  %-46s %10s %7s  %s\n", "layer", "p50 us", "share", "how")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "  %-46s %10.2f %6.1f%%  %s\n", r.Name, us(r.D), 100*ratio(float64(r.D), float64(t.Traced)), r.How)
	}
	sum := t.Sum()
	gap := ratio(float64(sum-t.Untraced), float64(t.Untraced))
	verdict := "within"
	if gap > tableTolerance || gap < -tableTolerance {
		verdict = "OUTSIDE"
	}
	for _, r := range t.Rows {
		if r.D < -time.Duration(tableTolerance*float64(t.Traced)) {
			verdict = "OUTSIDE (negative remainder)"
		}
	}
	fmt.Fprintf(w, "  %-46s %10.2f\n", "sum of rows (= traced p50)", us(sum))
	fmt.Fprintf(w, "  %-46s %10.2f\n", "untraced end-to-end p50", us(t.Untraced))
	fmt.Fprintf(w, "  %-46s %10.2f\n", "tracing overhead (traced - untraced)", us(t.Traced-t.Untraced))
	fmt.Fprintf(w, "  sum vs untraced: %+.1f%% — %s the ±%.0f%% tolerance\n\n", 100*gap, verdict, 100*tableTolerance)
}

// PerLayer names one per-layer metric.
type PerLayer struct{ Name, Unit string }

// perLayerMetrics is every metric the traced run reports, in
// BENCHMARK.json order. A layer a workload does not exercise reports 0
// (README.md lists which).
var perLayerMetrics = []PerLayer{
	{"fail_frac", "frac"},
	{"op_tail_us", "us"},
	{"read_tail_us", "us"},
	{"platform.http.conns_per_op", "count"},
	{"platform.http.server_us_p50", "us"},
	{"platform.http.client_us_p50", "us"},
	{"platform.http.resp_bytes_per_read", "B"},
	{"graphapi.like_us_p50", "us"},
	{"graphapi.likes_page_us_p50", "us"},
	{"graphapi.comment_us_p50", "us"},
	{"graphapi.like_accept_frac", "frac"},
	{"oauthsim.validate_us_p50", "us"},
	{"defense.evaluate_us_p50", "us"},
	{"defense.denials_per_kop.token-rate-limit", "count"},
	{"defense.denials_per_kop.ip-rate-limit", "count"},
	{"defense.denials_per_kop.as-block", "count"},
	{"defense.cluster_sweep_ms", "ms"},
	{"defense.invalidate_ms", "ms"},
	{"socialgraph.add_like_us_p50", "us"},
	{"socialgraph.likes_page_us_p50", "us"},
	{"socialgraph.lock_contended_frac", "frac"},
	{"socialgraph.heap_bytes_per_edge", "B"},
	{"collusion.background_us_p50", "us"},
	{"collusion.delivered_frac", "frac"},
	{"collusion.likes_delivered", "count"},
	{"obs.spans_per_op", "count"},
	{"obs.bench_overhead_us", "us"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.cpu_us_per_op", "us"},
	{"runtime.sys_cpu_frac", "frac"},
	{"layer.e2e_untraced_us", "us"},
	{"layer.e2e_traced_us", "us"},
	{"layer.sum_us", "us"},
}
