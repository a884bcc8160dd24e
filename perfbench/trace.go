package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run records a span around every call the benchmark makes
// into a layer's public function. Spans of one op share its ID and point
// at their parent; the op's root span is the benchmark's own glue
// ("bench"). Spans stay in memory: self times are folded into per-layer
// totals as each op ends, and the spans of the first keepOps ops are
// written out when the run ends.

// opHeader carries the op ID from the HTTP client to the handler wrapper.
const opHeader = "X-Perfbench-Op"

const keepOps = 2000

type span struct {
	Op     uint64 `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0     time.Time
	nextOp atomic.Uint64
	st     *stats

	mu     sync.Mutex
	self   map[string]time.Duration
	opWall time.Duration
	ops    int
	kept   []span
	remote map[uint64][2]time.Time // handler spans by op ID
}

// newTracer returns a tracer; run points it at the stats of the part it
// traces.
func newTracer() *tracer {
	return &tracer{t0: time.Now(), self: map[string]time.Duration{},
		remote: map[uint64][2]time.Time{}}
}

// opTrace is one op's spans, built on the goroutine that runs the op. A
// nil *opTrace (tracing off) makes every method a no-op.
type opTrace struct {
	t     *tracer
	op    uint64
	spans []span
	stack []int
}

// begin opens an op of the given kind; nil when tracing is off.
func (t *tracer) begin(kind string) *opTrace {
	if t == nil {
		return nil
	}
	o := &opTrace{t: t, op: t.nextOp.Add(1), spans: make([]span, 0, 8), stack: make([]int, 0, 4)}
	o.spans = append(o.spans, span{Op: o.op, Parent: -1, Layer: "bench:" + kind,
		Start: int64(time.Since(t.t0))})
	o.stack = append(o.stack, 0)
	return o
}

// start opens a child span of the innermost open span.
func (o *opTrace) start(layer string) int {
	if o == nil {
		return -1
	}
	i := len(o.spans)
	o.spans = append(o.spans, span{Op: o.op, ID: i, Parent: o.stack[len(o.stack)-1],
		Layer: layer, Start: int64(time.Since(o.t.t0))})
	o.stack = append(o.stack, i)
	return i
}

// stop closes span i, which must be the innermost open span.
func (o *opTrace) stop(i int) {
	if o == nil {
		return
	}
	o.spans[i].End = int64(time.Since(o.t.t0))
	o.stack = o.stack[:len(o.stack)-1]
}

// adoptRemote attaches the handler span the server side recorded for this
// op as a child of the innermost open span.
func (o *opTrace) adoptRemote(layer string) {
	if o == nil {
		return
	}
	o.t.mu.Lock()
	r, ok := o.t.remote[o.op]
	delete(o.t.remote, o.op)
	o.t.mu.Unlock()
	if !ok {
		return
	}
	o.spans = append(o.spans, span{Op: o.op, ID: len(o.spans), Parent: o.stack[len(o.stack)-1],
		Layer: layer, Start: int64(r[0].Sub(o.t.t0)), End: int64(r[1].Sub(o.t.t0))})
}

// end closes the root span and folds the op into the per-layer totals.
func (o *opTrace) end() {
	if o == nil {
		return
	}
	o.spans[0].End = int64(time.Since(o.t.t0))
	child := make([]int64, len(o.spans))
	for _, s := range o.spans[1:] {
		child[s.Parent] += s.End - s.Start
	}
	t := o.t
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, s := range o.spans {
		d := time.Duration(s.End - s.Start)
		layer := s.Layer
		if i == 0 {
			layer = "bench"
			t.opWall += d
		} else {
			t.st.layer(layer, d)
		}
		t.self[layer] += d - time.Duration(child[i])
	}
	t.ops++
	if o.op <= keepOps {
		t.kept = append(t.kept, o.spans...)
	}
}

// wrap times every request the handler serves and files the span under
// the op ID the client sent.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		if op, err := strconv.ParseUint(r.Header.Get(opHeader), 10, 64); err == nil {
			t.mu.Lock()
			t.remote[op] = [2]time.Time{start, end}
			t.mu.Unlock()
		}
	})
}

// selfUS returns each layer's mean self time per op in microseconds.
func (t *tracer) selfUS() map[string]float64 {
	out := map[string]float64{}
	if t == nil || t.ops == 0 {
		return out
	}
	for l, d := range t.self {
		out[l] = float64(d) / float64(t.ops) / 1e3
	}
	return out
}

// attributedShare is the part of the ops' wall time that some layer's
// span, rather than the benchmark's own glue, accounts for.
func (t *tracer) attributedShare() float64 {
	if t == nil || t.opWall == 0 {
		return 0
	}
	return 1 - float64(t.self["bench"])/float64(t.opWall)
}

// dump writes the kept spans as JSON lines, ordered by op and span ID.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sort.SliceStable(t.kept, func(i, j int) bool { return t.kept[i].Op < t.kept[j].Op })
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.kept {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
