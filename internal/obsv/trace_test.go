package obsv

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// stepClock is the injectable deterministic clock: 1000, 2000, 3000, ...
func stepClock() func() int64 {
	var n int64
	return func() int64 {
		n += 1000
		return n
	}
}

func TestTracerEnableDisable(t *testing.T) {
	tr := NewTracer(stepClock())
	if tr.Enabled() {
		t.Fatal("tracer enabled with no sinks")
	}
	r := NewRing(8)
	tr.Attach(r)
	if !tr.Enabled() {
		t.Fatal("tracer disabled with a sink attached")
	}
	tr.Emit(Event{Subsys: "kern", Name: "a"})
	tr.Detach(r)
	if tr.Enabled() {
		t.Fatal("tracer enabled after last sink detached")
	}
	tr.Emit(Event{Subsys: "kern", Name: "b"})
	if got := r.Len(); got != 1 {
		t.Fatalf("ring has %d events, want 1 (emit after detach recorded?)", got)
	}
}

func TestTracerStampsAndDefaults(t *testing.T) {
	tr := NewTracer(stepClock())
	r := NewRing(8)
	tr.Attach(r)
	tr.Emit(Event{Subsys: "kern", Name: "a"})
	tr.Emit(Event{Subsys: "kern", Name: "b", TS: 77, Phase: PhaseBegin})
	evs := r.Events()
	if evs[0].TS != 1000 || evs[0].Phase != PhaseInstant {
		t.Fatalf("event 0 not stamped/defaulted: %+v", evs[0])
	}
	if evs[1].TS != 77 || evs[1].Phase != PhaseBegin {
		t.Fatalf("explicit TS/phase overwritten: %+v", evs[1])
	}
}

// costRing is a ring that also records what the tracer reports each
// event's fan-out cost.
type costRing struct {
	*Ring
	costs []int64
}

func (c *costRing) EmitCost(e Event, ns int64) { c.costs = append(c.costs, ns) }

// TestTracerReportsFanOutCost: a CostSink learns, for every event the
// tracer stamped, the clock distance from the stamp to the end of the
// fan-out; an event that arrives pre-stamped has no measured cost.
func TestTracerReportsFanOutCost(t *testing.T) {
	tr := NewTracer(stepClock())
	c := &costRing{Ring: NewRing(8)}
	tr.Attach(NewRing(8))
	tr.Attach(c)
	tr.Emit(Event{Subsys: "kern", Name: "a"})
	tr.Emit(Event{Subsys: "kern", Name: "b", TS: 77})
	if len(c.costs) != 1 || c.costs[0] != 1000 {
		t.Fatalf("costs = %v, want [1000] (one clock step, pre-stamped event skipped)", c.costs)
	}
	if got := c.Len(); got != 2 {
		t.Fatalf("cost sink received %d events, want 2", got)
	}
}

func TestSpan(t *testing.T) {
	tr := NewTracer(stepClock())
	r := NewRing(8)
	tr.Attach(r)
	sp := tr.Begin("kern", "run", 3, "m")
	sp.End(42)
	evs := r.Events()
	if len(evs) != 2 {
		t.Fatalf("span emitted %d events, want 2", len(evs))
	}
	if evs[0].Phase != PhaseBegin || evs[1].Phase != PhaseEnd || evs[1].Val != 42 {
		t.Fatalf("span events wrong: %+v", evs)
	}
	if evs[0].PID != 3 || evs[1].Mod != "m" {
		t.Fatalf("span fields lost: %+v", evs)
	}
}

func TestRingWraparound(t *testing.T) {
	r := NewRing(3)
	for i := 1; i <= 5; i++ {
		r.Emit(Event{TS: int64(i)})
	}
	if r.Len() != 3 {
		t.Fatalf("len = %d, want 3", r.Len())
	}
	if r.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", r.Dropped())
	}
	evs := r.Events()
	for i, want := range []int64{3, 4, 5} {
		if evs[i].TS != want {
			t.Fatalf("events = %+v, want TS 3,4,5 oldest-first", evs)
		}
	}
}

// golden events exercised by both exporter tests.
func goldenEvents(tr *Tracer) {
	tr.Emit(Event{Subsys: "kern", Name: "getpid", PID: 1, Val: 3})
	tr.Emit(Event{Subsys: "ldl", Name: "lazy_link", PID: 1, Mod: "/lib/shared", Addr: 0x30900000, Val: 2})
	sp := tr.Begin("kern", "run", 1, "")
	sp.End(11)
}

func TestJSONLGolden(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(stepClock())
	sink := NewJSONL(&buf)
	tr.Attach(sink)
	goldenEvents(tr)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	want := `{"ts":1000,"subsys":"kern","name":"getpid","ph":"i","pid":1,"val":3}
{"ts":2000,"subsys":"ldl","name":"lazy_link","ph":"i","pid":1,"mod":"/lib/shared","addr":"0x30900000","val":2}
{"ts":3000,"subsys":"kern","name":"run","ph":"B","pid":1}
{"ts":4000,"subsys":"kern","name":"run","ph":"E","pid":1,"val":11}
`
	if buf.String() != want {
		t.Fatalf("JSONL output:\n%s\nwant:\n%s", buf.String(), want)
	}
	// Every line must be valid JSON.
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]interface{}
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad JSON line %q: %v", line, err)
		}
	}
}

func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(stepClock())
	sink := NewChromeTrace(&buf)
	tr.Attach(sink)
	goldenEvents(tr)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	want := `[
{"name":"getpid","cat":"kern","ph":"i","s":"t","ts":1,"pid":1,"tid":1,"args":{"val":3}},
{"name":"lazy_link","cat":"ldl","ph":"i","s":"t","ts":2,"pid":1,"tid":1,"args":{"mod":"/lib/shared","addr":"0x30900000","val":2}},
{"name":"run","cat":"kern","ph":"B","ts":3,"pid":1,"tid":1,"args":{}},
{"name":"run","cat":"kern","ph":"E","ts":4,"pid":1,"tid":1,"args":{"val":11}}
]
`
	if buf.String() != want {
		t.Fatalf("Chrome trace output:\n%s\nwant:\n%s", buf.String(), want)
	}
	var arr []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &arr); err != nil {
		t.Fatalf("not a valid JSON array: %v", err)
	}
	if len(arr) != 4 {
		t.Fatalf("array has %d entries, want 4", len(arr))
	}
}

func TestChromeTraceEmptyIsValid(t *testing.T) {
	var buf bytes.Buffer
	sink := NewChromeTrace(&buf)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	var arr []interface{}
	if err := json.Unmarshal(buf.Bytes(), &arr); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v (%q)", err, buf.String())
	}
}

func TestTextSink(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(stepClock())
	tr.Attach(NewText(&buf))
	tr.Emit(Event{Subsys: "ldl", Name: "map_public", PID: 2, Mod: "/lib/x", Addr: 0x30000000, Val: 1})
	out := buf.String()
	for _, want := range []string{"ldl", "map_public", "pid=2", "mod=/lib/x", "addr=0x30000000", "val=1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text line missing %q: %q", want, out)
		}
	}
}

// TestTracerConcurrency hammers one tracer from many goroutines while
// sinks attach and detach; run under -race this is the concurrency-safety
// proof for the fan-out path.
func TestTracerConcurrency(t *testing.T) {
	tr := NewTracer(nil)
	ring := NewRing(64)
	tr.Attach(ring)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			extra := NewRing(16)
			for i := 0; i < 500; i++ {
				tr.Emit(Event{Subsys: "kern", Name: "e", PID: w, Val: uint64(i)})
				switch i % 100 {
				case 10:
					tr.Attach(extra)
				case 20:
					tr.Detach(extra)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := ring.Len() + int(ring.Dropped()); got != 8*500 {
		t.Fatalf("ring saw %d events, want %d", got, 8*500)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if tr.Enabled() {
		t.Fatal("tracer enabled after Close")
	}
}
