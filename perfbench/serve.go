package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hemlock/internal/core"
	"hemlock/internal/load"
	"hemlock/internal/server"
)

// serve_http and serve_inproc: parked-agent traffic at the demo kv world of
// an in-process server.Server. One agent is parked per sender; each sender
// owns the kv slots s with s % senders == its index, so every read of an
// owned slot must return that sender's last write. The mix is 50% call
// (kv_get:kv_put 4:1, cross-segment through the dynamic-public kv module)
// and 50% var access (read:write 4:1), with Zipf-distributed slots.
//
// A serve_inproc world runs two phases: a closed loop of all senders as
// fast as they go (throughput_ops_s), then an open loop (latency_*) at
// inprocLoad of the capacity that closed loop just measured, so that the
// world owner stays about as busy on a slower or faster host. The
// open-loop senders sleep until each request's intended send time. A
// sender that was idle but woke late is timed from its actual send; that
// lateness is reported as gen.lag_p99_us. A request whose sender was still
// busy with an earlier one at its intended time is timed from that time,
// but from no earlier than the earlier request's send. So after a stall
// the first requests of the backlog carry the wait and later ones do not:
// this understates backlog tails. It is deliberate. On a 2-vCPU VM the
// hypervisor takes a busy vCPU away for 4-8 ms at a time (about 1% of CPU
// time in quiet phases, more in busy ones), and timing every backlogged
// request from its own intended time made serve_inproc's p99 measure
// those preemptions: at 35% of capacity its spread over four runs was 2.8.
//
// A serve_http world runs the closed loop only, and its latencies are
// those of the closed loop's requests. An open loop over HTTP sends too
// few requests for its tail to outlast those preemptions: each one
// delays the few requests in flight or due during it, and at ~2000 req/s
// (15% of capacity) that was a few percent of all requests. p99 then
// measured the host's steal: over ten runs it spread 0.49, and a run's
// p99 ran from 630 to 2700 µs as the host's speed went from 0.43 to 0.30.
// At half the capacity, the tail measured each sender's own backlog
// (spread 0.56). A closed loop has at most one request per sender in
// flight, so a preemption delays at most that many.

const (
	serveWorldTime = 1250 * time.Millisecond
	serveWarmOps   = 400 // closed-loop ops per sender during set-up
	zipfS          = 1.1

	// serve_inproc's offered open-loop rate, as a share of the world's
	// measured closed-loop capacity. On one P that capacity uses the whole
	// CPU, so at 75% the senders fell behind their schedule after every
	// stall and did not catch up: gen.lag_p99_us was 41-71 ms. At half the
	// capacity it is about 0.5 ms.
	inprocLoad = 0.5

	// A sender waits the last sleepSlack before a send by yielding.
	sleepSlack = time.Millisecond

	// Share of each world's measuring time spent in the closed loop.
	capacityShare = 0.3
)

// opTagger stamps each HTTP request of a traced op with the op's ID, so
// that the traced handler can file its span under it. Each sender has its
// own, over the world's shared transport.
type opTagger struct {
	rt http.RoundTripper
	op uint64 // the sender's current op; 0 when it is untraced
}

func (t *opTagger) RoundTrip(r *http.Request) (*http.Response, error) {
	if t.op != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(opHeader, strconv.FormatUint(t.op, 10))
	}
	return t.rt.RoundTrip(r)
}

// sender is one load-generator goroutine's state: its parked agent, its
// owned slots and the value it last wrote to each.
type sender struct {
	id      int
	agent   string
	cli     load.Caller
	layer   string    // span around each call: server.method, or http
	tag     *opTagger // over HTTP: stamps the op ID
	rng     *rand.Rand
	zipf    *rand.Zipf
	slots   []uint32
	last    map[uint32]uint32
	unknown map[uint32]bool // a write failed: the slot's value is not known
	seq     uint32
	puts    int // successful kv_put calls (each bumps kv_hits)
	st      *stats
}

func newSender(id, n int, seed int64) *sender {
	s := &sender{id: id, agent: "agent" + strconv.Itoa(id), rng: rand.New(rand.NewSource(seed)),
		last: map[uint32]uint32{}, unknown: map[uint32]bool{}, st: newStats()}
	for slot := id; slot < server.DemoSlots; slot += n {
		s.slots = append(s.slots, uint32(slot))
	}
	s.rng.Shuffle(len(s.slots), func(i, j int) { s.slots[i], s.slots[j] = s.slots[j], s.slots[i] })
	s.zipf = rand.NewZipf(s.rng, zipfS, 1, uint64(len(s.slots)-1))
	return s
}

// serveOp is one drawn request.
type serveOp struct {
	kind string // call, var_read or var_write
	fn   string // kv_get or kv_put for calls
	slot uint32
	val  uint32
}

func (s *sender) draw() serveOp {
	o := serveOp{slot: s.slots[s.zipf.Uint64()]}
	call, write := s.rng.Intn(2) == 0, s.rng.Intn(5) == 0
	switch {
	case call && write:
		o.kind, o.fn = "call", "kv_put"
	case call:
		o.kind, o.fn = "call", "kv_get"
	case write:
		o.kind = "var_write"
	default:
		o.kind = "var_read"
	}
	if write {
		s.seq++
		o.val = uint32(s.id+1)<<24 | s.seq&0xffffff
	}
	return o
}

// exec performs o and checks its result against the sender's own writes.
func (s *sender) exec(ot *opTrace, o serveOp) error {
	var got uint32
	var err error
	if s.tag != nil {
		s.tag.op = 0
		if ot != nil {
			s.tag.op = ot.op
		}
	}
	i := ot.start(s.layer)
	switch o.kind {
	case "call":
		args := []uint32{o.slot}
		if o.fn == "kv_put" {
			args = append(args, o.val)
		}
		var r *server.CallResponse
		if r, err = s.cli.Call(&server.CallRequest{Program: s.agent, Fn: o.fn, Args: args}); err == nil {
			got = r.Ret
		}
	case "var_read":
		got, err = s.readSlot(o.slot)
	case "var_write":
		_, err = s.cli.WriteVar(&server.VarWriteRequest{Program: s.agent, Name: "kv_table", Off: o.slot * 4, Value: o.val})
	}
	if s.tag != nil {
		ot.adoptRemote("server.handler")
	}
	ot.stop(i)
	write := o.fn == "kv_put" || o.kind == "var_write"
	if err != nil {
		if write {
			s.unknown[o.slot] = true
		}
		return err
	}
	if o.kind != "var_write" && !s.unknown[o.slot] && got != s.last[o.slot] {
		s.st.badOutput(fmt.Sprintf("%s %s slot %d: got %#x, want %#x", s.agent, o.kind+"/"+o.fn, o.slot, got, s.last[o.slot]))
	}
	if write {
		s.last[o.slot] = o.val
		delete(s.unknown, o.slot)
		if o.fn == "kv_put" {
			s.puts++
		}
	}
	return nil
}

// readVar reads one word of a shared variable through the sender's agent.
func (s *sender) readVar(name string, off uint32) (uint32, error) {
	r, err := s.cli.ReadVar(s.agent, name, off)
	if err != nil {
		return 0, err
	}
	return r.Value, nil
}

func (s *sender) readSlot(slot uint32) (uint32, error) { return s.readVar("kv_table", slot*4) }

// serveWorld is one booted daemon with its agents and senders.
type serveWorld struct {
	sys     *core.System
	srv     *server.Server
	hs      *http.Server
	conns   *http.Transport // over HTTP: at most one connection per sender
	served  chan error
	senders []*sender
	st      *stats
	tr      *tracer
	rate    float64 // offered open-loop rate, requests/s
	plant   bool
}

func setupServe(useHTTP bool) setupFunc {
	return func(cfg *runConfig, st *stats, epoch int) (world, error) {
		sys := core.NewSystem()
		if _, err := server.InstallDemo(sys); err != nil {
			return nil, err
		}
		w := &serveWorld{sys: sys, srv: server.New(sys, server.Config{}), st: st, tr: cfg.tracer, plant: cfg.plant}
		n := cfg.clients
		for i := 0; i < n; i++ {
			s := newSender(i, n, cfg.seed*1000+int64(epoch)*10+int64(i))
			s.cli, s.layer = load.NewDirect(w.srv), "server.method"
			w.senders = append(w.senders, s)
			if _, err := w.srv.Launch(&server.LaunchRequest{Name: s.agent, Exe: server.DemoExe}, 0); err != nil {
				w.close()
				return nil, err
			}
		}
		if useHTTP {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				w.close()
				return nil, err
			}
			var h http.Handler = w.srv.Handler()
			if w.tr != nil {
				h = w.tr.wrap(h)
			}
			w.hs = &http.Server{Handler: h}
			w.served = make(chan error, 1)
			go func() { w.served <- w.hs.Serve(ln) }()
			w.conns = &http.Transport{MaxIdleConnsPerHost: n, MaxConnsPerHost: n, DisableCompression: true}
			for _, s := range w.senders {
				s.tag = &opTagger{rt: w.conns}
				s.cli, s.layer = load.NewHTTP("http://"+ln.Addr().String(), &http.Client{Transport: s.tag}), "http"
			}
		}
		w.closedLoop(time.Time{}, serveWarmOps, false, false)
		return w, nil
	}
}

// closedLoop runs every sender back to back until end, or for ops ops each
// when end is zero. It returns the successful ops. With record it counts
// the ops, and with timed it also times them.
func (w *serveWorld) closedLoop(end time.Time, ops int, record, timed bool) int {
	var wg sync.WaitGroup
	var okOps atomic.Int64
	for _, s := range w.senders {
		wg.Add(1)
		go func(s *sender) {
			defer wg.Done()
			for i := 0; end.IsZero() && i < ops || !end.IsZero() && time.Now().Before(end); i++ {
				o := s.draw()
				var ot *opTrace
				if record {
					ot = w.tr.begin(o.kind)
				}
				start := time.Now()
				err := s.exec(ot, o)
				d := time.Since(start)
				ot.end()
				switch {
				case timed:
					s.st.op(o.kind, d, err)
				case record:
					s.st.count(o.kind, err)
				}
				if err == nil {
					okOps.Add(1)
				}
			}
		}(s)
	}
	wg.Wait()
	return int(okOps.Load())
}

// waitUntil returns at t, or at once if t has passed. The serve workloads
// run on one P (main.go). Its runtime timers fire at every scheduling
// point while it is busy, but wake an idle process up to a millisecond
// late, since the network poller sleeps in whole milliseconds. So a sender
// sleeps on a timer until sleepSlack before t and yields the CPU in a loop
// for the rest. A timerfd read, which an idle process wakes from within
// tens of microseconds, is polled only every few milliseconds while the
// one P is busy: gen.lag_p99_us was then 41 ms.
func waitUntil(t time.Time) {
	if d := time.Until(t) - sleepSlack; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// openLoop sends at w.rate (Poisson arrivals, split over the senders) until
// end.
func (w *serveWorld) openLoop(end time.Time) {
	var wg sync.WaitGroup
	var inFlight, maxInFlight atomic.Int64
	interval := float64(time.Second) * float64(len(w.senders)) / w.rate
	start := time.Now()
	for _, s := range w.senders {
		wg.Add(1)
		go func(s *sender) {
			defer wg.Done()
			next := start
			var prevSend, prevDone time.Time
			for {
				next = next.Add(time.Duration(s.rng.ExpFloat64() * interval))
				if !next.Before(end) {
					return
				}
				waitUntil(next)
				o := s.draw()
				ot := w.tr.begin(o.kind)
				send := time.Now()
				from := send
				if prevDone.After(next) { // still busy at the intended time: the wait counts
					from = next
					if prevSend.After(from) {
						from = prevSend
					}
				}
				n := inFlight.Add(1)
				for m := maxInFlight.Load(); n > m && !maxInFlight.CompareAndSwap(m, n); m = maxInFlight.Load() {
				}
				err := s.exec(ot, o)
				done := time.Now()
				inFlight.Add(-1)
				ot.end()
				s.st.op(o.kind, done.Sub(from), err)
				s.st.lag.add(send.Sub(next))
				prevSend, prevDone = send, done
			}
		}(s)
	}
	wg.Wait()
	if m := int(maxInFlight.Load()); m > w.st.inFlightMax {
		w.st.inFlightMax = m
	}
}

func (w *serveWorld) measure(end time.Time) (tput, mips float64) {
	steps := w.sys.Obs().Registry().Counter("kern.steps")
	t0, s0 := time.Now(), steps.Value()
	if w.hs != nil { // serve_http: the closed loop gives every figure
		ok := w.closedLoop(end, 0, true, true)
		wall := time.Since(t0).Seconds()
		return float64(ok) / wall, float64(steps.Value()-s0) / wall / 1e6
	}
	capEnd := t0.Add(time.Duration(capacityShare * float64(end.Sub(t0))))
	ok := w.closedLoop(capEnd, 0, true, false)
	tput = float64(ok) / time.Since(t0).Seconds()
	w.rate = inprocLoad * tput
	// At an offered rate that follows the capacity, guest MIPS moves with
	// instructions per request only.
	s0, t1 := steps.Value(), time.Now()
	w.openLoop(end)
	return tput, float64(steps.Value()-s0) / time.Since(t1).Seconds() / 1e6
}

// verify re-reads every owned slot and the kv_hits counter: every slot
// must hold its owner's last write, and kv_hits must count every kv_put.
func (w *serveWorld) verify() {
	if w.plant {
		s := w.senders[0]
		if _, err := s.cli.WriteVar(&server.VarWriteRequest{Program: s.agent, Name: "kv_table",
			Off: s.slots[0] * 4, Value: s.last[s.slots[0]] + 1}); err != nil {
			w.st.badOutput("planting a wrong value: " + err.Error())
		}
	}
	puts := 0
	for _, s := range w.senders {
		puts += s.puts
		for _, slot := range s.slots {
			if s.unknown[slot] {
				continue
			}
			got, err := s.readSlot(slot)
			if err != nil || got != s.last[slot] {
				s.st.badOutput(fmt.Sprintf("final check %s slot %d: got %#x (%v), want %#x", s.agent, slot, got, err, s.last[slot]))
			}
		}
	}
	hits, err := w.senders[0].readVar("kv_hits", 0)
	if err != nil || int(hits) != puts {
		w.st.badOutput(fmt.Sprintf("kv_hits = %d (%v), want %d kv_put calls", hits, err, puts))
	}
}

func (w *serveWorld) close() {
	if w.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		// The senders have stopped, so nothing is in flight; a failed drain
		// would only leave idle connections behind.
		_ = w.hs.Shutdown(ctx)
		cancel()
		<-w.served
	}
	if w.conns != nil {
		w.conns.CloseIdleConnections()
	}
	_ = w.srv.Close() // its only error is flushing trace sinks, and none are attached
	for _, s := range w.senders {
		w.st.merge(s.st)
	}
	w.st.absorb(w.sys.Obs().Registry().Snapshot())
}
