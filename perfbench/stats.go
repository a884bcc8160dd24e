package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"hemlock/internal/obsv"
)

// hist is a latency histogram with logarithmic buckets 1% wide. Its
// memory is fixed, so the benchmark's own bookkeeping does not grow the
// heap it reports, and a quantile interpolates inside its bucket, so it
// reads as measured rather than as a bucket edge.
type hist struct {
	n      uint64
	counts [histBuckets]uint64
}

const histBuckets = 2600 // 1.01^2600 ns > 10^11 ns

var logStep = math.Log(1.01)

func (h *hist) add(d time.Duration) {
	i := 0
	if d > 1 {
		i = min(int(math.Log(float64(d))/logStep), histBuckets-1)
	}
	h.counts[i]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantileUS returns the q-quantile in microseconds (0 when empty).
func (h *hist) quantileUS(q float64) float64 {
	if h == nil || h.n == 0 {
		return 0
	}
	rank := max(q*float64(h.n)-0.5, 0) // mid-rank: rarely exactly a bucket edge
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := math.Exp(float64(i)*logStep), math.Exp(float64(i+1)*logStep)
			return (lo + (rank-cum)/float64(c)*(hi-lo)) / 1e3
		}
		cum += float64(c)
	}
	return 0
}

// quantile returns the q-quantile of plain values, interpolating between
// ranks (0 when empty).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	pos := q * float64(len(c)-1)
	i := int(pos)
	if i+1 >= len(c) {
		return c[len(c)-1]
	}
	return c[i] + (pos-float64(i))*(c[i+1]-c[i])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// worldResult is what one measured world reports.
type worldResult struct {
	ops      int       // timed ops
	p50, p99 float64   // their latency percentiles (µs)
	tput     float64   // ops/s of its throughput phase
	mips     float64   // guest MIPS of its measured phases
	heapMB   float64   // live heap at the end of its measured phase
	steal    float64   // share of the host's CPU time stolen while it measured
	speed    float64   // host speed around its measured phase (calib.go)
	parts    []float64 // median time of each calibration part around it (µs)
}

// setup is one world's set-up time and the host speed around it.
type setup struct{ secs, speed float64 }

// timed returns the worlds that timed minWorldOps ops, or, when none did,
// every world that timed an op.
func (s *stats) timed() []worldResult {
	var sound, any []worldResult
	for _, w := range s.worlds {
		if w.ops >= minWorldOps {
			sound = append(sound, w)
		}
		if w.ops > 0 {
			any = append(any, w)
		}
	}
	if len(sound) > 0 {
		return sound
	}
	return any
}

// setupSecs returns each set-up's time at the host speed around it.
func (s *stats) setupSecs() []float64 {
	v := make([]float64, len(s.setups))
	for i, u := range s.setups {
		v[i] = u.secs * u.speed
	}
	return v
}

// col extracts one field of each timed world.
func (s *stats) col(f func(worldResult) float64) []float64 { return colOf(s.timed(), f) }

func colOf(ws []worldResult, f func(worldResult) float64) []float64 {
	v := make([]float64, len(ws))
	for i, w := range ws {
		v[i] = f(w)
	}
	return v
}

// stats accumulates everything one run measures, across the worlds it
// boots. It is not safe for concurrent use: each serve sender fills its
// own, merged into the run's when its world closes, and the tracer's
// updates are serialized by the tracer.
type stats struct {
	attempted, failed int
	firstErr          string
	wrong             []string // output-check failures: these fail the run

	setups []setup       // one per world set-up
	worlds []worldResult // one per measured world

	lat      hist // end-to-end op latency of the current world
	ops      map[string]*hist
	layers   map[string]*hist  // span durations by layer (traced only)
	counters map[string]uint64 // registry counters summed over worlds
	service  map[uint64]uint64 // merged server.<op>_ns histogram buckets

	lag         hist // open-loop sender lateness
	inFlightMax int
	inodesMax   int
	launches    int // launches that count toward pages-mapped-per-launch
	mipsSteps   map[string]uint64
	mipsWall    map[string]time.Duration

	probeKeys, probeOps, probeFailed int
	probeErr                         string
}

func newStats() *stats {
	return &stats{
		ops:       map[string]*hist{},
		layers:    map[string]*hist{},
		counters:  map[string]uint64{},
		service:   map[uint64]uint64{},
		mipsSteps: map[string]uint64{},
		mipsWall:  map[string]time.Duration{},
	}
}

// op records one attempted op of kind k: its latency when it succeeded,
// its error otherwise.
func (s *stats) op(k string, d time.Duration, err error) {
	if !s.count(k, err) {
		return
	}
	s.lat.add(d)
	o := s.ops[k]
	if o == nil {
		o = &hist{}
		s.ops[k] = o
	}
	o.add(d)
}

// count records one attempted op that is not timed, and reports whether
// it succeeded.
func (s *stats) count(k string, err error) bool {
	s.attempted++
	if err != nil {
		s.failed++
		if s.firstErr == "" {
			s.firstErr = k + ": " + err.Error()
		}
		return false
	}
	return true
}

// badOutput records a wrong output. The run then reports correct=false.
func (s *stats) badOutput(msg string) {
	if len(s.wrong) < 20 {
		s.wrong = append(s.wrong, msg)
	}
}

// merge adds o's records into s: a sender's into its world's run, or one
// part of a traced run into the other.
func (s *stats) merge(o *stats) {
	s.attempted += o.attempted
	s.failed += o.failed
	if s.firstErr == "" {
		s.firstErr = o.firstErr
	}
	for _, m := range o.wrong {
		s.badOutput(m)
	}
	s.setups = append(s.setups, o.setups...)
	s.worlds = append(s.worlds, o.worlds...)
	s.lat.merge(&o.lat)
	mergeHists(s.ops, o.ops)
	mergeHists(s.layers, o.layers)
	for k, v := range o.counters {
		s.counters[k] += v
	}
	for k, v := range o.service {
		s.service[k] += v
	}
	s.lag.merge(&o.lag)
	s.inFlightMax = max(s.inFlightMax, o.inFlightMax)
	s.inodesMax = max(s.inodesMax, o.inodesMax)
	s.launches += o.launches
	for k, v := range o.mipsSteps {
		s.mipsSteps[k] += v
	}
	for k, v := range o.mipsWall {
		s.mipsWall[k] += v
	}
	s.probeKeys += o.probeKeys
	s.probeOps += o.probeOps
	s.probeFailed += o.probeFailed
	if s.probeErr == "" {
		s.probeErr = o.probeErr
	}
}

func mergeHists(dst, src map[string]*hist) {
	for k, v := range src {
		if dst[k] == nil {
			dst[k] = &hist{}
		}
		dst[k].merge(v)
	}
}

func (s *stats) layer(name string, d time.Duration) {
	l := s.layers[name]
	if l == nil {
		l = &hist{}
		s.layers[name] = l
	}
	l.add(d)
}

// absorb adds a finished world's registry counters and server service
// histograms into the run totals.
func (s *stats) absorb(snap obsv.Snapshot) {
	for k, v := range snap.Counters {
		s.counters[k] += v
	}
	for _, name := range []string{"server.call_ns", "server.var_read_ns", "server.var_write_ns"} {
		for _, b := range snap.Histograms[name].Buckets {
			s.service[b.Le] += b.Count
		}
	}
}

// serviceQuantileUS estimates a quantile of the merged service histogram
// the way obsv does: find the power-of-two bucket, interpolate inside it.
func (s *stats) serviceQuantileUS(q float64) float64 {
	les := make([]uint64, 0, len(s.service))
	var n uint64
	for le, c := range s.service {
		les = append(les, le)
		n += c
	}
	if n == 0 {
		return 0
	}
	sort.Slice(les, func(i, j int) bool { return les[i] < les[j] })
	rank := q * float64(n)
	var cum float64
	for _, le := range les {
		c := float64(s.service[le])
		if cum+c >= rank {
			lo := float64(le/2 + 1)
			if le == 0 {
				lo = 0
			}
			return (lo + (rank-cum)/c*(float64(le)-lo)) / 1e3
		}
		cum += c
	}
	return float64(les[len(les)-1]) / 1e3
}

// stealMeter measures the share of the host's CPU time stolen from this
// machine (by its hypervisor's other guests) over an interval, from the
// cumulative counters in /proc/stat, for the traced run's host.steal_share.
// Where those cannot be read it reads 0.
type stealMeter struct{ steal, total uint64 }

func startSteal() stealMeter {
	var m stealMeter
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return m
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return m
	}
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return stealMeter{}
		}
		m.total += v
	}
	m.steal, _ = strconv.ParseUint(f[8], 10, 64)
	return m
}

// share returns the stolen share of the CPU time since m was started.
func (m stealMeter) share() float64 {
	n := startSteal()
	if n.total <= m.total {
		return 0
	}
	return float64(n.steal-m.steal) / float64(n.total-m.total)
}

// liveHeapMB collects garbage and returns the live Go heap in MiB: the
// memory a world holds.
func liveHeapMB() float64 {
	runtime.GC()
	m := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(m)
	return float64(m[0].Value.Uint64()) / (1 << 20)
}
