// Command perfbench is the repository benchmark. It boots fresh Hemlock
// worlds, drives one workload from a seed, checks every output, and prints
// its metrics as one JSON object on the last line of standard output:
// the end-to-end metrics, or with -trace 1 the per-layer ones.
//
//	bash perfbench/run.sh --workload serve_inproc --seed 1 --seconds 10 --trace 0
//
// It calls only the program's public entry points (core.System,
// server.Server and its Handler, kern.Scheduler, shmfs.FS, isa.Assemble,
// the obsv registry), sets no HEMLOCK_* variable, and leaves stable
// linking at its defaults. A wrong output makes the run print
// "correct": false and exit 1.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// world is one booted system under a workload.
type world interface {
	// measure drives ops until end (or the world's own op budget) and
	// returns the throughput phase's ops/s and the guest MIPS.
	measure(end time.Time) (tput, mips float64)
	verify() // check the world's final state
	close()  // stop its goroutines and fold its counters into the run
}

type setupFunc func(cfg *runConfig, st *stats, epoch int) (world, error)

// A workload boots worlds with setup, one after another. With a
// worldTime each world measures for about that long; without, worlds run
// to their own op budget until the run's time is up. With procs > 0 the
// Go runtime runs it on that many Ps, otherwise on one per host CPU.
type workload struct {
	setup     setupFunc
	worldTime time.Duration
	procs     int
}

// The serve workloads run on one P. Every request passes between
// goroutines (sender, connection, world owner); on two Ps each pass can
// wake a parked thread on the other vCPU, and what that costs is the
// host's: on the 2-vCPU host, with two Ps, serve_inproc's p99 was 150 µs
// against 21 µs on one, and serve_http's p50 and p99 were 1.6 and 1.9
// times as long, and varied with the host's phase. smp_parallel needs a P
// per guest CPU; launch_churn is one goroutine and keeps the collector's
// workers on the other P.
var workloads = map[string]workload{
	"serve_http":   {setupServe(true), serveWorldTime, 1},
	"serve_inproc": {setupServe(false), serveWorldTime, 1},
	"launch_churn": {setupChurn, 0, 0},
	"smp_parallel": {setupSMP, smpWorldTime, 0},
}

type runConfig struct {
	workload string
	seed     int64
	dur      time.Duration
	clients  int     // senders and guest CPUs: the host's CPUs, at most smpMaxWorkers
	tracer   *tracer // nil: untraced
	plant    bool    // plant a wrong value in each world; the checks must fail
}

// run drives one workload for cfg.dur and returns what it measured. Each
// world's measured phase and each set-up is bracketed by calibration
// bursts (calib.go), which give the host speed its times are scaled by.
func run(cfg *runConfig) (*stats, error) {
	wl := workloads[cfg.workload]
	if wl.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(wl.procs))
	}
	st := newStats()
	if cfg.tracer != nil {
		cfg.tracer.st = st
	}
	start := time.Now()
	deadline := start.Add(cfg.dur)
	worlds := 1
	if wl.worldTime > 0 {
		worlds = max(1, int(cfg.dur/wl.worldTime))
	}
	for e := 0; ; e++ {
		w, err := bootWorld(cfg, st, e, wl.setup)
		if err != nil {
			return nil, err
		}
		end := deadline
		if wl.worldTime > 0 {
			end = start.Add(cfg.dur * time.Duration(e+1) / time.Duration(worlds))
		}
		if floor := time.Now().Add(minMeasure); end.Before(floor) {
			end = floor // a set-up that overran its world's share still gets measured
		}
		r := worldResult{}
		bursts := calibrate(calibBursts)
		steal := startSteal()
		r.tput, r.mips = w.measure(end)
		r.steal = steal.share()
		bursts = append(bursts, calibrate(calibBursts)...)
		r.speed, r.parts = hostSpeed(bursts), partsUS(bursts)
		w.verify()
		r.heapMB = liveHeapMB()
		w.close()
		r.ops, r.p50, r.p99 = int(st.lat.n), st.lat.quantileUS(0.50), st.lat.quantileUS(0.99)
		st.worlds = append(st.worlds, r)
		st.lat = hist{}
		if e+1 >= worlds && !time.Now().Before(deadline) {
			break
		}
	}
	// More set-ups, measured alone, so that setup_s is a median of many.
	for e := len(st.setups); e < minSetups; e++ {
		w, err := bootWorld(cfg, st, 1000+e, wl.setup)
		if err != nil {
			return nil, err
		}
		w.verify()
		w.close()
	}
	return st, nil
}

// bootWorld sets up one world from a collected heap, and records how
// long that took at the host speed around it.
func bootWorld(cfg *runConfig, st *stats, epoch int, setupWorld setupFunc) (world, error) {
	runtime.GC()
	bursts := calibrate(calibBursts)
	t := time.Now()
	w, err := setupWorld(cfg, st, epoch)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
	}
	secs := time.Since(t).Seconds()
	st.setups = append(st.setups, setup{secs, hostSpeed(append(bursts, calibrate(calibBursts)...))})
	return w, nil
}

const (
	minSetups   = 15   // set-ups each run makes at least
	minWorldOps = 1000 // timed ops a world needs to count; fewer, and it was cut short
	minMeasure  = 100 * time.Millisecond
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd reports the medians over the run's worlds of each world's
// figures at the host speed around it (calib.go): throughput, latency
// percentiles and guest MIPS; set-up time is the median over set-ups. The
// heap is what a world holds when its measured phase ends, which for every
// workload is when its state is largest (launch_churn's only grows; the
// others are steady).
func endToEnd(st *stats) map[string]metric {
	col := func(f func(worldResult) float64) float64 { return median(st.col(f)) }
	return map[string]metric{
		"throughput_ops_s": {col(func(w worldResult) float64 { return w.tput / w.speed }), "1/s"},
		"latency_p50_us":   {col(func(w worldResult) float64 { return w.p50 * w.speed }), "us"},
		"latency_p99_us":   {col(func(w worldResult) float64 { return w.p99 * w.speed }), "us"},
		"setup_s":          {median(st.setupSecs()), "s"},
		"peak_heap_mb":     {col(func(w worldResult) float64 { return w.heapMB }), "MiB"},
		"guest_mips":       {col(func(w worldResult) float64 { return w.mips / w.speed }), "MIPS"},
	}
}

// layerSelf lists the traced layers; self.<layer>_us is each one's mean
// self time per op.
var layerSelf = []string{"bench", "http", "server.handler", "server.method", "objfile.decode",
	"kern.launch", "kern.run", "kern.sched", "core.var", "isa.assemble", "shmfs.write",
	"shmfs.unlink", "lds.link"}

// perLayer builds the per-layer metrics from the untraced parts (a), the
// traced parts (b, whose spans tr folded) and the CPU profile.
func perLayer(a, b *stats, tr *tracer, cpu map[string]float64) map[string]metric {
	m := map[string]metric{}
	put := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // a ratio with nothing to divide by
		}
		m[name] = metric{v, unit}
	}
	perOp := func(name string) {
		put(name, "1/op", float64(a.counters[name])/float64(max(a.attempted, 1)))
	}
	ratio := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	span := func(layer string, q float64) float64 { return b.layers[layer].quantileUS(q) }
	c := a.counters

	put("gen.lag_p99_us", "us", a.lag.quantileUS(0.99))
	put("gen.in_flight_max", "count", float64(a.inFlightMax))

	method := "server.method"
	if b.layers[method] == nil {
		method = "server.handler" // over HTTP the methods run inside the handler
	}
	put("server.rtt_p50_us", "us", span("http", 0.5))
	put("server.handler_p50_us", "us", span("server.handler", 0.5))
	put("server.transport_p50_us", "us", max(span("http", 0.5)-span("server.handler", 0.5), 0))
	put("server.method_p50_us", "us", span(method, 0.5))
	put("server.method_p99_us", "us", span(method, 0.99))
	put("server.service_p50_us", "us", b.serviceQuantileUS(0.5))
	put("server.queue_wait_p50_us", "us", max(span(method, 0.5)-b.serviceQuantileUS(0.5), 0))
	put("server.queue_wait_p99_us", "us", max(span(method, 0.99)-b.serviceQuantileUS(0.99), 0))
	put("server.errors", "count", float64(c["server.errors"]))
	put("server.deadline_expired", "count", float64(c["server.deadline_expired"]))

	for _, op := range []string{"call", "var_read", "var_write", "warm_launch", "cold_launch", "publish", "job"} {
		put("op."+op+".p50_us", "us", a.ops[op].quantileUS(0.5))
	}

	put("isa.assemble_us", "us", span("isa.assemble", 0.5))
	put("objfile.decode_us", "us", span("objfile.decode", 0.5))
	put("lds.link_us", "us", span("lds.link", 0.5))
	put("shmfs.write_us", "us", span("shmfs.write", 0.5))
	put("shmfs.unlink_us", "us", span("shmfs.unlink", 0.5))
	put("kern.launch_us", "us", span("kern.launch", 0.5))
	var run hist
	for _, l := range []string{"kern.run", "kern.sched"} {
		if h := b.layers[l]; h != nil {
			run.merge(h)
		}
	}
	put("kern.run_us", "us", run.quantileUS(0.5))

	perOp("shmfs.creates")
	perOp("shmfs.opens")
	put("shmfs.inodes_in_use_max", "count", float64(a.inodesMax))
	put("ldl.linkcache_hit_ratio", "ratio", ratio(c["ldl.linkcache_hit"], c["ldl.linkcache_hit"]+c["ldl.linkcache_miss"]))
	for _, n := range []string{"ldl.linkcache_miss", "ldl.linkcache_invalidate", "ldl.lazy_links",
		"ldl.plt_resolves", "ldl.relocs_applied", "ldl.modules_created",
		"kern.syscalls", "kern.faults", "kern.cpu_steals", "kern.cpu_parks",
		"vm.block_build", "vm.block_invalidate", "vm.fused_ops"} {
		perOp(n)
	}
	put("kern.zygote_clone_ratio", "ratio", ratio(c["kern.zygote_clone"], c["kern.zygote_clone"]+c["kern.zygote_register"]))
	put("vm.block_hit_ratio", "ratio", ratio(c["vm.block_hit"], c["vm.block_hit"]+c["vm.block_build"]))
	put("vm.tlb_miss_ratio", "ratio", ratio(c["vm.tlb_miss"], c["vm.tlb_hit"]+c["vm.tlb_miss"]))
	put("addrspace.pages_mapped_per_launch", "count", ratio(c["addrspace.pages_mapped"], uint64(a.launches)))

	for _, l := range []string{"same_page", "own_page"} {
		v := 0.0
		if w := a.mipsWall[l]; w > 0 {
			v = float64(a.mipsSteps[l]) / w.Seconds() / 1e6
		}
		put("guest_mips."+l, "MIPS", v)
	}

	for _, bkt := range cpuBucketNames {
		put("cpu."+bkt+"_share", "ratio", cpu[bkt])
	}

	self := tr.selfUS()
	for _, l := range layerSelf {
		put("self."+strings.ReplaceAll(l, ".", "_")+"_us", "us", self[l])
	}
	put("trace.attributed_share", "ratio", tr.attributedShare())
	// Tracing overhead: how much less work per second the traced parts did.
	tput := func(w worldResult) float64 { return w.tput / w.speed }
	put("trace.overhead_share", "ratio", median(a.col(tput))/median(b.col(tput))-1)
	// The untraced parts' end-to-end figures before scaling by host speed.
	put("raw.throughput_ops_s", "1/s", median(a.col(func(w worldResult) float64 { return w.tput })))
	put("raw.latency_p50_us", "us", median(a.col(func(w worldResult) float64 { return w.p50 })))
	put("raw.latency_p99_us", "us", median(a.col(func(w worldResult) float64 { return w.p99 })))

	put("failed_ops_share", "ratio", ratio(uint64(a.failed+b.failed), uint64(a.attempted+b.attempted)))
	all := append(append([]worldResult(nil), a.worlds...), b.worlds...)
	put("host.steal_share", "ratio", median(colOf(all, func(w worldResult) float64 { return w.steal })))
	put("host.speed", "ratio", median(colOf(all, func(w worldResult) float64 { return w.speed })))
	put("churn.probe_keys", "count", float64(a.probeKeys))
	put("churn.probe_failed_share", "ratio", ratio(uint64(a.probeFailed), uint64(a.probeOps)))
	return m
}

// measure runs cfg's workload and builds the result. With trace it runs
// untraced and traced parts under a CPU profile, and writes the traced
// parts' spans to spanPath.
func measure(cfg *runConfig, trace bool, spanPath string) (*result, *stats, error) {
	if !trace {
		st, err := run(cfg)
		if err != nil {
			return nil, nil, err
		}
		if cfg.workload == "launch_churn" {
			if err := runProbe(cfg, st); err != nil {
				return nil, nil, err
			}
		}
		return &result{Correct: len(st.wrong) == 0, Attempted: st.attempted, Failed: st.failed,
			Metrics: endToEnd(st)}, st, nil
	}
	// Untraced and traced parts alternate (A B A B), so that warm-up and
	// drifts in the host's speed fall on both alike.
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, nil, err
	}
	part := *cfg
	part.dur = cfg.dur / 4
	tr := newTracer()
	a, b := newStats(), newStats()
	for i := 0; i < 4; i++ {
		part.tracer = nil
		if i%2 == 1 {
			part.tracer = tr
		}
		st, err := run(&part)
		if err != nil {
			pprof.StopCPUProfile()
			return nil, nil, err
		}
		if i%2 == 1 {
			b.merge(st)
		} else {
			a.merge(st)
		}
	}
	pprof.StopCPUProfile()
	if cfg.workload == "launch_churn" {
		if err := runProbe(cfg, a); err != nil {
			return nil, nil, err
		}
	}
	cpu, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, nil, err
	}
	if spanPath != "" {
		if err := tr.dump(spanPath); err != nil {
			return nil, nil, err
		}
	}
	a.wrong = append(a.wrong, b.wrong...)
	return &result{Correct: len(a.wrong) == 0, Attempted: a.attempted + b.attempted,
		Failed: a.failed + b.failed, Metrics: perLayer(a, b, tr, cpu)}, a, nil
}

func main() {
	name := flag.String("workload", "", "workload: serve_http, serve_inproc, launch_churn or smp_parallel")
	seed := flag.Int64("seed", 1, "seed every op stream is drawn from")
	secs := flag.Float64("seconds", 10, "measuring time")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	flag.Parse()
	if _, ok := workloads[*name]; !ok || *secs <= 0 || *trace < 0 || *trace > 1 {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0, -trace 0|1\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	cfg := &runConfig{workload: *name, seed: *seed, dur: time.Duration(*secs * float64(time.Second)),
		clients: min(runtime.NumCPU(), smpMaxWorkers)}
	spans := ""
	if *trace == 1 {
		spans = fmt.Sprintf(".bench_build/perfbench-spans/%s-seed%d.jsonl", *name, *seed)
	}
	res, st, err := measure(cfg, *trace == 1, spans)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := report(os.Stdout, cfg, res, st); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// report prints the human-readable notes, then the result line.
func report(out io.Writer, cfg *runConfig, res *result, st *stats) error {
	for _, w := range st.wrong {
		fmt.Fprintln(os.Stderr, "perfbench: WRONG OUTPUT:", w)
	}
	if st.firstErr != "" {
		fmt.Fprintf(out, "%s: %d/%d ops failed, first error: %s\n", cfg.workload, res.Failed, res.Attempted, st.firstErr)
	}
	speed := st.col(func(w worldResult) float64 { return w.speed })
	fmt.Fprintf(out, "%s: host speed %.3f (median over %d worlds; quartiles %.3f, %.3f), raw throughput %.6g/s, raw p50 %.6g us, raw p99 %.6g us, calibration parts",
		cfg.workload, median(speed), len(speed), quantile(speed, 0.25), quantile(speed, 0.75),
		median(st.col(func(w worldResult) float64 { return w.tput })), median(st.col(func(w worldResult) float64 { return w.p50 })),
		median(st.col(func(w worldResult) float64 { return w.p99 })))
	for i, p := range calibParts {
		fmt.Fprintf(out, " %s %.4g us", p.name, median(st.col(func(w worldResult) float64 { return w.parts[i] })))
	}
	fmt.Fprintln(out)
	if n := quantile(st.col(func(w worldResult) float64 { return float64(w.ops) }), 0); n < 1000 {
		fmt.Fprintf(out, "%s: a world timed only %.0f ops; its p99 has fewer than 10 samples beyond it\n", cfg.workload, n)
	}
	if st.probeOps > 0 {
		fmt.Fprintf(out, "launch_churn inode probe: %d distinct cold keys, %d/%d ops failed (%.4f), first error: %s\n",
			st.probeKeys, st.probeFailed, st.probeOps, float64(st.probeFailed)/float64(st.probeOps), st.probeErr)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(b))
	return err
}
