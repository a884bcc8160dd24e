package main

import (
	"fmt"
	"math/rand"
	"time"

	"hemlock/internal/core"
	"hemlock/internal/kern"
	"hemlock/internal/lds"
	"hemlock/internal/mem"
	"hemlock/internal/objfile"
)

// smp_parallel: Presto-style parallel jobs. Each job warm-launches one
// worker per guest CPU against one shared dynamic-public module, and a
// kern.Scheduler with that many CPUs runs them together. Each worker loops
// over its own slot, one store in eight instructions, then folds one
// atomic_add into the shared total. The slot layout of each job is drawn
// from the seed: adjacent words of one page (Presto's presto_counters
// layout, one job in four) or one page per worker. Same-page jobs run
// several times slower, so they are kept to a quarter: the median job is
// then an own-page one and the p99 a same-page one, rather than either
// sitting in the gap between the two. vm, mem and the kern scheduler dominate;
// linking is done once per world, since every launch after the first is a
// zygote clone.

const (
	smpMaxWorkers = 8
	smpMinIters   = 4_000
	smpMaxIters   = 8_000
	smpMaxSteps   = 8*smpMaxIters + 1000
	smpWorldTime  = 2500 * time.Millisecond
	smpWarmJobs   = 2
)

const smpSharedSrc = `
        .data
        .globl  par_total
par_total:
        .word   0
        .globl  par_slots
par_slots:
        .space  %d
`

// smpWorkerSrc reads its slot address and iteration count from par_args
// (private; the benchmark stores them after launch), zeroes the slot, then
// runs eight instructions per iteration, one of them the store.
const smpWorkerSrc = `
        .text
        .globl  main
        .extern par_total
main:   la      $t4, par_args
        lw      $t1, 0($t4)
        lw      $t2, 4($t4)
        sw      $zero, 0($t1)
loop:   lw      $t3, 0($t1)
        addiu   $t3, $t3, 1
        addu    $t5, $t5, $t3
        xor     $t6, $t6, $t5
        sw      $t3, 0($t1)
        addiu   $t2, $t2, -1
        sll     $t7, $t6, 1
        bnez    $t2, loop
        la      $a0, par_total
        li      $a1, 1
        li      $v0, 25         # atomic_add(&par_total, 1)
        syscall
        li      $v0, 0
        jr      $ra
        .data
        .globl  par_args
par_args:
        .word   0, 0
`

type smpWorld struct {
	sys   *core.System
	sch   *kern.Scheduler
	im    *objfile.Image
	st    *stats
	tr    *tracer
	rng   *rand.Rand
	plant bool
	n     int           // workers per job = guest CPUs
	obs   *core.Program // parked worker the checks read through
	slots *core.Var     // par_slots
	base  uint32        // first page boundary inside par_slots
	jobs  int           // jobs whose workers all added to par_total
}

func setupSMP(cfg *runConfig, st *stats, epoch int) (world, error) {
	n := cfg.clients
	if n > smpMaxWorkers {
		n = smpMaxWorkers
	}
	sys := core.NewSystem()
	if _, err := sys.Asm("/lib/par.o", fmt.Sprintf(smpSharedSrc, mem.PageSize*(smpMaxWorkers+1))); err != nil {
		return nil, err
	}
	if _, err := sys.Asm("/bin/parw.o", smpWorkerSrc); err != nil {
		return nil, err
	}
	res, err := sys.Link(&lds.Options{
		Output:      "parw",
		Modules:     []lds.Input{{Name: "parw.o", Class: objfile.StaticPrivate}, {Name: "par.o", Class: objfile.DynamicPublic}},
		LinkDir:     "/bin",
		DefaultPath: []string{"/lib"},
	})
	if err != nil {
		return nil, err
	}
	w := &smpWorld{sys: sys, im: res.Image, st: st, tr: cfg.tracer, plant: cfg.plant, n: n,
		rng: rand.New(rand.NewSource(cfg.seed*1000 + int64(epoch))),
		sch: kern.NewScheduler(sys.K, kern.SchedConfig{CPUs: n})}
	// A parked, never-run worker: it parks the zygote every job clones,
	// and it is the live mapping the slots and the total are read through.
	if w.obs, err = sys.Launch(res.Image, 0, nil); err == nil {
		w.slots, err = w.obs.Var("par_slots")
	}
	if err != nil {
		w.close()
		return nil, err
	}
	w.base = (w.slots.Addr + mem.PageSize - 1) &^ (mem.PageSize - 1)
	for i := 0; i < smpWarmJobs; i++ {
		if err := w.job(nil, i%2 == 0); err != nil {
			w.close()
			return nil, err
		}
	}
	return w, nil
}

// job runs one parallel job and checks each worker's slot.
func (w *smpWorld) job(ot *opTrace, samePage bool) error {
	ps := make([]*kern.Process, w.n)
	iters := make([]uint32, w.n)
	addrs := make([]uint32, w.n)
	for k := range ps {
		i := ot.start("kern.launch")
		pg, err := w.sys.Launch(w.im, 0, nil)
		ot.stop(i)
		if err != nil {
			return err
		}
		w.st.launches++
		ps[k] = pg.P
		iters[k] = uint32(smpMinIters + w.rng.Intn(smpMaxIters-smpMinIters))
		addrs[k] = w.base + uint32(k)*mem.PageSize
		if samePage {
			addrs[k] = w.base + uint32(k)*4
		}
		i = ot.start("core.var")
		v, err := pg.Var("par_args")
		if err == nil {
			err = v.StoreAt(0, addrs[k])
		}
		if err == nil {
			err = v.StoreAt(4, iters[k])
		}
		ot.stop(i)
		if err != nil {
			return err
		}
	}
	i := ot.start("kern.sched")
	err := w.sch.RunAll(ps, smpMaxSteps)
	ot.stop(i)
	if err != nil {
		return err
	}
	w.jobs++
	for k, p := range ps {
		if !p.Exited || p.ExitCode != 0 {
			w.st.badOutput(fmt.Sprintf("worker %d: exited=%v code=%d", k, p.Exited, p.ExitCode))
		}
		i := ot.start("core.var")
		got, err := w.slots.LoadAt(addrs[k] - w.slots.Addr)
		ot.stop(i)
		if err != nil || got != iters[k] {
			w.st.badOutput(fmt.Sprintf("worker %d slot: %d (%v), want %d iterations", k, got, err, iters[k]))
		}
	}
	return nil
}

func (w *smpWorld) measure(end time.Time) (tput, mips float64) {
	steps := w.sys.Obs().Registry().Counter("kern.cpu_steps")
	s0, t0 := steps.Value(), time.Now()
	ok := 0
	for time.Now().Before(end) {
		same := w.rng.Intn(4) == 0
		layout := "own_page"
		if same {
			layout = "same_page"
		}
		ot := w.tr.begin("job")
		start := time.Now()
		c0 := steps.Value()
		err := w.job(ot, same)
		d := time.Since(start)
		ot.end()
		w.st.op("job", d, err)
		if err == nil {
			ok++
			w.st.mipsSteps[layout] += steps.Value() - c0
			w.st.mipsWall[layout] += d
		}
	}
	wall := time.Since(t0).Seconds()
	return float64(ok) / wall, float64(steps.Value()-s0) / wall / 1e6
}

// verify checks the shared total: one atomic_add per worker per job.
func (w *smpWorld) verify() {
	v, err := w.obs.Var("par_total")
	if err == nil && w.plant { // a write behind the benchmark's back must be caught
		err = v.Store(uint32(w.n*w.jobs) + 1)
	}
	var got uint32
	if err == nil {
		got, err = v.Load()
	}
	if err != nil || int(got) != w.n*w.jobs {
		w.st.badOutput(fmt.Sprintf("par_total = %d (%v), want %d workers x %d jobs", got, err, w.n, w.jobs))
	}
}

func (w *smpWorld) close() {
	w.sch.Stop()
	w.st.absorb(w.sys.Obs().Registry().Snapshot())
}
