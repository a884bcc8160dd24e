package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"hemlock/internal/core"
	"hemlock/internal/isa"
	"hemlock/internal/lds"
	"hemlock/internal/objfile"
	"hemlock/internal/shmfs"
)

// launch_churn: one goroutine launching programs on a core.System, with
// three kinds of op.
//
//   - warm_launch (75%): one of four hot images, one per Table 1 sharing
//     class, served by a zygote clone or a link-cache hit.
//   - cold_launch (18%): a hot image with a fresh env value, so the link
//     cache misses: a cold ldl link, a cache write and a zygote register
//     (evicting the oldest template).
//   - publish (7%): isa.Assemble plus AddTemplate for a new dynamic-public
//     module and its main, an lds link and the first launch. Published
//     modules beyond pubKeep are retired with Unlink, oldest first.
//
// Every launch loads its executable from the shared file system and runs
// main to completion. It loads isa, objfile, lds, ldl, shmfs and the
// zygote registry, and hardly uses vm.
//
// Each cold launch leaves one link-cache entry (an inode) behind, and
// nothing evicts them. A world therefore runs churnOps ops, whose ~750
// cache entries and publishes stay inside the 1024-inode table, and the
// next world is booted fresh. After the measured worlds, each run boots
// one more world for the defect probe: the same op stream without the
// budget, until more distinct cold keys than the inode table has been
// issued. Its failures (publishes: "shmfs: out of inodes") are reported as
// churn.probe_failed_share and its first error, not as failed ops of the
// run.

const (
	churnOps      = 3000
	churnMaxSteps = 100_000
	pubKeep       = 16
	probeKeys     = 1100 // > shmfs.NumInodes
	warmPct       = 75
	coldPct       = 18
)

var classes = []struct {
	tag   string
	class objfile.Class
}{
	{"sp", objfile.StaticPrivate},
	{"dp", objfile.DynamicPrivate},
	{"spub", objfile.StaticPublic},
	{"dpub", objfile.DynamicPublic},
}

// hotModSrc is a module with a counter and the function that bumps it
// and returns the new count.
func hotModSrc(tag string) string {
	return fmt.Sprintf(`
        .text
        .globl  %[1]s_bump
%[1]s_bump:
        la      $t2, %[1]s_hits
        lw      $t3, 0($t2)
        addiu   $t3, $t3, 1
        sw      $t3, 0($t2)
        move    $v0, $t3
        jr      $ra
        .data
        .globl  %[1]s_hits
%[1]s_hits:
        .word   0
`, tag)
}

// hotMainSrc calls the module's bump function through its jump-table
// stub. A public module's main exits 0. A private module's main exits with
// the count minus one, which is 0 exactly when the process got its own
// fresh copy of the module: exited processes release their memory, so the
// exit code is where the private counter is checked.
func hotMainSrc(tag string, public bool) string {
	ret := "addiu   $v0, $v0, -1"
	if public {
		ret = "li      $v0, 0"
	}
	return fmt.Sprintf(`
        .text
        .globl  main
        .extern %[1]s_bump
main:   move    $s1, $ra
        jal     %[1]s_bump
        move    $ra, $s1
        %[2]s
        jr      $ra
`, tag, ret)
}

type hotImage struct {
	tag      string
	public   bool
	exe      string
	launches int  // launches that ran main (so bumped the counter)
	unknown  bool // a run failed part-way: the counter is not known
	obs      *core.Program
}

// pubModule is a live published module and the parked process the
// benchmark reads its counter through.
type pubModule struct {
	n   int
	obs *core.Program
}

type churnWorld struct {
	sys   *core.System
	st    *stats
	tr    *tracer
	rng   *rand.Rand
	probe bool // the defect probe: no op budget, failures counted apart
	plant bool
	cold  int
	pubN  int
	hot   []*hotImage
	pubs  []pubModule
}

func setupChurn(cfg *runConfig, st *stats, epoch int) (world, error) {
	return newChurnWorld(cfg, st, epoch, false)
}

func newChurnWorld(cfg *runConfig, st *stats, epoch int, probe bool) (*churnWorld, error) {
	w := &churnWorld{sys: core.NewSystem(), st: st, tr: cfg.tracer, probe: probe,
		plant: cfg.plant && !probe, rng: rand.New(rand.NewSource(cfg.seed*1000 + int64(epoch)))}
	if err := w.install(); err != nil {
		return nil, err
	}
	return w, nil
}

// install assembles and links the hot images and launches each twice.
// An image's first launch parks its zygote; later ones clone it.
func (w *churnWorld) install() error {
	if err := w.sys.FS.MkdirAll("/pub", shmfs.DefaultDirMode, 0); err != nil {
		return err
	}
	for _, c := range classes {
		if _, err := w.sys.Asm("/lib/"+c.tag+".o", hotModSrc(c.tag)); err != nil {
			return err
		}
		public := c.class == objfile.StaticPublic || c.class == objfile.DynamicPublic
		if _, err := w.sys.Asm("/bin/"+c.tag+"main.o", hotMainSrc(c.tag, public)); err != nil {
			return err
		}
		res, err := w.sys.Link(&lds.Options{
			Output:      c.tag,
			Modules:     []lds.Input{{Name: c.tag + "main.o", Class: objfile.StaticPrivate}, {Name: c.tag + ".o", Class: c.class}},
			LinkDir:     "/bin",
			DefaultPath: []string{"/lib"},
			JumpTables:  true,
		})
		if err != nil {
			return err
		}
		h := &hotImage{tag: c.tag, public: public, exe: "/bin/" + c.tag}
		if err := w.sys.SaveExecutable(h.exe, res.Image); err != nil {
			return err
		}
		w.hot = append(w.hot, h)
		if public {
			// Parked, never run: the live mapping the counter is read through.
			if h.obs, err = w.sys.Launch(res.Image, 0, nil); err != nil {
				return err
			}
		}
		for i := 0; i < 2; i++ {
			if err := w.launch(nil, h, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// launch loads h's executable, launches it, runs main and checks the exit
// code.
func (w *churnWorld) launch(ot *opTrace, h *hotImage, env map[string]string) error {
	i := ot.start("objfile.decode")
	im, err := w.sys.LoadExecutable(h.exe)
	ot.stop(i)
	if err != nil {
		return err
	}
	i = ot.start("kern.launch")
	pg, err := w.sys.Launch(im, 0, env)
	ot.stop(i)
	if err != nil {
		return err
	}
	if !w.probe {
		w.st.launches++
	}
	i = ot.start("kern.run")
	err = pg.Run(churnMaxSteps)
	ot.stop(i)
	if err != nil {
		h.unknown = true
		return err
	}
	h.launches++
	w.checkExit(pg, h.exe)
	return nil
}

func (w *churnWorld) checkExit(pg *core.Program, what string) {
	if !pg.P.Exited || pg.P.ExitCode != 0 {
		w.st.badOutput(fmt.Sprintf("%s: exited=%v code=%d", what, pg.P.Exited, pg.P.ExitCode))
	}
}

// checkCounter reads a module counter through pg and compares it.
func (w *churnWorld) checkCounter(ot *opTrace, pg *core.Program, name string, want int) {
	i := ot.start("core.var")
	v, err := pg.Var(name)
	var got uint32
	if err == nil {
		got, err = v.Load()
	}
	ot.stop(i)
	if err != nil || int(got) != want {
		w.st.badOutput(fmt.Sprintf("%s = %d (%v), want %d", name, got, err, want))
	}
}

// publish creates, links and first-launches a new dynamic-public module,
// then retires the oldest beyond pubKeep.
func (w *churnWorld) publish(ot *opTrace) error {
	w.pubN++
	n := w.pubN
	tag := "pub" + strconv.Itoa(n)
	for _, f := range []struct{ dir, name, src string }{
		{"/pub/", tag + ".o", hotModSrc(tag)},
		{"/bin/", tag + "main.o", hotMainSrc(tag, true)},
	} {
		i := ot.start("isa.assemble")
		obj, err := isa.Assemble(f.name, f.src)
		ot.stop(i)
		if err != nil {
			return err
		}
		i = ot.start("shmfs.write")
		err = w.sys.AddTemplate(f.dir+f.name, obj)
		ot.stop(i)
		if err != nil {
			return err
		}
	}
	i := ot.start("lds.link")
	res, err := w.sys.Link(&lds.Options{
		Output:      tag,
		Modules:     []lds.Input{{Name: tag + "main.o", Class: objfile.StaticPrivate}, {Name: tag + ".o", Class: objfile.DynamicPublic}},
		LinkDir:     "/bin",
		DefaultPath: []string{"/pub"},
		JumpTables:  true,
	})
	ot.stop(i)
	if err != nil {
		return err
	}
	i = ot.start("kern.launch")
	pg, err := w.sys.Launch(res.Image, 0, nil)
	ot.stop(i)
	if err != nil {
		return err
	}
	if !w.probe {
		w.st.launches++
	}
	i = ot.start("kern.run")
	err = pg.Run(churnMaxSteps)
	ot.stop(i)
	if err != nil {
		return err
	}
	w.checkExit(pg, tag)
	i = ot.start("kern.launch")
	obs, err := w.sys.Launch(res.Image, 0, nil)
	ot.stop(i)
	if err != nil {
		return err
	}
	w.pubs = append(w.pubs, pubModule{n: n, obs: obs})
	if len(w.pubs) <= pubKeep {
		return nil
	}
	old := w.pubs[0]
	w.pubs = w.pubs[1:]
	otag := "pub" + strconv.Itoa(old.n)
	w.checkCounter(ot, old.obs, otag+"_hits", 1)
	old.obs.P.Exit(0)
	for _, p := range []string{"/pub/" + otag + ".o", lds.InstancePath("/pub/" + otag + ".o"), "/bin/" + otag + "main.o"} {
		i := ot.start("shmfs.unlink")
		err := w.sys.FS.Unlink(p, 0)
		ot.stop(i)
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *churnWorld) measure(end time.Time) (tput, mips float64) {
	steps := w.sys.Obs().Registry().Counter("kern.steps")
	s0, t0 := steps.Value(), time.Now()
	ops := 0
	for ; w.probe && w.cold < probeKeys || !w.probe && ops < churnOps && time.Now().Before(end); ops++ {
		r := w.rng.Intn(100)
		h := w.hot[w.rng.Intn(len(w.hot))]
		kind := "warm_launch"
		switch {
		case r >= warmPct+coldPct:
			kind = "publish"
		case r >= warmPct:
			kind = "cold_launch"
		}
		ot := w.tr.begin(kind)
		start := time.Now()
		var err error
		switch kind {
		case "warm_launch":
			err = w.launch(ot, h, nil)
		case "cold_launch":
			w.cold++
			err = w.launch(ot, h, map[string]string{"REQ": strconv.Itoa(w.cold)})
		case "publish":
			err = w.publish(ot)
		}
		d := time.Since(start)
		ot.end()
		if !w.probe {
			w.st.op(kind, d, err)
			continue
		}
		w.st.probeOps++
		if err != nil {
			w.st.probeFailed++
			if w.st.probeErr == "" {
				w.st.probeErr = kind + ": " + err.Error()
			}
		}
	}
	if w.probe {
		w.st.probeKeys += w.cold
		return 0, 0
	}
	wall := time.Since(t0).Seconds()
	return float64(ops) / wall, float64(steps.Value()-s0) / wall / 1e6
}

// verify checks every public counter against the launches that touched
// it.
func (w *churnWorld) verify() {
	if w.plant { // a write behind the benchmark's back must be caught
		h := w.hot[len(w.hot)-1]
		v, err := h.obs.Var(h.tag + "_hits")
		if err == nil {
			err = v.Store(uint32(h.launches) + 1)
		}
		if err != nil {
			w.st.badOutput("planting a wrong value: " + err.Error())
		}
	}
	for _, h := range w.hot {
		if h.public && !h.unknown {
			w.checkCounter(nil, h.obs, h.tag+"_hits", h.launches)
		}
	}
	for _, p := range w.pubs {
		w.checkCounter(nil, p.obs, "pub"+strconv.Itoa(p.n)+"_hits", 1)
	}
	if u := w.sys.FS.Usage().InodesInUse; u > w.st.inodesMax && !w.probe {
		w.st.inodesMax = u
	}
}

func (w *churnWorld) close() {
	if !w.probe {
		w.st.absorb(w.sys.Obs().Registry().Snapshot())
	}
}

// runProbe boots one more world and drives the unbudgeted op stream past
// the inode table.
func runProbe(cfg *runConfig, st *stats) error {
	w, err := newChurnWorld(cfg, st, -1, true)
	if err != nil {
		return err
	}
	w.measure(time.Time{})
	w.verify()
	w.close()
	return nil
}
