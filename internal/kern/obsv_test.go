package kern

import (
	"fmt"
	"reflect"
	"testing"

	"hemlock/internal/addrspace"
	"hemlock/internal/isa"
	"hemlock/internal/mem"
	"hemlock/internal/obsv"
	"hemlock/internal/vm"
)

// TestSyscallPathNoAllocsWhenDisabled is the hot-path guarantee: with no
// trace sinks attached, dispatching a syscall allocates nothing — tracing
// costs one atomic load, counters are bare atomics.
func TestSyscallPathNoAllocsWhenDisabled(t *testing.T) {
	k := New()
	p := k.Spawn(0)
	im := buildImage(t, `
        .text
        halt
`)
	if err := p.Exec(im); err != nil {
		t.Fatal(err)
	}
	if k.Obs.T.Enabled() {
		t.Fatal("tracer enabled by default")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		p.CPU.Regs[isa.RegV0] = SysGetPID
		if err := k.Syscall(p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("syscall path allocates %.1f objects/op with tracing disabled, want 0", allocs)
	}
}

// TestKernelCountersTrackActivity runs a small program and checks the
// registry against ground truth the kernel also exposes directly.
func TestKernelCountersTrackActivity(t *testing.T) {
	k := New()
	p := k.Spawn(0)
	im := buildImage(t, `
        .text
        li      $v0, 3          # getpid
        syscall
        li      $v0, 3
        syscall
        li      $v0, 1          # exit
        li      $a0, 0
        syscall
`)
	if err := p.Exec(im); err != nil {
		t.Fatal(err)
	}
	steps, err := k.Run(p, 1000)
	if err != nil {
		t.Fatal(err)
	}
	s := k.Obs.R.Snapshot()
	if got := s.Counters["kern.syscalls"]; got != 3 {
		t.Fatalf("kern.syscalls = %d, want 3", got)
	}
	if got := s.Counters["kern.steps"]; got != steps {
		t.Fatalf("kern.steps = %d, want %d", got, steps)
	}
	if got := s.Counters["kern.exits"]; got != 1 {
		t.Fatalf("kern.exits = %d, want 1", got)
	}
	if got := s.Counters["vm.traps"]; got != p.CPU.Traps {
		t.Fatalf("vm.traps = %d, want CPU's count %d", got, p.CPU.Traps)
	}
	h, ok := s.Histograms["kern.run_steps"]
	if !ok || h.Count != 1 || h.Sum != steps {
		t.Fatalf("kern.run_steps histogram = %+v, want count=1 sum=%d", h, steps)
	}
}

// TestMemGaugesMatchPoolStats asserts the registry's mem gauges and the
// pool's own Stats() can never disagree: the gauges are callbacks sampled
// from the pool at snapshot time.
func TestMemGaugesMatchPoolStats(t *testing.T) {
	k := New()
	p := k.Spawn(0)
	im := buildImage(t, `
        .text
        li      $v0, 8          # sbrk
        li      $a0, 65536
        syscall
        halt
`)
	if err := p.Exec(im); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(p, 1000); err != nil {
		t.Fatal(err)
	}
	check := func() {
		st := k.Phys.Stats()
		s := k.Obs.R.Snapshot()
		if s.Gauges["mem.frames_live"] != int64(st.Live) {
			t.Fatalf("mem.frames_live = %d, pool says %d", s.Gauges["mem.frames_live"], st.Live)
		}
		if s.Gauges["mem.frame_allocs"] != int64(st.Allocs) {
			t.Fatalf("mem.frame_allocs = %d, pool says %d", s.Gauges["mem.frame_allocs"], st.Allocs)
		}
		if s.Gauges["mem.frame_frees"] != int64(st.Frees) {
			t.Fatalf("mem.frame_frees = %d, pool says %d", s.Gauges["mem.frame_frees"], st.Frees)
		}
		if s.Gauges["mem.frames_limit"] != int64(st.Limit) {
			t.Fatalf("mem.frames_limit = %d, pool says %d", s.Gauges["mem.frames_limit"], st.Limit)
		}
	}
	check()
	p.Exit(0) // release everything and check the gauges follow
	check()
}

// TestTraceCoversSubsystems runs a faulting-free program with a ring sink
// attached and checks events arrive from more than one subsystem.
func TestTraceCoversSubsystems(t *testing.T) {
	k := New()
	ring := obsv.NewRing(256)
	k.Obs.T.Attach(ring)
	p := k.Spawn(0)
	im := buildImage(t, `
        .text
        li      $v0, 3
        syscall
        halt
`)
	if err := p.Exec(im); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(p, 1000); err != nil {
		t.Fatal(err)
	}
	subsys := map[string]bool{}
	names := map[string]bool{}
	for _, e := range ring.Events() {
		subsys[e.Subsys] = true
		names[e.Name] = true
	}
	for _, want := range []string{"kern", "addrspace"} {
		if !subsys[want] {
			t.Fatalf("no %s events in trace; got subsystems %v", want, subsys)
		}
	}
	for _, want := range []string{"spawn", "getpid", "run", "map_anon", "exit"} {
		if !names[want] {
			t.Fatalf("no %q event in trace; got %v", want, names)
		}
	}
}

// faultAt is one fault the handler saw, with the syscalls made and steps
// retired before it.
type faultAt struct {
	addr            uint32
	syscalls, steps uint64
}

// tracedRun is what one run of the tracing-parity program leaves behind.
type tracedRun struct {
	steps    uint64
	hash     uint64 // vm.StateHash at the final break
	faults   []faultAt
	syscalls uint64
	builds   uint64
	ring     *obsv.Ring
}

// runTracingParity runs a program that makes syscalls, faults on two
// pages the Hemlock handler maps on demand, and spins a hot loop in
// between, with or without a ring sink on the tracer. The fault handler
// logs each fault with the syscall count and retired steps at the time,
// which pins the order of faults and syscalls on the untraced run too.
func runTracingParity(t *testing.T, traced bool) tracedRun {
	t.Helper()
	k := New()
	var r tracedRun
	if traced {
		r.ring = obsv.NewRing(1024)
		k.Obs.T.Attach(r.ring)
	}
	p := k.Spawn(0)
	p.Handler = func(pr *Process, f *addrspace.Fault) error {
		if f.Addr < 0x30000000 || f.Addr >= 0x30002000 {
			return ErrUnhandled
		}
		r.faults = append(r.faults, faultAt{f.Addr, k.ctrSyscalls.Value(), pr.CPU.Steps})
		return pr.AS.MapAnon(addrspace.PageBase(f.Addr), mem.PageSize, addrspace.ProtRW)
	}
	p.BreakHandler = func(pr *Process) error {
		r.hash = vm.StateHash(pr.CPU)
		return nil
	}
	im := buildImage(t, `
        .text
        li      $v0, 3          # getpid
        syscall
        li      $t0, 0x30000000
        li      $t3, 40
loop:   lw      $t1, 0($t0)     # faults once: the handler maps the page
        addiu   $t1, $t1, 3
        sw      $t1, 0($t0)
        addiu   $t3, $t3, -1
        bne     $t3, $zero, loop
        li      $v0, 3
        syscall
        li      $t2, 0x30001000
        sw      $t1, 4($t2)     # second fault
        break
        li      $v0, 1          # exit
        li      $a0, 0
        syscall
`)
	if err := p.Exec(im); err != nil {
		t.Fatal(err)
	}
	steps, err := k.Run(p, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	r.steps = steps
	r.syscalls = k.ctrSyscalls.Value()
	r.builds = k.Obs.R.Snapshot().Counters["vm.block_build"]
	return r
}

// TestTracedRunUsesBlockEngine: attaching a trace sink must not move guest
// code to a different executor. The traced run builds blocks, and it
// retires the same steps, reaches the same state and sees faults and
// syscalls in the same order as the untraced run.
func TestTracedRunUsesBlockEngine(t *testing.T) {
	plain := runTracingParity(t, false)
	traced := runTracingParity(t, true)
	if traced.builds == 0 {
		t.Fatal("traced run built no blocks: tracing switched executors")
	}
	if traced.steps != plain.steps {
		t.Fatalf("steps: traced %d, untraced %d", traced.steps, plain.steps)
	}
	if plain.hash == 0 || traced.hash != plain.hash {
		t.Fatalf("state hash at break: traced %#x, untraced %#x", traced.hash, plain.hash)
	}
	if len(plain.faults) != 2 || !reflect.DeepEqual(traced.faults, plain.faults) {
		t.Fatalf("faults:\n traced   %+v\n untraced %+v", traced.faults, plain.faults)
	}
	if traced.syscalls != plain.syscalls {
		t.Fatalf("syscalls: traced %d, untraced %d", traced.syscalls, plain.syscalls)
	}
	// The untraced order, rebuilt from the handler log: each fault lands
	// after the syscalls counted when it was taken.
	var want []string
	var sys uint64
	for _, f := range plain.faults {
		for ; sys < f.syscalls; sys++ {
			want = append(want, "syscall")
		}
		want = append(want, fmt.Sprintf("fault %#x", f.addr))
	}
	for ; sys < plain.syscalls; sys++ {
		want = append(want, "syscall")
	}
	var got []string
	for _, e := range traced.ring.Events() {
		if e.Subsys != "kern" || e.Phase != obsv.PhaseInstant {
			continue
		}
		switch {
		case e.Name == "fault":
			got = append(got, fmt.Sprintf("fault %#x", e.Addr))
		case e.Name == "getpid" && e.Val == SysGetPID, e.Name == "exit" && e.Val == SysExit:
			got = append(got, "syscall") // not the exit(0) process event
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("traced fault/syscall order %q, untraced %q", got, want)
	}
}
