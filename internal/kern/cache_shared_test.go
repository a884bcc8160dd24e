package kern

// Cross-process cache coherence: stores into a shared page by one process
// must be visible to a sibling CPU's instruction cache on its very next
// fetch. This is the ldl scenario — one domain patches shared text that
// another domain is executing.

import (
	"testing"

	"hemlock/internal/addrspace"
	"hemlock/internal/isa"
	"hemlock/internal/layout"
	"hemlock/internal/mem"
	"hemlock/internal/shmfs"
	"hemlock/internal/vm"
)

func TestSharedPageStoreVisibleToSiblingCPU(t *testing.T) {
	k := New()
	writer := k.Spawn(0)
	runner := k.Spawn(0)

	// Shared RWX page mapped at the same address in both spaces — segment
	// discipline per the paper.
	const shared = layout.SharedBase
	if err := writer.AS.MapAnon(shared, mem.PageSize, addrspace.ProtRWX); err != nil {
		t.Fatal(err)
	}
	writer.AS.ShareRange(runner.AS, shared, shared+mem.PageSize)

	// Runner spins on the shared page, predecoding it into its icache.
	const escape = shared + 0x80
	loop := []uint32{
		isa.EncodeI(isa.OpADDIU, 10, 10, 1), // victim: addiu t2, t2, 1
		isa.EncodeJ(isa.OpJ, shared),        // j victim
	}
	for i, w := range loop {
		if err := writer.AS.StoreWord(shared+uint32(4*i), w); err != nil {
			t.Fatal(err)
		}
	}
	if err := writer.AS.StoreWord(escape, isa.EncodeI(isa.OpHALT, 0, 0, 0)); err != nil {
		t.Fatal(err)
	}
	runner.CPU.PC = shared
	for i := 0; i < 6; i++ {
		if ev, err := runner.CPU.Step(); err != nil || ev != vm.EventStep {
			t.Fatalf("runner warmup step %d: ev=%v err=%v", i, ev, err)
		}
	}

	// Writer executes its own private text: one store that patches the
	// runner's victim instruction in the shared page.
	const wtext = 0x00001000
	if err := writer.AS.MapAnon(wtext, mem.PageSize, addrspace.ProtRWX); err != nil {
		t.Fatal(err)
	}
	if err := writer.AS.StoreWord(wtext, isa.EncodeI(isa.OpSW, 8, 9, 0)); err != nil {
		t.Fatal(err)
	}
	writer.CPU.PC = wtext
	writer.CPU.Regs[8] = isa.EncodeJ(isa.OpJ, escape)
	writer.CPU.Regs[9] = shared
	if ev, err := writer.CPU.Step(); err != nil || ev != vm.EventStep {
		t.Fatalf("writer store: ev=%v err=%v", ev, err)
	}

	// The runner's very next fetch of the victim must see the patch. Its
	// PC is mid-loop; step until it re-reaches the victim, then one more.
	for runner.CPU.PC != shared {
		if ev, err := runner.CPU.Step(); err != nil || ev != vm.EventStep {
			t.Fatalf("runner drain: ev=%v err=%v", ev, err)
		}
	}
	before := runner.CPU.Regs[10]
	if ev, err := runner.CPU.Step(); err != nil || ev != vm.EventStep {
		t.Fatalf("runner post-patch step: ev=%v err=%v", ev, err)
	}
	if runner.CPU.PC != escape {
		t.Fatalf("sibling executed stale predecode: pc = 0x%08x, want 0x%08x", runner.CPU.PC, escape)
	}
	if runner.CPU.Regs[10] != before {
		t.Fatal("victim addiu retired after the patch landed")
	}
	if st := runner.CPU.CacheStats(); st.ICInvals == 0 {
		t.Fatal("sibling icache invalidation not recorded")
	}
}

// TestSharedPageStoreInvalidatesSiblingBlocks is the batched-execution
// variant: the runner's loop is hot in translated, chained blocks when a
// sibling process stores into the shared text frame. The frame-version
// check on the runner's next block entry must force a rebuild, so the
// patched word executes on the very next transfer into it.
func TestSharedPageStoreInvalidatesSiblingBlocks(t *testing.T) {
	k := New()
	writer := k.Spawn(0)
	runner := k.Spawn(0)

	const shared = layout.SharedBase
	if err := writer.AS.MapAnon(shared, mem.PageSize, addrspace.ProtRWX); err != nil {
		t.Fatal(err)
	}
	writer.AS.ShareRange(runner.AS, shared, shared+mem.PageSize)

	// Victim loop off the page base so the rebuild registers as a stale
	// same-address replacement in the direct-mapped block cache.
	const victim = shared + 0x100
	const escape = shared + 0x200
	loop := []uint32{
		isa.EncodeI(isa.OpADDIU, 10, 10, 1), // victim: addiu t2, t2, 1
		isa.EncodeJ(isa.OpJ, victim),        // j victim
	}
	for i, w := range loop {
		if err := writer.AS.StoreWord(victim+uint32(4*i), w); err != nil {
			t.Fatal(err)
		}
	}
	if err := writer.AS.StoreWord(escape, isa.EncodeI(isa.OpHALT, 0, 0, 0)); err != nil {
		t.Fatal(err)
	}
	runner.CPU.PC = victim
	if ev, err := runner.CPU.RunBatch(20); err != nil || ev != vm.EventStep {
		t.Fatalf("runner warmup: ev=%v err=%v", ev, err)
	}
	if runner.CPU.CacheStats().BlockHits == 0 {
		t.Fatal("runner loop never got hot in the block cache")
	}

	// The writer's store goes through its own CPU, in its own space, into
	// the shared frame.
	const wtext = 0x00001000
	if err := writer.AS.MapAnon(wtext, mem.PageSize, addrspace.ProtRWX); err != nil {
		t.Fatal(err)
	}
	if err := writer.AS.StoreWord(wtext, isa.EncodeI(isa.OpSW, 8, 9, 0)); err != nil {
		t.Fatal(err)
	}
	writer.CPU.PC = wtext
	writer.CPU.Regs[8] = isa.EncodeJ(isa.OpJ, escape)
	writer.CPU.Regs[9] = victim
	if ev, err := writer.CPU.RunBatch(1); err != nil || ev != vm.EventStep {
		t.Fatalf("writer store: ev=%v err=%v", ev, err)
	}

	before := runner.CPU.Regs[10]
	ev, err := runner.CPU.RunBatch(1000)
	if err != nil || ev != vm.EventHalt {
		t.Fatalf("runner post-patch: ev=%v err=%v pc=0x%08x, want halt", ev, err, runner.CPU.PC)
	}
	if runner.CPU.PC != escape {
		t.Fatalf("sibling executed stale blocks: pc = 0x%08x, want 0x%08x", runner.CPU.PC, escape)
	}
	// The runner's PC sat mid-loop when the batch ended, so at most the
	// tail of one iteration retires before the patched victim is refetched.
	if runner.CPU.Regs[10] > before+1 {
		t.Fatalf("victim retired %d more times after the patch", runner.CPU.Regs[10]-before)
	}
	if st := runner.CPU.CacheStats(); st.BlockInvals == 0 {
		t.Fatal("sibling block invalidation not recorded")
	}
}

// TestConcurrentSMCPatchObservedBySibling is the true-SMP variant of the
// tests above: the writer and the runner execute at the same time on two
// scheduler CPUs. The runner spins hot in chained blocks over a shared
// text page; the writer's store instruction patches the loop into a jump
// to a HALT. If the cross-CPU invalidation protocol (store, then bump if
// observed: an atomic word store followed by a store-version bump on a
// frame whose version was read) ever let the runner keep executing its
// stale translation, it would spin its entire budget and fail the run.
func TestConcurrentSMCPatchObservedBySibling(t *testing.T) {
	k := New()
	writer := k.Spawn(0)
	runner := k.Spawn(0)

	const shared = layout.SharedBase
	if err := writer.AS.MapAnon(shared, mem.PageSize, addrspace.ProtRWX); err != nil {
		t.Fatal(err)
	}
	writer.AS.ShareRange(runner.AS, shared, shared+mem.PageSize)

	const victim = shared + 0x100
	const escape = shared + 0x200
	loop := []uint32{
		isa.EncodeI(isa.OpADDIU, 10, 10, 1), // victim: addiu t2, t2, 1
		isa.EncodeJ(isa.OpJ, victim),        // j victim
	}
	for i, w := range loop {
		if err := writer.AS.StoreWord(victim+uint32(4*i), w); err != nil {
			t.Fatal(err)
		}
	}
	if err := writer.AS.StoreWord(escape, isa.EncodeI(isa.OpHALT, 0, 0, 0)); err != nil {
		t.Fatal(err)
	}
	runner.CPU.PC = victim
	// Warm the runner's translations single-threaded so the concurrent
	// phase starts with the stale-block hazard in place.
	if ev, err := runner.CPU.RunBatch(20); err != nil || ev != vm.EventStep {
		t.Fatalf("runner warmup: ev=%v err=%v", ev, err)
	}

	// Writer program: one store that patches the victim word, then HALT.
	const wtext = 0x00001000
	if err := writer.AS.MapAnon(wtext, mem.PageSize, addrspace.ProtRWX); err != nil {
		t.Fatal(err)
	}
	if err := writer.AS.StoreWord(wtext, isa.EncodeI(isa.OpSW, 8, 9, 0)); err != nil {
		t.Fatal(err)
	}
	if err := writer.AS.StoreWord(wtext+4, isa.EncodeI(isa.OpHALT, 0, 0, 0)); err != nil {
		t.Fatal(err)
	}
	writer.CPU.PC = wtext
	writer.CPU.Regs[8] = isa.EncodeJ(isa.OpJ, escape)
	writer.CPU.Regs[9] = victim

	s := NewScheduler(k, SchedConfig{CPUs: 2, Quantum: 500})
	defer s.Stop()
	// 50M steps is ~forever for a 3-instruction loop: the runner only
	// survives the budget by observing the patch.
	if err := s.RunAll([]*Process{runner, writer}, 50_000_000); err != nil {
		t.Fatal(err)
	}
	if !runner.Exited || runner.ExitCode != 0 {
		t.Fatalf("runner exited=%v code=%d", runner.Exited, runner.ExitCode)
	}
}

// TestConcurrentFilePatchObservedBySibling patches through the shared file
// system — the exact mechanism ldl's filePatcher uses for PLT slots and
// text words in public modules — while a scheduled guest CPU is executing
// out of the very frames being patched. FS.StoreWordAt's host-atomic frame
// store must be seen by the running CPU on its next block entry.
func TestConcurrentFilePatchObservedBySibling(t *testing.T) {
	k := New()
	if _, err := k.FS.Create("/pltmod", shmfs.DefaultFileMode, 0); err != nil {
		t.Fatal(err)
	}
	runner := k.Spawn(0)
	st, err := k.MapSharedFile(runner, "/pltmod", mem.PageSize, addrspace.ProtRWX)
	if err != nil {
		t.Fatal(err)
	}
	victim := st.Addr + 0x40
	escape := st.Addr + 0x80
	words := map[uint32]uint32{
		victim:     isa.EncodeI(isa.OpADDIU, 10, 10, 1),
		victim + 4: isa.EncodeJ(isa.OpJ, victim),
		escape:     isa.EncodeI(isa.OpHALT, 0, 0, 0),
	}
	for addr, w := range words {
		if err := k.FS.StoreWordAt("/pltmod", addr-st.Addr, w, 0); err != nil {
			t.Fatal(err)
		}
	}
	runner.CPU.PC = victim

	s := NewScheduler(k, SchedConfig{CPUs: 2, Quantum: 500})
	defer s.Stop()
	task := s.Submit(runner, 50_000_000)
	// Concurrent with the running CPU: patch the loop's jump into a jump
	// to the HALT, the way a sibling CPU's linker patches a PLT slot.
	if err := k.FS.StoreWordAt("/pltmod", victim+4-st.Addr, isa.EncodeJ(isa.OpJ, escape), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := task.Wait(); err != nil {
		t.Fatal(err)
	}
	if !runner.Exited || runner.ExitCode != 0 {
		t.Fatalf("runner exited=%v code=%d", runner.Exited, runner.ExitCode)
	}
}
