package vm_test

// Tests for the basic-block translation engine: chaining, the invalidation
// edges (SMC into an already-chained successor, host patches landing
// mid-batch, snapshots), budget exactness around fused macro-ops, and the
// engine toggle. The per-instruction path's cache tests live in
// cache_test.go; the differential harness holds the two paths bit-identical
// over generated programs.

import (
	"testing"

	"hemlock/internal/addrspace"
	"hemlock/internal/isa"
	"hemlock/internal/mem"
	"hemlock/internal/vm"
)

// mapRWX maps one RWX page at base in a fresh space.
func mapPages(t *testing.T, prots map[uint32]addrspace.Prot) *addrspace.Space {
	t.Helper()
	as := addrspace.New(mem.NewPhysical(0))
	for base, prot := range prots {
		if err := as.MapAnon(base, mem.PageSize, prot); err != nil {
			t.Fatal(err)
		}
	}
	return as
}

// TestBlockChainLoopCountsHits: a countdown loop runs hot through chained
// blocks — a handful of builds, hits for every subsequent iteration.
func TestBlockChainLoopCountsHits(t *testing.T) {
	as := newSpace(t)
	putCode(t, as, benchTextBase, []uint32{
		isa.EncodeI(isa.OpADDIU, 9, 9, 0xFFFF), // addiu t1, t1, -1
		isa.EncodeI(isa.OpBNE, 0, 9, 0xFFFE),   // bne t1, zero, -2
		isa.EncodeI(isa.OpHALT, 0, 0, 0),
	})
	c := vm.New(as)
	c.PC = benchTextBase
	c.Regs[9] = 50
	ev, err := c.RunBatch(1000)
	if err != nil || ev != vm.EventHalt {
		t.Fatalf("ev=%v err=%v, want halt", ev, err)
	}
	if c.Steps != 50*2+1 {
		t.Fatalf("steps = %d, want 101", c.Steps)
	}
	if c.PC != benchTextBase+8 {
		t.Fatalf("pc = 0x%08x, want the halt", c.PC)
	}
	st := c.CacheStats()
	if st.BlockBuilds == 0 || st.BlockBuilds > 4 {
		t.Fatalf("block builds = %d, want a handful", st.BlockBuilds)
	}
	if st.BlockHits < 40 {
		t.Fatalf("block hits = %d, want ~one per loop iteration", st.BlockHits)
	}
}

// TestBlockSMCIntoChainedSuccessor is the chaining invalidation edge: block
// A has already chained to block B on another page when a store patches an
// instruction inside B. Following the warm A→B chain pointer must notice
// the stale frame version and rebuild B, so the patched word executes on
// the very next transfer into it.
func TestBlockSMCIntoChainedSuccessor(t *testing.T) {
	// B sits off the page base: every page-aligned address indexes slot 0
	// of the direct-mapped cache, and an index collision would turn the
	// stale-rebuild this test pins into a plain miss.
	const (
		pageA  = uint32(0x00001000)
		pageB  = uint32(0x00003000)
		bEntry = pageB + 0x100
		escape = pageB + 0x200
	)
	as := mapPages(t, map[uint32]addrspace.Prot{
		pageA: addrspace.ProtRWX,
		pageB: addrspace.ProtRWX,
	})
	putCode(t, as, pageA, []uint32{
		isa.EncodeI(isa.OpADDIU, 9, 9, 1), // L0: addiu t1, t1, 1
		isa.EncodeJ(isa.OpJ, bEntry),      //     j B            (the chain under test)
		isa.EncodeI(isa.OpSW, 8, 25, 0),   // P:  sw t0, 0(t9)   (patches B's victim)
		isa.EncodeJ(isa.OpJ, pageA),       //     j L0
	})
	putCode(t, as, bEntry, []uint32{
		isa.EncodeI(isa.OpADDIU, 10, 10, 1), // B:  addiu t2, t2, 1 (victim)
		isa.EncodeJ(isa.OpJ, pageA+8),       //     j P
	})
	putCode(t, as, escape, []uint32{isa.EncodeI(isa.OpHALT, 0, 0, 0)})
	c := vm.New(as)
	c.PC = pageA
	c.Regs[8] = isa.EncodeJ(isa.OpJ, escape) // t0: replacement for the victim
	c.Regs[25] = bEntry                      // t9: victim address

	// Pass 1 links A→B; P then patches B; pass 2 must rebuild B through
	// the now-stale chain pointer and run the patched jump.
	ev, err := c.RunBatch(1000)
	if err != nil || ev != vm.EventHalt {
		t.Fatalf("ev=%v err=%v at pc=0x%08x, want halt", ev, err, c.PC)
	}
	if c.PC != escape {
		t.Fatalf("pc = 0x%08x, want escape 0x%08x", c.PC, escape)
	}
	if c.Regs[10] != 1 {
		t.Fatalf("victim retired %d times, want exactly 1 (stale chained block executed?)", c.Regs[10])
	}
	if c.Regs[9] != 2 {
		t.Fatalf("loop header retired %d times, want 2", c.Regs[9])
	}
	st := c.CacheStats()
	if st.BlockInvals == 0 {
		t.Fatal("no block invalidation recorded for the patched successor")
	}
	if st.BlockHits == 0 {
		t.Fatal("no chain/probe hits recorded — was the chain ever warm?")
	}
}

// TestBlockHostPatchBetweenBatches: a patch through the Space API (the ldl
// trampoline/PLT path) lands between two RunBatch calls; the second batch
// must execute the patched word even though the block and its self-chain
// are warm.
func TestBlockHostPatchBetweenBatches(t *testing.T) {
	const escape = benchTextBase + 0x40
	as := newSpace(t)
	putCode(t, as, benchTextBase, []uint32{
		isa.EncodeI(isa.OpADDIU, 10, 10, 1), // victim
		isa.EncodeJ(isa.OpJ, benchTextBase), // j victim
	})
	putCode(t, as, escape, []uint32{isa.EncodeI(isa.OpHALT, 0, 0, 0)})
	c := vm.New(as)
	c.PC = benchTextBase
	if ev, err := c.RunBatch(5); err != nil || ev != vm.EventStep {
		t.Fatalf("warm batch: ev=%v err=%v", ev, err)
	}
	retired := c.Regs[10]
	if err := as.StoreWord(benchTextBase, isa.EncodeJ(isa.OpJ, escape)); err != nil {
		t.Fatal(err)
	}
	ev, err := c.RunBatch(100)
	if err != nil || ev != vm.EventHalt {
		t.Fatalf("post-patch batch: ev=%v err=%v pc=0x%08x", ev, err, c.PC)
	}
	if c.PC != escape {
		t.Fatalf("pc = 0x%08x, want 0x%08x", c.PC, escape)
	}
	if c.Regs[10] != retired {
		t.Fatal("victim retired again after the host patch")
	}
}

// TestRunBatchBudgetExactWithFusion: a budget smaller than a fused pair
// must not over-retire — the tail runs per-instruction, so RunBatch(1)
// retires exactly the LUI half with PC left on the ORI.
func TestRunBatchBudgetExactWithFusion(t *testing.T) {
	as := newSpace(t)
	putCode(t, as, benchTextBase, []uint32{
		isa.EncodeI(isa.OpLUI, 8, 0, 0x1234), // lui t0, 0x1234
		isa.EncodeI(isa.OpORI, 8, 8, 0x5678), // ori t0, t0, 0x5678 (fuses)
		isa.EncodeI(isa.OpHALT, 0, 0, 0),
	})
	c := vm.New(as)
	c.PC = benchTextBase
	if ev, err := c.RunBatch(1); err != nil || ev != vm.EventStep {
		t.Fatalf("ev=%v err=%v", ev, err)
	}
	if c.Steps != 1 || c.PC != benchTextBase+4 {
		t.Fatalf("steps=%d pc=0x%08x, want exactly the LUI retired", c.Steps, c.PC)
	}
	if c.Regs[8] != 0x12340000 {
		t.Fatalf("t0 = 0x%08x after LUI", c.Regs[8])
	}
	if ev, err := c.RunBatch(1); err != nil || ev != vm.EventStep {
		t.Fatalf("ev=%v err=%v", ev, err)
	}
	if c.Steps != 2 || c.Regs[8] != 0x12345678 {
		t.Fatalf("steps=%d t0=0x%08x, want composed constant", c.Steps, c.Regs[8])
	}
	ev, err := c.RunBatch(10)
	if err != nil || ev != vm.EventHalt || c.Steps != 3 {
		t.Fatalf("ev=%v err=%v steps=%d, want halt at step 3", ev, err, c.Steps)
	}
}

// TestSnapshotDropsBlockCache: a forked CPU must not carry translated
// blocks — the child's space can share the parent's generation number, so
// a stale block would execute the parent's text.
func TestSnapshotDropsBlockCache(t *testing.T) {
	as := newSpace(t)
	putCode(t, as, benchTextBase, []uint32{
		isa.EncodeI(isa.OpADDIU, 10, 10, 1),
		isa.EncodeJ(isa.OpJ, benchTextBase),
	})
	c := vm.New(as)
	c.PC = benchTextBase
	if ev, err := c.RunBatch(6); err != nil || ev != vm.EventStep {
		t.Fatalf("warm batch: ev=%v err=%v", ev, err)
	}

	as2 := mapPages(t, map[uint32]addrspace.Prot{benchTextBase: addrspace.ProtRWX})
	putCode(t, as2, benchTextBase, []uint32{isa.EncodeI(isa.OpHALT, 0, 0, 0)})
	child := c.Snapshot()
	child.AS = as2
	child.PC = benchTextBase
	ev, err := child.RunBatch(10)
	if err != nil || ev != vm.EventHalt {
		t.Fatalf("child ran stale blocks: ev=%v err=%v pc=0x%08x", ev, err, child.PC)
	}
	if st := child.CacheStats(); st.BlockHits != 0 && st.BlockBuilds == 0 {
		t.Fatalf("child hit inherited blocks: %+v", st)
	}
}
