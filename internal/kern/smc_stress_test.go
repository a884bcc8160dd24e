package kern

import (
	"testing"

	"hemlock/internal/addrspace"
	"hemlock/internal/isa"
	"hemlock/internal/layout"
	"hemlock/internal/mem"
)

// TestSMCFlipStressFinalWordWins runs a patcher and a runner on two
// scheduler CPUs at once. The patcher flips the first word of the runner's
// loop in a shared RWX page between two harmless variants, so the runner
// keeps rebuilding its block (or refilling its icache) from a frame that is
// being stored into, then stores a jump to a HALT and stops. Whatever the
// interleaving, the runner must execute that final word and halt: a stale
// translation it kept would spin it through its whole budget.
//
// The window this guards — a builder that reads an already-bumped version,
// then the old word, and keeps that block for good — only exists if a
// writer bumps the version before its word lands. The test catches such an
// ordering only probabilistically: the builder has to fall into the gap
// between the bump and the store of the final patch. Writers that store
// first and bump after never open it.
func TestSMCFlipStressFinalWordWins(t *testing.T) {
	const (
		rounds = 8
		flips  = 20000
	)
	for r := 0; r < rounds; r++ {
		k := New()
		patcher := k.Spawn(0)
		runner := k.Spawn(0)

		const shared = layout.SharedBase
		if err := patcher.AS.MapAnon(shared, mem.PageSize, addrspace.ProtRWX); err != nil {
			t.Fatal(err)
		}
		patcher.AS.ShareRange(runner.AS, shared, shared+mem.PageSize)

		const victim = shared + 0x100
		const escape = shared + 0x200
		variantA := isa.EncodeI(isa.OpADDIU, 10, 10, 1) // addiu t2, t2, 1
		variantB := isa.EncodeI(isa.OpADDIU, 11, 11, 1) // addiu t3, t3, 1
		words := map[uint32]uint32{
			victim:     variantA,
			victim + 4: isa.EncodeJ(isa.OpJ, victim), // j victim
			escape:     isa.EncodeI(isa.OpHALT, 0, 0, 0),
		}
		for addr, w := range words {
			if err := patcher.AS.StoreWord(addr, w); err != nil {
				t.Fatal(err)
			}
		}
		runner.CPU.PC = victim
		if _, err := runner.CPU.RunBatch(20); err != nil {
			t.Fatalf("round %d: runner warmup: %v", r, err)
		}

		// Patcher: flips times { sw A; sw B }, then sw final; halt.
		const wtext = 0x00001000
		if err := patcher.AS.MapAnon(wtext, mem.PageSize, addrspace.ProtRWX); err != nil {
			t.Fatal(err)
		}
		prog := []uint32{
			isa.EncodeI(isa.OpSW, 8, 9, 0),           // 0:  sw $8, 0($9)
			isa.EncodeI(isa.OpSW, 11, 9, 0),          // 4:  sw $11, 0($9)
			isa.EncodeI(isa.OpADDIU, 12, 12, 0xFFFF), // 8:  addiu $12, $12, -1
			isa.EncodeI(isa.OpBNE, 0, 12, 0xFFFC),    // 12: bne $12, $0, 0
			isa.EncodeI(isa.OpSW, 13, 9, 0),          // 16: sw $13, 0($9)
			isa.EncodeI(isa.OpHALT, 0, 0, 0),         // 20: halt
		}
		for i, w := range prog {
			if err := patcher.AS.StoreWord(wtext+uint32(4*i), w); err != nil {
				t.Fatal(err)
			}
		}
		patcher.CPU.PC = wtext
		patcher.CPU.Regs[8] = variantA
		patcher.CPU.Regs[9] = victim
		patcher.CPU.Regs[11] = variantB
		patcher.CPU.Regs[12] = flips
		patcher.CPU.Regs[13] = isa.EncodeJ(isa.OpJ, escape)

		s := NewScheduler(k, SchedConfig{CPUs: 2, Quantum: 500})
		err := s.RunAll([]*Process{runner, patcher}, 50_000_000)
		s.Stop()
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if !patcher.Exited || patcher.ExitCode != 0 {
			t.Fatalf("round %d: patcher exited=%v code=%d", r, patcher.Exited, patcher.ExitCode)
		}
		if !runner.Exited || runner.ExitCode != 0 {
			t.Fatalf("round %d: runner exited=%v code=%d pc=0x%08x: it never executed the final word",
				r, runner.Exited, runner.ExitCode, runner.CPU.PC)
		}
	}
}
