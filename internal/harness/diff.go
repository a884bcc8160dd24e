package harness

import (
	"fmt"
	"math/rand"

	"hemlock/internal/vm"
)

// diffSlotBudget bounds one program execution. A slot is consumed by every
// retired instruction AND every serviced trap, so even a program that
// faults forever (e.g. a jump to an unaligned address it keeps re-faulting
// on) terminates after exactly the same number of loop turns on both paths.
const diffSlotBudget = 4096

// execPath runs c until halt or the slot budget is gone, recording the
// observable event sequence. run retires at most budget instructions and
// reports what stopped it: RunBatch (the block engine), or a single Step
// or ReferenceStep. Traps are serviced the way a minimal kernel would:
// record, skip the faulting instruction, continue.
func execPath(c *vm.CPU, run func(budget uint64) (vm.Event, error), budget uint64) []string {
	var events []string
	var consumed uint64
	for consumed < budget {
		before := c.Steps
		ev, err := run(budget - consumed)
		consumed += c.Steps - before
		if err != nil {
			events = append(events, fmt.Sprintf("trap pc=%08x: %v", c.PC, err))
			consumed++
			c.PC += 4
			continue
		}
		switch ev {
		case vm.EventHalt:
			events = append(events, fmt.Sprintf("halt pc=%08x", c.PC))
			return events
		case vm.EventSyscall:
			events = append(events, fmt.Sprintf("syscall pc=%08x", c.PC))
		case vm.EventBreak:
			events = append(events, fmt.Sprintf("break pc=%08x", c.PC))
		}
	}
	events = append(events, "budget exhausted")
	return events
}

// DiffOne generates the program image for progSeed and executes it on
// three machines: the block engine (RunBatch), the per-instruction Step
// path through the I-TLB and icache, and the cache-free ReferenceStep
// oracle. It fails the scenario on any divergence of either fast path from
// the oracle in the event sequence, step and trap counts, registers, PC,
// or the whole-memory state hash. The failure message names progSeed:
// replaying just that program is FuzzDiffExec's job (the seed is the fuzz
// input).
func DiffOne(s *Scenario, progSeed int64) {
	ctrProg := s.Reg.Counter("harness.diff.programs")
	ctrSteps := s.Reg.Counter("harness.diff.steps")
	ctrTraps := s.Reg.Counter("harness.diff.traps")
	ctrEvents := s.Reg.Counter("harness.diff.events")

	rng := rand.New(rand.NewSource(progSeed))
	im := genImage(rng)
	var cpus [3]*vm.CPU
	for i := range cpus {
		c, err := im.instantiate()
		if err != nil {
			s.Failf("program seed=%d: instantiate machine %d: %v", progSeed, i, err)
			return
		}
		cpus[i] = c
	}
	fast, step, ref := cpus[0], cpus[1], cpus[2]

	fe := execPath(fast, fast.RunBatch, diffSlotBudget)
	se := execPath(step, func(uint64) (vm.Event, error) { return step.Step() }, diffSlotBudget)
	re := execPath(ref, func(uint64) (vm.Event, error) { return ref.ReferenceStep() }, diffSlotBudget)
	ctrProg.Inc()
	ctrSteps.Add(fast.Steps)
	ctrTraps.Add(fast.Traps)
	ctrEvents.Add(uint64(len(fe)))

	if diffMachines(s, progSeed, "fast", fast, fe, ref, re) {
		diffMachines(s, progSeed, "step", step, se, ref, re)
	}
}

// diffMachines compares one fast machine's run against the reference
// run and fails the scenario at the first divergence. It reports whether
// the two agreed.
func diffMachines(s *Scenario, progSeed int64, name string, c *vm.CPU, ce []string, ref *vm.CPU, re []string) bool {
	for i := 0; i < len(ce) || i < len(re); i++ {
		f, r := "<none>", "<none>"
		if i < len(ce) {
			f = ce[i]
		}
		if i < len(re) {
			r = re[i]
		}
		if f != r {
			s.Failf("program seed=%d: event %d diverged\n  %s: %s\n  ref:  %s\n%s state:\n%s\nref state:\n%s",
				progSeed, i, name, f, r, name, vm.DumpState(c), vm.DumpState(ref))
			return false
		}
	}
	if c.Steps != ref.Steps || c.Traps != ref.Traps {
		s.Failf("program seed=%d: counts diverged: %s steps=%d traps=%d, ref steps=%d traps=%d",
			progSeed, name, c.Steps, c.Traps, ref.Steps, ref.Traps)
		return false
	}
	if c.PC != ref.PC || c.Regs != ref.Regs {
		s.Failf("program seed=%d: register file diverged\n%s:\n%s\nref:\n%s",
			progSeed, name, vm.DumpState(c), vm.DumpState(ref))
		return false
	}
	if ch, rh := vm.StateHash(c), vm.StateHash(ref); ch != rh {
		s.Failf("program seed=%d: memory diverged (hash %s=%016x ref=%016x)\n%s:\n%s\nref:\n%s",
			progSeed, name, ch, rh, name, vm.DumpState(c), vm.DumpState(ref))
		return false
	}
	return true
}
