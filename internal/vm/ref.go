package vm

// The reference interpreter: the cache-free oracle the differential-testing
// harness (internal/harness) holds both the block engine (RunBatch) and
// the I-TLB + icache Step path against. ReferenceStep shares the exec
// switch with Step — the point of the comparison is translation, predecode
// and block caching, not the ALU — but every fetch, load and store goes
// through the canonical addrspace paths, so no cached state can leak into
// the oracle run.

import (
	"fmt"
	"hash/fnv"
	"strings"

	"hemlock/internal/addrspace"
	"hemlock/internal/mem"
)

// ReferenceStep fetches, decodes and executes one instruction with every
// memory access routed through the address space directly: no TLB probe,
// no predecoded icache, no generation or frame-version shortcuts. Trap
// semantics are identical to Step (PC and registers untouched on a trap).
// Mixing ReferenceStep and Step on one CPU is safe: the caches simply see
// no traffic while the reference path runs.
func (c *CPU) ReferenceStep() (Event, error) {
	c.uncached = true
	ev, err := c.Step()
	c.uncached = false
	return ev, err
}

// StateHash digests the CPU's architectural state — registers, PC, and
// every mapped page's address, protection and content — into one 64-bit
// FNV-1a value. Two runs of the same program diverge iff their hashes do,
// so the harness compares one word per run instead of whole memory images.
func StateHash(c *CPU) uint64 {
	h := fnv.New64a()
	var w [4]byte
	put := func(v uint32) {
		w[0], w[1], w[2], w[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
		h.Write(w[:])
	}
	put(c.PC)
	for _, r := range c.Regs {
		put(r)
	}
	c.AS.VisitPages(func(vpn uint32, prot addrspace.Prot, data *[mem.PageSize]byte) {
		put(vpn)
		put(uint32(prot))
		h.Write(data[:])
	})
	return h.Sum64()
}

// DumpState renders the architectural state for failure reports: PC, the
// non-zero registers, and a per-page FNV digest of memory. Diffing two
// dumps localises a divergence to a register or a page without drowning
// the test log in hexdumps.
func DumpState(c *CPU) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "pc=0x%08x steps=%d traps=%d\n", c.PC, c.Steps, c.Traps)
	for i, r := range c.Regs {
		if r != 0 {
			fmt.Fprintf(&sb, "  r%-2d = 0x%08x\n", i, r)
		}
	}
	c.AS.VisitPages(func(vpn uint32, prot addrspace.Prot, data *[mem.PageSize]byte) {
		h := fnv.New64a()
		h.Write(data[:])
		fmt.Fprintf(&sb, "  page 0x%08x %s fnv=%016x\n", vpn<<mem.PageShift, prot, h.Sum64())
	})
	return sb.String()
}
