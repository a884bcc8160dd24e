// Package vm implements the interpreting CPU for R3K-lite.
//
// The CPU executes instructions against a simulated address space. A memory
// access that faults leaves the architectural state (PC and registers)
// exactly as it was before the instruction, so the kernel can run Hemlock's
// user-level fault handler and then simply resume: the faulting instruction
// restarts, which is precisely the behaviour the paper's SIGSEGV-driven
// lazy linking and map-on-pointer-dereference depend on ("It then restarts
// the faulting instruction").
//
// # Translation and dispatch caches
//
// Like the R3000 the paper ran on, the interpreter amortises translation
// through a TLB. Each CPU carries a private direct-mapped D-TLB and I-TLB
// (no locking on a hit) validated against the address space's mapping
// generation (addrspace.Space.Gen): any map/unmap/protect bumps the
// generation and every cached entry goes stale at once. On top of the
// I-TLB sits a per-page predecoded instruction cache, validated against
// the backing frame's store version (mem.Frame.Version), so straight-line
// code skips both FetchWord and Decode. Because ldl patches live text —
// trampolines and jump-table slots are the paper's core mechanism — an
// icache fill or block build marks its frame observed, every store to an
// observed frame bumps the frame version (a frame no reader has observed
// takes plain stores), and a store into cached text is picked up on the
// very next fetch, even when the store came from a different process
// sharing the frame.
//
// # Executors
//
// RunBatch, the block engine in block.go, is the one executor the kernel
// runs guest code on, traced or not. Step retires one instruction through
// the I-TLB and icache; the block engine uses it for budget tails smaller
// than a fused op. ReferenceStep is Step with every cache bypassed: the
// oracle the differential harness holds both against.
package vm

import (
	"errors"
	"fmt"

	"hemlock/internal/addrspace"
	"hemlock/internal/isa"
	"hemlock/internal/mem"
	"hemlock/internal/obsv"
)

// Event reports why Step returned without error.
type Event uint8

// Step outcomes.
const (
	EventStep    Event = iota // one ordinary instruction retired
	EventHalt                 // HALT executed
	EventSyscall              // SYSCALL executed; PC already advanced
	EventBreak                // BREAK executed; PC already advanced
)

func (e Event) String() string {
	switch e {
	case EventStep:
		return "step"
	case EventHalt:
		return "halt"
	case EventSyscall:
		return "syscall"
	case EventBreak:
		return "break"
	}
	return fmt.Sprintf("event(%d)", uint8(e))
}

// Trap is a CPU exception: an illegal instruction, arithmetic trap, or a
// memory fault (in which case Unwrap yields the *addrspace.Fault). PC is
// the address of the instruction that trapped; it has not been retired.
type Trap struct {
	PC  uint32
	Err error
}

func (t *Trap) Error() string { return fmt.Sprintf("vm: trap at pc 0x%08x: %v", t.PC, t.Err) }
func (t *Trap) Unwrap() error { return t.Err }

// FaultOf extracts the memory fault from err, if err is a Trap wrapping one.
func FaultOf(err error) (*addrspace.Fault, bool) {
	var f *addrspace.Fault
	if errors.As(err, &f) {
		return f, true
	}
	return nil, false
}

// ErrIllegal is wrapped by traps on undecodable instructions.
var ErrIllegal = errors.New("illegal instruction")

// ErrDivZero is wrapped by traps on division by zero.
var ErrDivZero = errors.New("integer divide by zero")

// Cache geometry. Direct-mapped: the low index bits of the VPN pick the
// slot, the full VPN is the tag. Sized for the working sets the linkers
// produce (an image, a few shared modules, a stack) rather than for
// associativity games.
const (
	tlbBits = 6
	tlbSize = 1 << tlbBits // I-TLB and D-TLB entries per CPU

	icBits = 4
	icSize = 1 << icBits // predecoded text pages per CPU

	pageWords = mem.PageSize / 4
)

// tlbEnt is one software-TLB slot. Valid iff frame != nil; a slot is a hit
// when the VPN tag matches and the space generation has not moved.
type tlbEnt struct {
	frame *mem.Frame
	gen   uint64
	vpn   uint32
	prot  addrspace.Prot
}

// pinst is the icache's compact predecode: the same fields isa.Inst
// carries, packed into 12 bytes instead of 64 so an icPage costs 12 KB
// rather than 64 KB — short-lived processes allocate these per executed
// text page, so the size shows up in launch cost.
type pinst struct {
	word      uint32
	imm       uint16
	op, fn    uint8
	rs, rt    uint8
	rd, shamt uint8
}

func predecode(w uint32) pinst {
	return pinst{
		word:  w,
		imm:   uint16(w),
		op:    uint8(w >> 26),
		fn:    uint8(w & 63),
		rs:    uint8(w >> 21 & 31),
		rt:    uint8(w >> 16 & 31),
		rd:    uint8(w >> 11 & 31),
		shamt: uint8(w >> 6 & 31),
	}
}

// icPage is one predecoded text page. Words decode lazily (the decoded
// bitmap) so the cache never reads bytes the program did not execute —
// predecoding a whole page eagerly would read words a concurrently running
// sibling might be writing. fver pins the backing frame's store version:
// any store to the frame (self-modifying code, an ldl patch, a store from
// a process sharing the page) makes the entry stale.
type icPage struct {
	frame   *mem.Frame
	fver    uint64
	vpn     uint32
	valid   bool
	decoded [pageWords / 64]uint64
	code    [pageWords]pinst
}

// CacheStats is the cumulative TLB/icache/block-engine accounting for one
// CPU.
type CacheStats struct {
	TLBHits   uint64 // I- or D-TLB hit: no lock, no map lookup
	TLBMisses uint64 // slow-path Translate (fills a slot, or builds a block)
	ICFills   uint64 // predecoded page (re)filled
	ICInvals  uint64 // fill that replaced a stale entry for the same page

	BlockBuilds uint64 // basic blocks decoded (vm.block_build)
	BlockHits   uint64 // block entries served without a build (vm.block_hit)
	BlockInvals uint64 // rebuilds of a stale block: SMC, PLT patch, remap
	FusedOps    uint64 // fused macro-ops executed (vm.fused_ops)
}

// CPU is one simulated processor context.
type CPU struct {
	Regs  [32]uint32
	PC    uint32
	AS    *addrspace.Space
	Steps uint64 // retired instruction count
	Traps uint64 // traps raised (memory faults, illegal instructions, div0)

	// CtrTraps, when wired (kern.Spawn does), mirrors Traps into the
	// kernel-wide vm.traps counter. Nil-safe; fork shares the pointer.
	CtrTraps *obsv.Counter

	// Cache counters (vm.tlb_hit, vm.tlb_miss, vm.icache_fill,
	// vm.icache_invalidate), wired by kern.Spawn. The hot path accumulates
	// in the plain per-CPU stats fields; FlushObsv folds the deltas into
	// these shared atomics at batch boundaries.
	CtrTLBHit, CtrTLBMiss, CtrICFill, CtrICInval *obsv.Counter

	// Block-engine counters (vm.block_build, vm.block_hit,
	// vm.block_invalidate, vm.fused_ops), wired by kern.Spawn and folded
	// by FlushObsv like the cache counters.
	CtrBlockBuild, CtrBlockHit, CtrBlockInval, CtrFusedOps *obsv.Counter

	stats   CacheStats
	flushed CacheStats

	// uncached routes every fetch, load and store through the canonical
	// addrspace paths, bypassing the TLBs and the icache entirely. It is
	// the reference-interpreter mode the differential-testing harness
	// compares the cached fast path against (ReferenceStep).
	uncached bool
	refInst  pinst // scratch predecode slot for uncached fetches

	// sampler, when installed via SetSampler, receives guest-PC samples at
	// batch and block boundaries. Nil (the default) costs one comparison
	// per boundary.
	sampler Sampler

	dtlb [tlbSize]tlbEnt
	itlb [tlbSize]tlbEnt
	ic   [icSize]*icPage

	// bc is the basic-block cache, allocated on first use: the 4 KB
	// pointer array would otherwise dominate the size of a CPU that never
	// runs (zygote clones pay one CPU allocation per launch).
	bc *[bcSize]*block
}

// New returns a CPU bound to the given address space.
func New(as *addrspace.Space) *CPU {
	return &CPU{AS: as}
}

func (c *CPU) set(r uint8, v uint32) {
	if r != 0 {
		c.Regs[r] = v
	}
}

// trap records and returns a CPU exception at pc.
func (c *CPU) trap(pc uint32, err error) (Event, error) {
	c.Traps++
	c.CtrTraps.Inc()
	return EventStep, &Trap{PC: pc, Err: err}
}

// CacheStats returns the CPU's cumulative TLB/icache statistics.
func (c *CPU) CacheStats() CacheStats { return c.stats }

// FlushObsv folds cache statistics accumulated since the last flush into
// the wired obsv counters. RunBatch calls it on every exit, so `hemlock
// stats` sees up-to-date numbers without the hot path touching an atomic
// per instruction.
func (c *CPU) FlushObsv() {
	c.CtrTLBHit.Add(c.stats.TLBHits - c.flushed.TLBHits)
	c.CtrTLBMiss.Add(c.stats.TLBMisses - c.flushed.TLBMisses)
	c.CtrICFill.Add(c.stats.ICFills - c.flushed.ICFills)
	c.CtrICInval.Add(c.stats.ICInvals - c.flushed.ICInvals)
	c.CtrBlockBuild.Add(c.stats.BlockBuilds - c.flushed.BlockBuilds)
	c.CtrBlockHit.Add(c.stats.BlockHits - c.flushed.BlockHits)
	c.CtrBlockInval.Add(c.stats.BlockInvals - c.flushed.BlockInvals)
	c.CtrFusedOps.Add(c.stats.FusedOps - c.flushed.FusedOps)
	c.flushed = c.stats
}

// FlushCaches drops every TLB, icache and block-cache entry. Required
// after pointing the CPU at a different address space; never required for
// mapping changes (the generation check catches those) or stores (the
// frame version check catches those).
func (c *CPU) FlushCaches() {
	c.dtlb = [tlbSize]tlbEnt{}
	c.itlb = [tlbSize]tlbEnt{}
	c.ic = [icSize]*icPage{}
	c.bc = nil
}

// dentry returns a valid D-TLB entry for addr with the needed right,
// filling the slot from the address space on a miss. The returned *Fault
// is non-nil when translation fails.
func (c *CPU) dentry(addr uint32, a addrspace.Access) (*tlbEnt, *addrspace.Fault) {
	vp := addr >> mem.PageShift
	e := &c.dtlb[vp&(tlbSize-1)]
	if e.frame != nil && e.vpn == vp && e.prot&a.Need() != 0 && e.gen == c.AS.Gen() {
		c.stats.TLBHits++
		return e, nil
	}
	ent, flt := c.AS.Translate(addr, a)
	if flt != nil {
		return nil, flt
	}
	c.stats.TLBMisses++
	e.frame, e.gen, e.vpn, e.prot = ent.Frame, ent.Gen, vp, ent.Prot
	return e, nil
}

func (c *CPU) loadWord(addr uint32) (uint32, error) {
	if addr&3 != 0 || c.uncached {
		return c.AS.LoadWord(addr) // canonical path (also the unaligned error)
	}
	e, flt := c.dentry(addr, addrspace.AccessRead)
	if flt != nil {
		return 0, flt
	}
	return e.frame.LoadWordBE(addr & (mem.PageSize - 1)), nil
}

func (c *CPU) loadByte(addr uint32) (byte, error) {
	if c.uncached {
		return c.AS.LoadByte(addr)
	}
	e, flt := c.dentry(addr, addrspace.AccessRead)
	if flt != nil {
		return 0, flt
	}
	return e.frame.Data[addr&(mem.PageSize-1)], nil
}

func (c *CPU) storeWord(addr, val uint32) error {
	if addr&3 != 0 || c.uncached {
		return c.AS.StoreWord(addr, val) // canonical path (also the unaligned error)
	}
	e, flt := c.dentry(addr, addrspace.AccessWrite)
	if flt != nil {
		return flt
	}
	// Self-modifying-code protocol: StoreWordBE stores, then bumps the
	// frame version if anyone has read it (an icache fill or a block
	// build marks the frame observed), so any icache entry predecoded from
	// this frame — ours or a sibling CPU's — fails its version check on
	// next fetch. The store itself is host-atomic: a sibling CPU
	// concurrently loading or fetching this word sees the old word or the
	// new one, never a torn mix.
	e.frame.StoreWordBE(addr&(mem.PageSize-1), val)
	return nil
}

func (c *CPU) storeByte(addr uint32, val byte) error {
	if c.uncached {
		return c.AS.StoreByte(addr, val)
	}
	e, flt := c.dentry(addr, addrspace.AccessWrite)
	if flt != nil {
		return flt
	}
	e.frame.Data[addr&(mem.PageSize-1)] = val
	e.frame.NoteStoreRange(addr&(mem.PageSize-1), 1)
	return nil
}

// fetch returns the predecoded instruction at pc. The fast path is an
// I-TLB probe (generation check), an icache probe (frame version check)
// and a bitmap test; the slow paths fill the missing level and retry.
func (c *CPU) fetch(pc uint32) (*pinst, error) {
	if c.uncached {
		w, err := c.AS.FetchWord(pc)
		if err != nil {
			return nil, err
		}
		c.refInst = predecode(w)
		return &c.refInst, nil
	}
	if pc&3 != 0 {
		_, err := c.AS.FetchWord(pc) // canonical unaligned-fetch error
		return nil, err
	}
	vp := pc >> mem.PageShift
	e := &c.itlb[vp&(tlbSize-1)]
	if e.frame != nil && e.vpn == vp && e.gen == c.AS.Gen() {
		c.stats.TLBHits++
	} else {
		ent, flt := c.AS.Translate(pc, addrspace.AccessExec)
		if flt != nil {
			return nil, flt
		}
		c.stats.TLBMisses++
		e.frame, e.gen, e.vpn, e.prot = ent.Frame, ent.Gen, vp, ent.Prot
	}
	pg := c.ic[vp&(icSize-1)]
	if pg == nil {
		pg = new(icPage)
		c.ic[vp&(icSize-1)] = pg
	}
	// Read the frame version BEFORE any instruction bytes. Version marks
	// the frame observed first, and writers store, then bump an observed
	// frame's version: a store this predecode misses bumps the version
	// after fver was read, so the next fetch's version check refills.
	fv := e.frame.Version()
	if !pg.valid || pg.vpn != vp || pg.frame != e.frame || pg.fver != fv {
		if pg.valid && pg.vpn == vp && pg.frame == e.frame {
			c.stats.ICInvals++ // stale predecode: text was stored into
		}
		pg.frame, pg.fver, pg.vpn, pg.valid = e.frame, fv, vp, true
		pg.decoded = [pageWords / 64]uint64{}
		c.stats.ICFills++
	}
	wi := (pc & (mem.PageSize - 1)) >> 2
	if pg.decoded[wi>>6]&(1<<(wi&63)) == 0 {
		pg.code[wi] = predecode(e.frame.LoadWordBE(pc & (mem.PageSize - 1)))
		pg.decoded[wi>>6] |= 1 << (wi & 63)
	}
	return &pg.code[wi], nil
}

// Step fetches, decodes and executes one instruction. On a memory fault it
// returns a *Trap and leaves PC/registers untouched so the instruction can
// be restarted after the fault is serviced.
func (c *CPU) Step() (Event, error) {
	in, err := c.fetch(c.PC)
	if err != nil {
		return c.trap(c.PC, err)
	}
	return c.exec(in)
}

// exec retires one predecoded instruction.
func (c *CPU) exec(in *pinst) (Event, error) {
	next := c.PC + 4
	switch in.op {
	case isa.OpSpecial:
		switch in.fn {
		case isa.FnSLL:
			c.set(in.rd, c.Regs[in.rt]<<uint(in.shamt))
		case isa.FnSRL:
			c.set(in.rd, c.Regs[in.rt]>>uint(in.shamt))
		case isa.FnSRA:
			c.set(in.rd, uint32(int32(c.Regs[in.rt])>>uint(in.shamt)))
		case isa.FnSLLV:
			c.set(in.rd, c.Regs[in.rt]<<(c.Regs[in.rs]&31))
		case isa.FnSRLV:
			c.set(in.rd, c.Regs[in.rt]>>(c.Regs[in.rs]&31))
		case isa.FnSRAV:
			c.set(in.rd, uint32(int32(c.Regs[in.rt])>>(c.Regs[in.rs]&31)))
		case isa.FnJR:
			next = c.Regs[in.rs]
		case isa.FnJALR:
			ret := c.PC + 4
			next = c.Regs[in.rs]
			c.set(in.rd, ret)
		case isa.FnSYSCALL:
			c.PC = next
			c.Steps++
			return EventSyscall, nil
		case isa.FnBREAK:
			c.PC = next
			c.Steps++
			return EventBreak, nil
		case isa.FnMUL:
			c.set(in.rd, c.Regs[in.rs]*c.Regs[in.rt])
		case isa.FnDIV:
			if c.Regs[in.rt] == 0 {
				return c.trap(c.PC, ErrDivZero)
			}
			c.set(in.rd, uint32(int32(c.Regs[in.rs])/int32(c.Regs[in.rt])))
		case isa.FnADD, isa.FnADDU:
			c.set(in.rd, c.Regs[in.rs]+c.Regs[in.rt])
		case isa.FnSUB, isa.FnSUBU:
			c.set(in.rd, c.Regs[in.rs]-c.Regs[in.rt])
		case isa.FnAND:
			c.set(in.rd, c.Regs[in.rs]&c.Regs[in.rt])
		case isa.FnOR:
			c.set(in.rd, c.Regs[in.rs]|c.Regs[in.rt])
		case isa.FnXOR:
			c.set(in.rd, c.Regs[in.rs]^c.Regs[in.rt])
		case isa.FnNOR:
			c.set(in.rd, ^(c.Regs[in.rs] | c.Regs[in.rt]))
		case isa.FnSLT:
			if int32(c.Regs[in.rs]) < int32(c.Regs[in.rt]) {
				c.set(in.rd, 1)
			} else {
				c.set(in.rd, 0)
			}
		case isa.FnSLTU:
			if c.Regs[in.rs] < c.Regs[in.rt] {
				c.set(in.rd, 1)
			} else {
				c.set(in.rd, 0)
			}
		default:
			return c.trap(c.PC, fmt.Errorf("%w: special funct %d", ErrIllegal, in.fn))
		}
	case isa.OpJ:
		next = isa.Jump26Target(in.word, c.PC)
	case isa.OpJAL:
		c.set(isa.RegRA, c.PC+4)
		next = isa.Jump26Target(in.word, c.PC)
	case isa.OpBEQ:
		if c.Regs[in.rs] == c.Regs[in.rt] {
			next = isa.BranchTarget(c.PC, in.imm)
		}
	case isa.OpBNE:
		if c.Regs[in.rs] != c.Regs[in.rt] {
			next = isa.BranchTarget(c.PC, in.imm)
		}
	case isa.OpBLEZ:
		if int32(c.Regs[in.rs]) <= 0 {
			next = isa.BranchTarget(c.PC, in.imm)
		}
	case isa.OpBGTZ:
		if int32(c.Regs[in.rs]) > 0 {
			next = isa.BranchTarget(c.PC, in.imm)
		}
	case isa.OpADDI, isa.OpADDIU:
		c.set(in.rt, c.Regs[in.rs]+isa.SignExt(in.imm))
	case isa.OpSLTI:
		if int32(c.Regs[in.rs]) < int32(isa.SignExt(in.imm)) {
			c.set(in.rt, 1)
		} else {
			c.set(in.rt, 0)
		}
	case isa.OpSLTIU:
		if c.Regs[in.rs] < isa.SignExt(in.imm) {
			c.set(in.rt, 1)
		} else {
			c.set(in.rt, 0)
		}
	case isa.OpANDI:
		c.set(in.rt, c.Regs[in.rs]&uint32(in.imm))
	case isa.OpORI:
		c.set(in.rt, c.Regs[in.rs]|uint32(in.imm))
	case isa.OpXORI:
		c.set(in.rt, c.Regs[in.rs]^uint32(in.imm))
	case isa.OpLUI:
		c.set(in.rt, uint32(in.imm)<<16)
	case isa.OpLW:
		addr := c.Regs[in.rs] + isa.SignExt(in.imm)
		v, err := c.loadWord(addr)
		if err != nil {
			return c.trap(c.PC, err)
		}
		c.set(in.rt, v)
	case isa.OpLB:
		addr := c.Regs[in.rs] + isa.SignExt(in.imm)
		b, err := c.loadByte(addr)
		if err != nil {
			return c.trap(c.PC, err)
		}
		c.set(in.rt, uint32(int32(int8(b))))
	case isa.OpLBU:
		addr := c.Regs[in.rs] + isa.SignExt(in.imm)
		b, err := c.loadByte(addr)
		if err != nil {
			return c.trap(c.PC, err)
		}
		c.set(in.rt, uint32(b))
	case isa.OpSW:
		addr := c.Regs[in.rs] + isa.SignExt(in.imm)
		if err := c.storeWord(addr, c.Regs[in.rt]); err != nil {
			return c.trap(c.PC, err)
		}
	case isa.OpSB:
		addr := c.Regs[in.rs] + isa.SignExt(in.imm)
		if err := c.storeByte(addr, byte(c.Regs[in.rt])); err != nil {
			return c.trap(c.PC, err)
		}
	case isa.OpHALT:
		c.Steps++
		return EventHalt, nil
	default:
		return c.trap(c.PC, fmt.Errorf("%w: opcode %d", ErrIllegal, in.op))
	}
	c.PC = next
	c.Steps++
	return EventStep, nil
}

// Run executes until a non-step event, a trap, or maxSteps instructions.
// It is a convenience for tests that do not need a kernel; real programs
// run under kern, which services faults and syscalls.
func (c *CPU) Run(maxSteps uint64) (Event, error) {
	ev, err := c.RunBatch(maxSteps)
	if err != nil || ev != EventStep {
		return ev, err
	}
	return EventStep, fmt.Errorf("vm: exceeded %d steps at pc 0x%08x", maxSteps, c.PC)
}

// AdoptArchState copies from's architectural state — registers, PC,
// retired-instruction and trap counts, sampler — into c, keeping c's own
// address space, wired counters and (cold) caches. fork uses it to reuse
// the CPU Spawn already allocated instead of paying for a second ~8 KB CPU
// per clone; cache state is deliberately not copied for the same reason
// Snapshot omits it.
func (c *CPU) AdoptArchState(from *CPU) {
	c.Regs = from.Regs
	c.PC = from.PC
	c.Steps = from.Steps
	c.Traps = from.Traps
	c.sampler = from.sampler
}

// Snapshot returns a copy of the architectural state (for fork). Cache
// state is deliberately NOT copied: the child runs against a different
// address space whose generation counter starts fresh, so inherited
// entries could falsely validate against the parent's frames.
func (c *CPU) Snapshot() CPU {
	return CPU{
		Regs:          c.Regs,
		PC:            c.PC,
		AS:            c.AS,
		Steps:         c.Steps,
		Traps:         c.Traps,
		CtrTraps:      c.CtrTraps,
		CtrTLBHit:     c.CtrTLBHit,
		CtrTLBMiss:    c.CtrTLBMiss,
		CtrICFill:     c.CtrICFill,
		CtrICInval:    c.CtrICInval,
		CtrBlockBuild: c.CtrBlockBuild,
		CtrBlockHit:   c.CtrBlockHit,
		CtrBlockInval: c.CtrBlockInval,
		CtrFusedOps:   c.CtrFusedOps,
		sampler:       c.sampler,
	}
}
