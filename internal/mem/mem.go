// Package mem provides the simulated paged physical memory that underlies
// every Hemlock address space and every shared-file-system file.
//
// Physical memory is a pool of fixed-size frames. Frames are reference
// counted so that a single frame can back a shared-file-system file, be
// mapped into any number of simulated address spaces, and be released only
// when the last user drops it. The paper's whole point is that mapped
// segments and file contents are the same bytes; sharing frames is how the
// simulation keeps that true.
package mem

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"hemlock/internal/obsv"
)

// PageSize is the size in bytes of a physical frame and of a virtual page.
const PageSize = 4096

// PageShift is log2(PageSize).
const PageShift = 12

// ErrOutOfMemory is returned when the physical memory pool is exhausted.
var ErrOutOfMemory = errors.New("mem: out of physical memory")

// Frame is one page of simulated physical memory. The zero value is not
// usable; frames are obtained from a Physical pool.
//
// The reference count and the store-version counter are atomics so that
// the hot paths — Retain/Release on fork and map operations, version
// checks on every interpreted instruction — never touch the pool mutex.
type Frame struct {
	Data [PageSize]byte

	pool *Physical
	pfn  int
	refs atomic.Int64
	ver  atomic.Uint64

	// flags holds flagObserved and flagTracked. Writers load it once after
	// their bytes land and do nothing more while it is 0, so a store to a
	// frame nobody has asked the version of costs one store and one load.
	flags atomic.Uint32

	// Dirty-byte watermark, maintained only while flagTracked is set
	// (netshm tracks the frames of segments it homes). dirty packs the
	// byte range touched since the watermark was last taken: lo<<32 | end
	// (end exclusive); 0 means clean. Writers merge their range with a CAS
	// loop, so the watermark never under-reports — a torn or lost update
	// is impossible, only a wider-than-necessary range.
	dirty atomic.Uint64
}

const (
	// flagObserved is set, never cleared, the first time anyone reads the
	// store version; from then on every write bumps it.
	flagObserved uint32 = 1 << iota
	// flagTracked turns on the dirty-byte watermark.
	flagTracked
)

// PFN returns the frame's physical frame number within its pool.
func (f *Frame) PFN() int { return f.pfn }

// Physical is a pool of physical frames with a simple free list. It is safe
// for concurrent use.
type Physical struct {
	mu       sync.Mutex
	limit    int // maximum number of live frames; 0 means unlimited
	live     int
	nextPFN  int
	allocCnt uint64
	freeCnt  uint64
	observed atomic.Int64 // live frames with flagObserved set
}

// NewPhysical returns a pool that will hand out at most limitFrames frames
// at any one time. limitFrames <= 0 means unlimited.
func NewPhysical(limitFrames int) *Physical {
	return &Physical{limit: limitFrames}
}

// Alloc returns a zeroed frame with reference count 1.
func (p *Physical) Alloc() (*Frame, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.limit > 0 && p.live >= p.limit {
		return nil, fmt.Errorf("%w: limit %d frames", ErrOutOfMemory, p.limit)
	}
	f := &Frame{pool: p, pfn: p.nextPFN}
	f.refs.Store(1)
	p.nextPFN++
	p.live++
	p.allocCnt++
	return f, nil
}

// AllocN allocates n zeroed frames under a single pool lock. It either
// delivers all n or fails without allocating anything, so the fork and map
// paths pay one mutex round trip instead of n.
func (p *Physical) AllocN(n int) ([]*Frame, error) {
	if n <= 0 {
		return nil, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.limit > 0 && p.live+n > p.limit {
		return nil, fmt.Errorf("%w: limit %d frames", ErrOutOfMemory, p.limit)
	}
	frames := make([]*Frame, n)
	for i := range frames {
		f := &Frame{pool: p, pfn: p.nextPFN}
		f.refs.Store(1)
		p.nextPFN++
		frames[i] = f
	}
	p.live += n
	p.allocCnt += uint64(n)
	return frames, nil
}

// Retain increments the frame's reference count. It is used when a frame is
// mapped into an additional address space or retained by a file.
func (f *Frame) Retain() {
	if f.refs.Add(1) <= 1 {
		panic("mem: Retain on released frame")
	}
}

// Release decrements the reference count, returning the frame to the pool
// when it reaches zero.
func (f *Frame) Release() {
	n := f.refs.Add(-1)
	if n < 0 {
		panic("mem: Release on released frame")
	}
	if n == 0 {
		if f.flags.Load()&flagObserved != 0 {
			f.pool.observed.Add(-1)
		}
		f.pool.mu.Lock()
		f.pool.live--
		f.pool.freeCnt++
		f.pool.mu.Unlock()
	}
}

// Refs reports the current reference count (for tests and fsck).
func (f *Frame) Refs() int { return int(f.refs.Load()) }

// NoteStoreRange records that bytes [off, off+n) of the frame were just
// written. Every writer — the VM's word and byte stores, the address-space
// write API, the shared file system — calls it AFTER its bytes land. It
// loads the flags word once and, when that is 0, does nothing else: a
// store to a frame whose version nobody reads costs what a store costs.
// Otherwise it merges the range into the dirty watermark of a tracked
// frame (netshm turns the watermark into byte-range deltas instead of
// shipping whole pages) and then bumps the store-version counter of an
// observed frame.
//
// Store, then bump if observed. Readers of the version — the predecoded
// instruction cache on every fetch, the block-translation engine on every
// block entry (including entries through chain pointers), ContentVersion,
// netshm, the image save — call Version, which sets flagObserved before
// it loads the counter, and read the bytes after. With seq-cst atomics on
// both sides this is a Dekker pair: the writer stores, then loads the
// flags; the reader sets the flag, then loads the version, then the
// bytes. Either the writer sees flagObserved and bumps after its bytes
// have landed, so any version loaded before the bump goes stale, or the
// reader's bytes load comes after the writer's store and sees the new
// bytes. That is how a store into live text — ldl patching a trampoline or
// jump-table slot, self-modifying code, a sibling process writing through
// a shared frame — invalidates stale predecode and stale translated blocks
// on the very next fetch. The word stores below are host atomics, so the
// argument holds across CPUs; byte and bulk writes are plain, so it holds
// for the writing CPU and for readers that synchronise with the writer,
// which is the contract sub-word sharing has anyway.
//
// The watermark is merged before the bump so that a reader that sees the
// new version also finds the range in the watermark.
func (f *Frame) NoteStoreRange(off, n uint32) {
	if fl := f.flags.Load(); fl != 0 {
		f.noteStoreSlow(fl, off, n)
	}
}

// noteStoreSlow is NoteStoreRange's out-of-line half, kept apart so the
// flags test inlines into every writer.
func (f *Frame) noteStoreSlow(fl, off, n uint32) {
	if fl&flagTracked != 0 {
		f.noteRange(off, n)
	}
	if fl&flagObserved != 0 {
		f.ver.Add(1)
	}
}

// noteRange merges [off, off+n) into the dirty watermark.
func (f *Frame) noteRange(off, n uint32) {
	if n == 0 {
		return
	}
	end := off + n
	if end > PageSize {
		end = PageSize
	}
	for {
		old := f.dirty.Load()
		lo, e := uint32(old>>32), uint32(old)
		if old == 0 {
			lo, e = off, end
		} else {
			if off < lo {
				lo = off
			}
			if end > e {
				e = end
			}
		}
		nv := uint64(lo)<<32 | uint64(e)
		if old == nv || f.dirty.CompareAndSwap(old, nv) {
			return
		}
	}
}

// setFlags sets the given flag bits, counting the frame in
// mem.frames_observed on its transition to observed.
func (f *Frame) setFlags(set uint32) {
	for {
		old := f.flags.Load()
		if old&set == set {
			return
		}
		if f.flags.CompareAndSwap(old, old|set) {
			if set&^old&flagObserved != 0 {
				f.pool.observed.Add(1)
			}
			return
		}
	}
}

// SetTracked switches dirty-byte watermark maintenance on or off.
// Enabling tracking starts with a clean watermark: bytes written before
// this call are the caller's business (netshm snapshots frame versions at
// Serve time and falls back to whole-page shipping when the version moved
// without a watermark). Enabling it also marks the frame observed, since
// that fallback compares versions.
func (f *Frame) SetTracked(on bool) {
	if on {
		f.setFlags(flagObserved | flagTracked)
		return
	}
	for {
		old := f.flags.Load()
		if f.flags.CompareAndSwap(old, old&^flagTracked) {
			break
		}
	}
	f.dirty.Store(0)
}

// TakeDirtyRange returns and resets the dirty watermark: the smallest
// [lo, end) covering every byte written through a range-aware writer since
// the last take. ok is false when nothing was recorded (clean, or the
// frame is not tracked).
func (f *Frame) TakeDirtyRange() (lo, end uint32, ok bool) {
	v := f.dirty.Swap(0)
	if v == 0 {
		return 0, 0, false
	}
	return uint32(v >> 32), uint32(v), true
}

// Version returns the frame's store-version counter. The first call marks
// the frame observed, so that from then on every write bumps the counter;
// until then writes leave it alone. Call it BEFORE reading the bytes the
// version is to vouch for (see NoteStoreRange).
func (f *Frame) Version() uint64 {
	if f.flags.Load()&flagObserved == 0 {
		f.setFlags(flagObserved)
	}
	return f.ver.Load()
}

// SeenVersion returns the store-version counter without marking the frame
// observed. Only a caller that has already called Version on this frame
// may use it (the block engine's entry checks, on frames it built blocks
// from): until then writers do not bump the counter.
func (f *Frame) SeenVersion() uint64 { return f.ver.Load() }

// RestoreVersion sets the store-version counter to a value recorded by an
// earlier run and marks the frame observed. Only boot-time loaders (shmfs
// image restore) may call it, and only on frames no CPU has cached
// translations against: file fingerprints (shmfs.ContentVersion) are built
// from these counters, so a reboot must bring them back — and keep them
// moving on every later write — or a fingerprint recorded before the
// reboot (the link cache's invalidation manifest among them) would still
// match after the file changed.
func (f *Frame) RestoreVersion(v uint64) {
	f.ver.Store(v)
	f.setFlags(flagObserved)
}

// Stats describes pool usage.
type Stats struct {
	Live   int    // frames currently referenced
	Limit  int    // configured limit (0 = unlimited)
	Allocs uint64 // total Alloc calls
	Frees  uint64 // total frames fully released
}

// Stats returns a snapshot of pool usage.
func (p *Physical) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{Live: p.live, Limit: p.limit, Allocs: p.allocCnt, Frees: p.freeCnt}
}

// RegisterObsv publishes the pool's usage as gauges in the registry,
// sampled live at snapshot time so the snapshot and Stats() always agree:
// mem.frames_live, mem.frames_limit, mem.frame_allocs, mem.frame_frees,
// and mem.frames_observed — the live frames whose store version has been
// read, the only ones whose writes pay a version bump.
func (p *Physical) RegisterObsv(r *obsv.Registry) {
	r.GaugeFunc("mem.frames_live", func() int64 { return int64(p.Stats().Live) })
	r.GaugeFunc("mem.frames_observed", p.observed.Load)
	r.GaugeFunc("mem.frames_limit", func() int64 { return int64(p.Stats().Limit) })
	r.GaugeFunc("mem.frame_allocs", func() int64 { return int64(p.Stats().Allocs) })
	r.GaugeFunc("mem.frame_frees", func() int64 { return int64(p.Stats().Frees) })
}

// Copy returns a new frame whose contents are a copy of f (reference count
// 1). Used by fork for private pages.
func (f *Frame) Copy() (*Frame, error) {
	g, err := f.pool.Alloc()
	if err != nil {
		return nil, err
	}
	g.Data = f.Data
	return g, nil
}

// ---- atomic word access -----------------------------------------------------
//
// With true SMP, guest CPUs on different host goroutines load and store the
// same frames concurrently. Word-granular guest accesses therefore go
// through host-atomic 32-bit operations on the frame word, converted
// between guest (big-endian) and host byte order here. On little-endian
// hosts the conversion is the same bswap binary.BigEndian performed, and an
// aligned 32-bit atomic load/store is a plain MOV on x86/arm64 — the
// single-CPU fast paths cost what they did before, while concurrent CPUs
// get tear-free words and the race detector gets a sound happens-before
// model of guest memory. Byte and bulk accesses stay plain: guests that
// share sub-word data must synchronise around it, exactly as the paper's
// processes must.

// hostIsBig reports the host byte order, decided once at init.
var hostIsBig = func() bool {
	var probe uint16 = 1
	return *(*byte)(unsafe.Pointer(&probe)) == 0
}()

// beWord converts between guest big-endian and host byte order (the
// conversion is its own inverse).
func beWord(v uint32) uint32 {
	if hostIsBig {
		return v
	}
	return bits.ReverseBytes32(v)
}

// wordPtr returns the aligned 32-bit host word covering frame offset off.
// Frame.Data opens a heap-allocated struct, so it is at least 8-byte
// aligned and every 4-aligned offset is atomically accessible.
func (f *Frame) wordPtr(off uint32) *uint32 {
	return (*uint32)(unsafe.Pointer(&f.Data[off&(PageSize-1)&^3]))
}

// LoadWordBE atomically loads the guest word at the aligned frame offset.
func (f *Frame) LoadWordBE(off uint32) uint32 {
	return beWord(atomic.LoadUint32(f.wordPtr(off)))
}

// StoreWordBE atomically stores the guest word at the aligned frame offset,
// then notes the store (see NoteStoreRange).
func (f *Frame) StoreWordBE(off, v uint32) {
	atomic.StoreUint32(f.wordPtr(off), beWord(v))
	f.NoteStoreRange(off&(PageSize-1)&^3, 4)
}

// SwapWordBE atomically exchanges the guest word at the aligned frame
// offset, returning the previous value. This is the test-and-set primitive:
// the host atomic supplies both the atomicity and the acquire/release
// ordering guest spin locks need.
func (f *Frame) SwapWordBE(off, v uint32) uint32 {
	prev := atomic.SwapUint32(f.wordPtr(off), beWord(v))
	f.NoteStoreRange(off&(PageSize-1)&^3, 4)
	return beWord(prev)
}

// CompareAndSwapWordBE atomically replaces old with new at the aligned
// frame offset, reporting whether the swap happened. A failed swap wrote
// nothing, so only a successful one is noted.
func (f *Frame) CompareAndSwapWordBE(off, old, new uint32) bool {
	if !atomic.CompareAndSwapUint32(f.wordPtr(off), beWord(old), beWord(new)) {
		return false
	}
	f.NoteStoreRange(off&(PageSize-1)&^3, 4)
	return true
}

// AddWordBE atomically adds delta to the guest word at the aligned frame
// offset and returns the new value. The add happens in guest byte order, so
// it is a CAS loop rather than a host atomic add; the store is noted once,
// after the CAS that landed it.
func (f *Frame) AddWordBE(off, delta uint32) uint32 {
	p := f.wordPtr(off)
	for {
		o := atomic.LoadUint32(p)
		n := beWord(o) + delta
		if atomic.CompareAndSwapUint32(p, o, beWord(n)) {
			f.NoteStoreRange(off&(PageSize-1)&^3, 4)
			return n
		}
	}
}
