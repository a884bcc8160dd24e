// Stable linking: a persistent, content-addressed link cache.
//
// The key observation (ROADMAP: "launch O(1)") is that for a given program
// the linker does exactly the same work on every launch — the same modules
// come in, the same symbols resolve to the same public addresses, the same
// words get patched. The cache records that work once, keyed by a content
// hash over the whole module set (image bytes + search strategy + uid +
// environment), and replays it on repeat launches as a bulk application of
// pre-resolved patch words.
//
// Layout: one file per launch key under /var/ldl/cache/<key-hex>, holding a
// manifest of template fingerprints (shmfs.ContentVersion) plus a list of
// recorded events. An event is either "start" (the image-relocation work of
// Start, across every pass made while modules come in) or "link:<...>" (one
// lazy LinkModule). Replay applies the recorded stores, restores the
// bookkeeping (pending lists by index into the pre-event baseline,
// trampoline cursor, stat deltas) and falls back to cold linking whenever a
// guard detects that world state diverged from the recording.
//
// Invalidation: a probe re-fingerprints every template in the manifest; any
// mismatch (a module changed in place) unlinks the cache file, bumps
// ldl.linkcache_invalidate, and drops the zygote template registered under
// the same key — zygote validity IS cache-entry validity.
//
// Cache files are allocated from the top of the inode table (CreateTop):
// slot numbers determine public segment addresses, so cache traffic must
// not disturb the low-slot allocation sequence that a cache-less world
// would produce.
package ldl

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"hemlock/internal/linker"
	"hemlock/internal/objfile"
	"hemlock/internal/obsv"
	"hemlock/internal/shmfs"
)

// CacheDir is where link-cache entries live in the shared file system.
const CacheDir = "/var/ldl/cache"

// CacheMagic heads every encoded cache entry.
const CacheMagic = "HLC1"

const eventStart = "start"

var errCacheCorrupt = errors.New("ldl: corrupt link-cache entry")

// linkEventKey names the recorded event for linking one module instance.
// The base address is part of the key: private instances of the same
// template under different parents are distinct events.
func linkEventKey(in *Instance) string {
	return fmt.Sprintf("link:%s:%s:%08x", in.Class, in.Name, in.Base)
}

// ---- entry structure -------------------------------------------------------

type cacheDep struct {
	path string
	cv   uint64
}

type cacheStore struct {
	file bool   // patched through the shared file (public) vs the AS
	path string // instance path for file stores; "" for AS stores
	addr uint32 // file offset for file stores; virtual address otherwise
	val  uint32
}

// cacheEvent is one recorded unit of linker work. All fields are immutable
// once done is set; the entry lock guards visibility.
type cacheEvent struct {
	key    string
	stores []cacheStore

	pendBase int      // len of the module pending list at event begin (guard)
	pendKeep []uint32 // indices into that baseline that remain after

	imageBase int      // len of pr.imagePend at event begin (guard)
	imageKeep []uint32 // indices into that baseline that remain after

	trampStart uint32 // pr.trampNext at begin (replay-order guard)
	trampNext  uint32 // pr.trampNext after

	relocs int // delta to Stats.RelocsApplied
	lazy   int // delta to Stats.LazyLinks

	done bool
}

// cacheEntry is one launch key's recorded linker work. A cold process
// records into it while zygote clones may already be replaying from it, so
// the events map is guarded; events are only returned once complete.
type cacheEntry struct {
	key string

	mu          sync.Mutex
	deps        []cacheDep
	events      map[string]*cacheEvent
	order       []string
	startMapped int // instances mapped during Start (zygote stat credit)
	size        int // encoded size last written (gauge delta bookkeeping)
}

func newCacheEntry(key string) *cacheEntry {
	return &cacheEntry{key: key, events: map[string]*cacheEvent{}}
}

func (e *cacheEntry) get(key string) *cacheEvent {
	e.mu.Lock()
	defer e.mu.Unlock()
	ev := e.events[key]
	if ev == nil || !ev.done {
		return nil
	}
	return ev
}

func (e *cacheEntry) put(ev *cacheEvent) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.events[ev.key]; !dup {
		e.order = append(e.order, ev.key)
	}
	e.events[ev.key] = ev
}

// ---- launch key ------------------------------------------------------------

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}

func fnvStr(h uint64, s string) uint64 {
	h = fnvU32(h, uint32(len(s)))
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

func fnvU32(h uint64, v uint32) uint64 {
	for s := 24; s >= 0; s -= 8 {
		h = (h ^ uint64(byte(v>>s))) * fnvPrime
	}
	return h
}

func fnvU64(h uint64, v uint64) uint64 {
	for s := 56; s >= 0; s -= 8 {
		h = (h ^ uint64(byte(v>>s))) * fnvPrime
	}
	return h
}

// imageHash fingerprints every field of the load image that influences
// linking. Memoized by image identity: decoded images are immutable, and
// launch benchmarks re-launch the same *Image thousands of times.
func (w *World) imageHash(im *objfile.Image) uint64 {
	w.cmu.Lock()
	if h, ok := w.keyMemo[im]; ok {
		w.cmu.Unlock()
		return h
	}
	w.cmu.Unlock()

	h := uint64(fnvOffset)
	h = fnvStr(h, im.Name)
	h = fnvU32(h, im.Entry)
	h = fnvU32(h, im.TextBase)
	h = fnvBytes(h, im.Text)
	h = fnvU32(h, im.DataBase)
	h = fnvBytes(h, im.Data)
	h = fnvU32(h, im.BssBase)
	h = fnvU32(h, im.BssSize)
	h = fnvU32(h, im.TrampBase)
	h = fnvU32(h, im.TrampSize)
	for _, s := range im.Symbols {
		h = fnvStr(h, s.Name)
		h = fnvU32(h, s.Addr)
		h = fnvU32(h, s.Size)
	}
	for _, r := range im.Relocs {
		h = fnvU32(h, r.Addr)
		h = fnvStr(h, r.Name)
		h = fnvU32(h, uint32(r.Type))
		h = fnvU32(h, uint32(r.Addend))
	}
	d := &im.Dyn
	for _, m := range d.DynModules {
		h = fnvStr(h, m.Name)
		h = fnvU32(h, uint32(m.Class))
	}
	for _, sp := range d.StaticPublic {
		h = fnvStr(h, sp.Name)
		h = fnvStr(h, sp.Path)
		h = fnvStr(h, sp.Template)
		h = fnvU32(h, sp.Addr)
	}
	h = fnvStr(h, d.LinkDir)
	for _, p := range d.CmdPath {
		h = fnvStr(h, p)
	}
	for _, p := range d.EnvPath {
		h = fnvStr(h, p)
	}
	for _, p := range d.DefaultPath {
		h = fnvStr(h, p)
	}
	for _, s := range im.PLT {
		h = fnvStr(h, s.Name)
		h = fnvU32(h, s.Addr)
		h = fnvU32(h, s.Size)
	}

	w.cmu.Lock()
	w.keyMemo[im] = h
	w.cmu.Unlock()
	return h
}

// LaunchKey derives the cache key for launching im as uid with env: the
// image content hash mixed with the launch identity, hex-encoded. Identical
// keys mean the linker would do identical work.
func (w *World) LaunchKey(im *objfile.Image, uid int, env map[string]string) string {
	h := w.imageHash(im)
	h = fnvU32(h, uint32(uid))
	if len(env) > 0 {
		keys := make([]string, 0, len(env))
		for k := range env {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			h = fnvStr(h, k)
			h = fnvStr(h, env[k])
		}
	}
	const hex = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hex[h&0xf]
		h >>= 4
	}
	return string(b[:])
}

// CacheValid probes the persistent cache for key and reports whether a
// valid entry exists (counting a hit or miss, and invalidating a stale
// entry — and its zygote — as a side effect). Zygote validity IS cache
// validity: core checks this before cloning a template.
func (w *World) CacheValid(key string) bool {
	return w.probeCache(key) != nil
}

// CreditZygoteLaunch charges the linker work a zygote clone inherited from
// its template — modules mapped and relocations applied during Start — to
// the world stats, so metrics read identically in warm and cold worlds.
func (w *World) CreditZygoteLaunch(key string) {
	w.cmu.Lock()
	entry := w.entryMemo[key]
	w.cmu.Unlock()
	if entry == nil {
		return
	}
	entry.mu.Lock()
	mapped := entry.startMapped
	entry.mu.Unlock()
	var relocs, lazy int
	if ev := entry.get(eventStart); ev != nil {
		relocs, lazy = ev.relocs, ev.lazy
	}
	w.mu.Lock()
	w.Stats.ModulesMapped += mapped
	w.Stats.RelocsApplied += relocs
	w.Stats.LazyLinks += lazy
	w.mu.Unlock()
	w.ctrMapped.Add(uint64(mapped))
	w.ctrRelocs.Add(uint64(relocs))
	if lazy > 0 {
		w.ctrLazy.Add(uint64(lazy))
	}
}

// SetStableLinking flips the cache and zygote toggles. Zygote templates are
// keyed and validated by cache entries, so enabling zygotes enables the
// cache too.
func (w *World) SetStableLinking(cache, zygote bool) {
	if zygote {
		cache = true
	}
	w.CacheEnabled = cache
	w.ZygoteEnabled = zygote
}

// ---- probe / invalidate ----------------------------------------------------

func cachePath(key string) string { return CacheDir + "/" + key }

// probeCache looks the key up in the persistent cache and validates it.
// Returns the decoded entry on a hit; on any failure — no file, corrupt
// bytes, or a manifest fingerprint mismatch (a module changed in place) —
// it returns nil, invalidating a bad entry as a side effect.
func (w *World) probeCache(key string) *cacheEntry {
	path := cachePath(key)
	cv, err := w.K.FS.ContentVersion(path)
	if err != nil {
		// Never recorded: a plain miss.
		w.ctrCMiss.Inc()
		return nil
	}

	// The decoded-entry memo is gated by the cache file's own fingerprint:
	// if anything rewrote the bytes (including corruption), re-decode.
	w.cmu.Lock()
	entry, known := w.entryMemo[key]
	mcv := w.memoCV[key]
	w.cmu.Unlock()
	if !known || mcv != cv {
		data, rerr := w.K.FS.ReadFile(path, 0)
		if rerr != nil {
			w.invalidate(key)
			return nil
		}
		entry, rerr = decodeCache(data)
		if rerr != nil || entry.key != key {
			w.invalidate(key)
			return nil
		}
		entry.size = len(data)
		w.cmu.Lock()
		w.entryMemo[key] = entry
		w.memoCV[key] = cv
		w.cmu.Unlock()
	}

	// Manifest check: every template must fingerprint as recorded.
	entry.mu.Lock()
	deps := append([]cacheDep(nil), entry.deps...)
	entry.mu.Unlock()
	for _, d := range deps {
		cur, derr := w.K.FS.ContentVersion(d.path)
		if derr != nil || cur != d.cv {
			w.invalidate(key)
			return nil
		}
	}
	w.ctrCHit.Inc()
	return entry
}

// invalidate removes a cache entry — file, memo, gauge accounting — and
// drops the zygote template parked under the same key: a clone of a
// template whose recording is stale would replay stale patches.
func (w *World) invalidate(key string) {
	path := cachePath(key)
	if st, err := w.K.FS.StatPath(path); err == nil {
		w.gCacheBytes.Add(-int64(st.Size))
		w.K.FS.Unlink(path, 0)
	}
	w.cmu.Lock()
	delete(w.entryMemo, key)
	delete(w.memoCV, key)
	w.cmu.Unlock()
	w.K.DropZygote(key)
	w.ctrCInval.Inc()
}

// noteDep adds a template path to the manifest the recording process will
// persist. No-op unless this process is the recorder.
func (pr *Proc) noteDep(path string) {
	if pr.cdeps != nil {
		pr.cdeps[path] = true
	}
}

// ---- recording -------------------------------------------------------------

// openEvent is the in-flight recording state between beginEvent/endEvent.
type openEvent struct {
	ev        *cacheEvent
	basePend  []objfile.Reloc
	baseImage []objfile.ImageReloc
	relocs0   int
	lazy0     int
}

// beginEvent opens a recorded event. No-op unless this process is the cache
// recorder (events never nest: Start's event is the only one open while
// modules come in, and no guest code — hence no lazy link — runs then).
func (pr *Proc) beginEvent(key string, pending []objfile.Reloc) {
	if pr.crec == nil || pr.cev != nil {
		return
	}
	pr.cev = &openEvent{
		ev: &cacheEvent{
			key:        key,
			pendBase:   len(pending),
			imageBase:  len(pr.imagePend),
			trampStart: pr.trampNext,
		},
		basePend:  append([]objfile.Reloc(nil), pending...),
		baseImage: append([]objfile.ImageReloc(nil), pr.imagePend...),
		relocs0:   pr.statRelocs,
		lazy0:     pr.statLazy,
	}
}

// endEvent closes the open event, computes the post-state deltas, and
// writes the entry through to the cache file.
func (pr *Proc) endEvent(pendLeft []objfile.Reloc) {
	oe := pr.cev
	if oe == nil {
		return
	}
	pr.cev = nil
	ev := oe.ev

	keep, ok := relocKeep(oe.basePend, pendLeft)
	if !ok {
		return // baseline diverged mid-event; drop the recording
	}
	ev.pendKeep = keep
	ikeep, ok := imageKeep(oe.baseImage, pr.imagePend)
	if !ok {
		return
	}
	ev.imageKeep = ikeep
	ev.trampNext = pr.trampNext
	ev.relocs = pr.statRelocs - oe.relocs0
	ev.lazy = pr.statLazy - oe.lazy0
	ev.done = true

	if ev.key == eventStart {
		pr.crec.mu.Lock()
		pr.crec.startMapped = len(pr.instances)
		pr.crec.mu.Unlock()
	}
	pr.crec.put(ev)
	pr.writeCache()
}

// relocKeep maps the surviving pending list back to indices into the
// pre-event baseline. Resolution preserves order, so the survivors are a
// subsequence; two-pointer matching finds them.
func relocKeep(base, left []objfile.Reloc) ([]uint32, bool) {
	keep := make([]uint32, 0, len(left))
	j := 0
	for _, r := range left {
		for j < len(base) && base[j] != r {
			j++
		}
		if j == len(base) {
			return nil, false
		}
		keep = append(keep, uint32(j))
		j++
	}
	return keep, true
}

func imageKeep(base, left []objfile.ImageReloc) ([]uint32, bool) {
	keep := make([]uint32, 0, len(left))
	j := 0
	for _, r := range left {
		for j < len(base) && base[j] != r {
			j++
		}
		if j == len(base) {
			return nil, false
		}
		keep = append(keep, uint32(j))
		j++
	}
	return keep, true
}

// recordingPatcher wraps a patcher so every store lands in the open event
// as well. file=true marks stores that went through the shared file (and
// records which file). Pass-through when nothing is recording.
func (pr *Proc) recordingPatcher(pat linker.Patcher, file bool) linker.Patcher {
	if pr.cev == nil {
		return pat
	}
	rp := &recPatcher{pat: pat, pr: pr, file: file}
	if file {
		if fp, ok := pat.(*filePatcher); ok {
			rp.path = fp.path
			rp.base = fp.base
		}
	}
	return rp
}

type recPatcher struct {
	pat  linker.Patcher
	pr   *Proc
	file bool
	path string
	base uint32
}

func (rp *recPatcher) LoadWord(addr uint32) (uint32, error) { return rp.pat.LoadWord(addr) }

func (rp *recPatcher) StoreWord(addr, val uint32) error {
	if err := rp.pat.StoreWord(addr, val); err != nil {
		return err
	}
	if oe := rp.pr.cev; oe != nil {
		// File stores are recorded as (path, offset) so replay is
		// independent of where this process happened to map the segment.
		rec := addr
		if rp.file {
			rec = addr - rp.base
		}
		oe.ev.stores = append(oe.ev.stores, cacheStore{file: rp.file, path: rp.path, addr: rec, val: val})
	}
	return nil
}

// writeCache persists the recording entry. The file is top-allocated so
// cache traffic cannot disturb the low-slot inode sequence that determines
// public segment addresses. All cache-infrastructure I/O runs as uid 0.
func (pr *Proc) writeCache() {
	w := pr.W
	entry := pr.crec

	// Snapshot the manifest: every template this launch read, fingerprinted
	// now (post-link, so instance creation traffic is settled).
	var deps []cacheDep
	paths := make([]string, 0, len(pr.cdeps))
	for p := range pr.cdeps {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		cv, err := w.K.FS.ContentVersion(p)
		if err != nil {
			continue
		}
		deps = append(deps, cacheDep{path: p, cv: cv})
	}
	entry.mu.Lock()
	entry.deps = deps
	data := encodeCache(entry)
	oldSize := entry.size
	entry.size = len(data)
	entry.mu.Unlock()

	fs := w.K.FS
	path := cachePath(entry.key)
	if _, err := fs.StatPath(path); err != nil {
		if err := fs.MkdirAllTop(CacheDir, shmfs.DefaultDirMode, 0); err != nil {
			return
		}
		if _, err := fs.CreateTop(path, shmfs.DefaultFileMode, 0); err != nil {
			return
		}
	}
	if err := fs.WriteFile(path, data, shmfs.DefaultFileMode, 0); err != nil {
		return
	}
	w.gCacheBytes.Add(int64(len(data) - oldSize))

	// Refresh the memo so the next probe skips the decode.
	cv, err := fs.ContentVersion(path)
	if err != nil {
		return
	}
	w.cmu.Lock()
	w.entryMemo[entry.key] = entry
	w.memoCV[entry.key] = cv
	w.cmu.Unlock()
}

// ---- replay ----------------------------------------------------------------

// lookupEvent returns a completed recorded event from the entry this
// process replays from, or nil.
func (pr *Proc) lookupEvent(key string) *cacheEvent {
	if pr.centry == nil {
		return nil
	}
	return pr.centry.get(key)
}

// applyStores replays the recorded patch words. File stores compare before
// writing: rewriting identical bytes would bump the instance's frame
// versions and make later manifests look stale for no reason.
func (pr *Proc) applyStores(stores []cacheStore) error {
	fs := pr.W.K.FS
	for _, s := range stores {
		if s.file {
			var b [4]byte
			if _, err := fs.ReadAt(s.path, s.addr, b[:], 0); err == nil {
				cur := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
				if cur == s.val {
					continue
				}
			}
			b = [4]byte{byte(s.val >> 24), byte(s.val >> 16), byte(s.val >> 8), byte(s.val)}
			if _, err := fs.WriteAt(s.path, s.addr, b[:], 0); err != nil {
				return err
			}
		} else {
			if err := pr.P.AS.StoreWord(s.addr, s.val); err != nil {
				return err
			}
		}
	}
	return nil
}

// applyReplayStats credits the replayed work to the world counters exactly
// as the cold path would have, so warm and cold worlds agree on Stats.
func (pr *Proc) applyReplayStats(ev *cacheEvent) {
	pr.addLinkStats(ev.relocs, ev.lazy)
}

// replayStart replays the recorded "start" event: everything
// resolveImageRelocs did across the whole of Start, as one bulk patch.
// Returns false (cold fallback) if the world diverged from the recording.
func (pr *Proc) replayStart(ev *cacheEvent) (bool, error) {
	if len(pr.imagePend) != ev.imageBase || pr.trampNext > ev.trampStart {
		return false, nil
	}
	if err := pr.applyStores(ev.stores); err != nil {
		return false, err
	}
	left := make([]objfile.ImageReloc, 0, len(ev.imageKeep))
	for _, i := range ev.imageKeep {
		left = append(left, pr.imagePend[i])
	}
	pr.W.addImageRelocs(len(left) - len(pr.imagePend))
	pr.imagePend = left
	if ev.trampNext > pr.trampNext {
		pr.trampNext = ev.trampNext
	}
	pr.applyReplayStats(ev)
	pr.W.emit(obsv.Event{Name: "cache_replay", PID: pr.P.PID, Mod: eventStart, Val: uint64(len(ev.stores))})
	return true, nil
}

// replayLink replays one recorded LinkModule. Dependencies are still
// brought in for real (mapping and laziness must be genuine — a clone may
// fault them later), but resolution and patching collapse into the
// recorded stores.
func (pr *Proc) replayLink(in *Instance, ev *cacheEvent) (bool, error) {
	pending := pr.pendingOf(in)
	if len(pending) != ev.pendBase || len(pr.imagePend) != ev.imageBase {
		return false, nil
	}
	// Guard against out-of-order replay colliding with trampolines already
	// allocated: the event's trampoline range starts at its recorded cursor.
	if pr.trampNext > ev.trampStart {
		return false, nil
	}

	pr.suppressImage = true
	err := pr.loadDeps(in)
	pr.suppressImage = false
	if err != nil {
		return false, err
	}
	if err := pr.applyStores(ev.stores); err != nil {
		return false, err
	}

	left := make([]objfile.Reloc, 0, len(ev.pendKeep))
	for _, i := range ev.pendKeep {
		left = append(left, pending[i])
	}
	if in.sh != nil {
		in.sh.pending = left
		in.sh.linked.Store(len(left) == 0)
	} else {
		in.pending = left
		in.linked = len(left) == 0
	}

	ileft := make([]objfile.ImageReloc, 0, len(ev.imageKeep))
	for _, i := range ev.imageKeep {
		ileft = append(ileft, pr.imagePend[i])
	}
	pr.W.addImageRelocs(len(ileft) - len(pr.imagePend))
	pr.imagePend = ileft
	if ev.trampNext > pr.trampNext {
		pr.trampNext = ev.trampNext
	}
	pr.applyReplayStats(ev)
	pr.W.emit(obsv.Event{Name: "cache_replay", PID: pr.P.PID, Mod: ev.key, Val: uint64(len(ev.stores))})
	return true, nil
}

// ---- codec -----------------------------------------------------------------

type cacheEnc struct{ b []byte }

func (e *cacheEnc) u8(v byte)    { e.b = append(e.b, v) }
func (e *cacheEnc) u16(v uint16) { e.b = append(e.b, byte(v>>8), byte(v)) }
func (e *cacheEnc) u32(v uint32) {
	e.b = append(e.b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
func (e *cacheEnc) u64(v uint64) {
	e.u32(uint32(v >> 32))
	e.u32(uint32(v))
}
func (e *cacheEnc) str(s string) {
	e.u16(uint16(len(s)))
	e.b = append(e.b, s...)
}

// encodeCache serialises an entry. Caller holds entry.mu.
func encodeCache(e *cacheEntry) []byte {
	enc := &cacheEnc{}
	enc.b = append(enc.b, CacheMagic...)
	enc.str(e.key)
	enc.u32(uint32(len(e.deps)))
	for _, d := range e.deps {
		enc.str(d.path)
		enc.u64(d.cv)
	}
	enc.u32(uint32(e.startMapped))
	var done []*cacheEvent
	for _, k := range e.order {
		if ev := e.events[k]; ev != nil && ev.done {
			done = append(done, ev)
		}
	}
	enc.u32(uint32(len(done)))
	for _, ev := range done {
		enc.str(ev.key)
		enc.u32(uint32(len(ev.stores)))
		for _, s := range ev.stores {
			kind := byte(0)
			if s.file {
				kind = 1
			}
			enc.u8(kind)
			enc.str(s.path)
			enc.u32(s.addr)
			enc.u32(s.val)
		}
		enc.u32(uint32(ev.pendBase))
		enc.u32(uint32(len(ev.pendKeep)))
		for _, i := range ev.pendKeep {
			enc.u32(i)
		}
		enc.u32(uint32(ev.imageBase))
		enc.u32(uint32(len(ev.imageKeep)))
		for _, i := range ev.imageKeep {
			enc.u32(i)
		}
		enc.u32(ev.trampStart)
		enc.u32(ev.trampNext)
		enc.u32(uint32(ev.relocs))
		enc.u32(uint32(ev.lazy))
	}
	return enc.b
}

type cacheDec struct {
	b   []byte
	off int
	err bool
}

func (d *cacheDec) u8() byte {
	if d.off+1 > len(d.b) {
		d.err = true
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}
func (d *cacheDec) u16() uint16 {
	if d.off+2 > len(d.b) {
		d.err = true
		return 0
	}
	v := uint16(d.b[d.off])<<8 | uint16(d.b[d.off+1])
	d.off += 2
	return v
}
func (d *cacheDec) u32() uint32 {
	if d.off+4 > len(d.b) {
		d.err = true
		return 0
	}
	v := uint32(d.b[d.off])<<24 | uint32(d.b[d.off+1])<<16 | uint32(d.b[d.off+2])<<8 | uint32(d.b[d.off+3])
	d.off += 4
	return v
}
func (d *cacheDec) u64() uint64 {
	hi := d.u32()
	lo := d.u32()
	return uint64(hi)<<32 | uint64(lo)
}
func (d *cacheDec) str() string {
	n := int(d.u16())
	if d.err || d.off+n > len(d.b) {
		d.err = true
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}
func (d *cacheDec) count(max int) int {
	n := int(d.u32())
	if n < 0 || n > max {
		d.err = true
		return 0
	}
	return n
}

// decodeCache parses an encoded entry, rejecting anything malformed: a
// corrupt cache file must read as "no cache", never as wrong patches.
func decodeCache(data []byte) (*cacheEntry, error) {
	if len(data) < len(CacheMagic) || string(data[:len(CacheMagic)]) != CacheMagic {
		return nil, errCacheCorrupt
	}
	d := &cacheDec{b: data, off: len(CacheMagic)}
	e := newCacheEntry(d.str())
	nd := d.count(1 << 16)
	for i := 0; i < nd && !d.err; i++ {
		dep := cacheDep{path: d.str(), cv: d.u64()}
		e.deps = append(e.deps, dep)
	}
	e.startMapped = int(d.u32())
	ne := d.count(1 << 16)
	for i := 0; i < ne && !d.err; i++ {
		ev := &cacheEvent{key: d.str()}
		ns := d.count(1 << 22)
		for j := 0; j < ns && !d.err; j++ {
			s := cacheStore{file: d.u8() == 1, path: d.str(), addr: d.u32(), val: d.u32()}
			ev.stores = append(ev.stores, s)
		}
		ev.pendBase = int(d.u32())
		np := d.count(1 << 20)
		for j := 0; j < np && !d.err; j++ {
			ev.pendKeep = append(ev.pendKeep, d.u32())
		}
		ev.imageBase = int(d.u32())
		ni := d.count(1 << 20)
		for j := 0; j < ni && !d.err; j++ {
			ev.imageKeep = append(ev.imageKeep, d.u32())
		}
		ev.trampStart = d.u32()
		ev.trampNext = d.u32()
		ev.relocs = int(d.u32())
		ev.lazy = int(d.u32())
		// Indices must address the baselines they claim.
		for _, k := range ev.pendKeep {
			if int(k) >= ev.pendBase {
				d.err = true
			}
		}
		for _, k := range ev.imageKeep {
			if int(k) >= ev.imageBase {
				d.err = true
			}
		}
		if d.err {
			break
		}
		ev.done = true
		e.put(ev)
	}
	if d.err || d.off != len(data) {
		return nil, errCacheCorrupt
	}
	return e, nil
}

// ---- inspection (doctor) ----------------------------------------------------

// CacheDepInfo is one manifest line of a persisted cache entry: the module
// template it was recorded against and how the on-disk state compares now.
type CacheDepInfo struct {
	Path     string
	Recorded uint64 // content fingerprint at record time
	Current  uint64 // content fingerprint now (0 when missing)
	Missing  bool   // template no longer on disk (orphaned entry)
	Stale    bool   // template bytes changed since recording
}

// CacheEntryInfo describes one file under CacheDir for the doctor
// self-checks: either a decoded entry with its dependency manifest, or a
// corrupt one (Err != nil).
type CacheEntryInfo struct {
	Path string // cache file path
	Key  string // content-hash key (file name); decoded key must match
	Err  error  // non-nil: undecodable or mis-keyed (corrupt)
	Deps []CacheDepInfo
}

// InspectCache decodes every link-cache entry on fs without touching the
// cache itself: no invalidation, no counters — pure diagnosis for doctor.
func InspectCache(fs *shmfs.FS) []CacheEntryInfo {
	ents, err := fs.ReadDir(CacheDir)
	if err != nil {
		return nil // no cache directory: nothing to inspect
	}
	var out []CacheEntryInfo
	for _, de := range ents {
		if de.Type == shmfs.TypeDir {
			continue
		}
		info := CacheEntryInfo{Path: CacheDir + "/" + de.Name, Key: de.Name}
		data, rerr := fs.ReadFile(info.Path, 0)
		if rerr != nil {
			info.Err = rerr
			out = append(out, info)
			continue
		}
		entry, derr := decodeCache(data)
		switch {
		case derr != nil:
			info.Err = derr
		case entry.key != de.Name:
			info.Err = fmt.Errorf("ldl: cache entry keyed %q stored as %q", entry.key, de.Name)
		default:
			for _, d := range entry.deps {
				di := CacheDepInfo{Path: d.path, Recorded: d.cv}
				cur, cerr := fs.ContentVersion(d.path)
				if cerr != nil {
					di.Missing = true
				} else {
					di.Current = cur
					di.Stale = cur != d.cv
				}
				info.Deps = append(info.Deps, di)
			}
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}
