package mem

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"hemlock/internal/obsv"
)

func TestAllocZeroed(t *testing.T) {
	p := NewPhysical(0)
	f, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range f.Data {
		if b != 0 {
			t.Fatalf("byte %d not zero: %d", i, b)
		}
	}
	if f.Refs() != 1 {
		t.Fatalf("fresh frame refs = %d, want 1", f.Refs())
	}
}

func TestAllocDistinctPFNs(t *testing.T) {
	p := NewPhysical(0)
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		f, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if seen[f.PFN()] {
			t.Fatalf("duplicate PFN %d", f.PFN())
		}
		seen[f.PFN()] = true
	}
}

func TestLimitEnforced(t *testing.T) {
	p := NewPhysical(2)
	a, _ := p.Alloc()
	b, _ := p.Alloc()
	if _, err := p.Alloc(); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("expected ErrOutOfMemory, got %v", err)
	}
	a.Release()
	c, err := p.Alloc()
	if err != nil {
		t.Fatalf("alloc after release failed: %v", err)
	}
	b.Release()
	c.Release()
	if st := p.Stats(); st.Live != 0 {
		t.Fatalf("live = %d after releasing all, want 0", st.Live)
	}
}

func TestAllocNRollsBackOnFailure(t *testing.T) {
	p := NewPhysical(3)
	if _, err := p.AllocN(5); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("expected ErrOutOfMemory, got %v", err)
	}
	if st := p.Stats(); st.Live != 0 {
		t.Fatalf("partial allocation leaked %d frames", st.Live)
	}
	fs, err := p.AllocN(3)
	if err != nil {
		t.Fatalf("AllocN within limit failed: %v", err)
	}
	if len(fs) != 3 {
		t.Fatalf("got %d frames, want 3", len(fs))
	}
}

func TestRetainRelease(t *testing.T) {
	p := NewPhysical(0)
	f, _ := p.Alloc()
	f.Retain()
	f.Retain()
	if f.Refs() != 3 {
		t.Fatalf("refs = %d, want 3", f.Refs())
	}
	f.Release()
	f.Release()
	if st := p.Stats(); st.Live != 1 {
		t.Fatalf("live = %d, want 1 (still one ref held)", st.Live)
	}
	f.Release()
	if st := p.Stats(); st.Live != 0 {
		t.Fatalf("live = %d, want 0", st.Live)
	}
}

func TestReleasePanicsWhenOverReleased(t *testing.T) {
	p := NewPhysical(0)
	f, _ := p.Alloc()
	f.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double release")
		}
	}()
	f.Release()
}

func TestCopyIndependence(t *testing.T) {
	p := NewPhysical(0)
	f, _ := p.Alloc()
	f.Data[17] = 0xAB
	g, err := f.Copy()
	if err != nil {
		t.Fatal(err)
	}
	if g.Data[17] != 0xAB {
		t.Fatal("copy did not preserve contents")
	}
	g.Data[17] = 0xCD
	if f.Data[17] != 0xAB {
		t.Fatal("copy aliases original")
	}
}

func TestStatsCounters(t *testing.T) {
	p := NewPhysical(0)
	f, _ := p.Alloc()
	g, _ := p.Alloc()
	f.Release()
	g.Release()
	st := p.Stats()
	if st.Allocs != 2 || st.Frees != 2 {
		t.Fatalf("allocs=%d frees=%d, want 2/2", st.Allocs, st.Frees)
	}
}

// Property: for any sequence of extra retains, it takes exactly retains+1
// releases to free the frame.
func TestRefCountProperty(t *testing.T) {
	p := NewPhysical(0)
	f := func(extra uint8) bool {
		fr, err := p.Alloc()
		if err != nil {
			return false
		}
		n := int(extra % 16)
		for i := 0; i < n; i++ {
			fr.Retain()
		}
		for i := 0; i < n; i++ {
			fr.Release()
			if fr.Refs() != n-i {
				return false
			}
		}
		fr.Release()
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDirtyWatermarkUntrackedIsFree(t *testing.T) {
	p := NewPhysical(0)
	f, _ := p.Alloc()
	f.NoteStoreRange(10, 5)
	if _, _, ok := f.TakeDirtyRange(); ok {
		t.Fatal("untracked frame recorded a dirty range")
	}
}

func TestDirtyWatermarkMergesRanges(t *testing.T) {
	p := NewPhysical(0)
	f, _ := p.Alloc()
	f.SetTracked(true)
	f.NoteStoreRange(100, 4)
	f.NoteStoreRange(8, 2)
	f.NoteStoreRange(50, 1)
	lo, end, ok := f.TakeDirtyRange()
	if !ok || lo != 8 || end != 104 {
		t.Fatalf("got [%d,%d) ok=%v, want [8,104) true", lo, end, ok)
	}
	if _, _, ok := f.TakeDirtyRange(); ok {
		t.Fatal("take did not reset the watermark")
	}
	// Word writers feed the watermark too.
	f.StoreWordBE(256, 1)
	f.AddWordBE(12, 1)
	lo, end, ok = f.TakeDirtyRange()
	if !ok || lo != 12 || end != 260 {
		t.Fatalf("word writers: got [%d,%d) ok=%v, want [12,260) true", lo, end, ok)
	}
	f.SetTracked(false)
	f.NoteStoreRange(0, 4)
	if _, _, ok := f.TakeDirtyRange(); ok {
		t.Fatal("disabling tracking did not stop recording")
	}
}

// Property: under concurrent writers the merged watermark covers every
// byte any writer touched (it may be wider, never narrower).
func TestDirtyWatermarkNeverUnderReports(t *testing.T) {
	p := NewPhysical(0)
	f, _ := p.Alloc()
	f.SetTracked(true)
	const writers = 8
	done := make(chan [2]uint32, writers)
	for i := 0; i < writers; i++ {
		go func(i int) {
			lo := uint32(i * 64)
			f.NoteStoreRange(lo, 16)
			done <- [2]uint32{lo, lo + 16}
		}(i)
	}
	wantLo, wantEnd := uint32(PageSize), uint32(0)
	for i := 0; i < writers; i++ {
		r := <-done
		if r[0] < wantLo {
			wantLo = r[0]
		}
		if r[1] > wantEnd {
			wantEnd = r[1]
		}
	}
	lo, end, ok := f.TakeDirtyRange()
	if !ok || lo > wantLo || end < wantEnd {
		t.Fatalf("watermark [%d,%d) ok=%v under-reports [%d,%d)", lo, end, ok, wantLo, wantEnd)
	}
}

func TestStoreToUnobservedFrameLeavesVersion(t *testing.T) {
	p := NewPhysical(0)
	f, _ := p.Alloc()
	f.StoreWordBE(0, 1)
	f.SwapWordBE(4, 2)
	f.CompareAndSwapWordBE(8, 0, 3)
	f.AddWordBE(12, 4)
	f.Data[16] = 5
	f.NoteStoreRange(16, 1)
	if v := f.ver.Load(); v != 0 {
		t.Fatalf("stores to a never-read frame bumped the version to %d", v)
	}
	if fl := f.flags.Load(); fl != 0 {
		t.Fatalf("stores set flags %#x", fl)
	}
}

func TestStoreToObservedFrameBumpsVersion(t *testing.T) {
	p := NewPhysical(0)
	f, _ := p.Alloc()
	f.Version()
	stores := []struct {
		name  string
		store func()
	}{
		{"word", func() { f.StoreWordBE(0, 1) }},
		{"byte", func() { f.Data[5] = 1; f.NoteStoreRange(5, 1) }},
		{"swap", func() { f.SwapWordBE(8, 1) }},
		{"cas", func() { f.CompareAndSwapWordBE(12, 0, 1) }},
		{"add", func() { f.AddWordBE(16, 1) }},
	}
	for _, s := range stores {
		v := f.Version()
		s.store()
		if got := f.Version(); got != v+1 {
			t.Errorf("%s store: version %d -> %d, want one bump", s.name, v, got)
		}
	}
	// A failed CAS writes nothing and notes nothing.
	v := f.Version()
	if f.CompareAndSwapWordBE(12, 0, 2) {
		t.Fatal("CAS against a stale old value succeeded")
	}
	if got := f.Version(); got != v {
		t.Errorf("failed cas: version %d -> %d, want unchanged", v, got)
	}
}

// Contending adders retry their CAS, but each add that lands bumps the
// version exactly once.
func TestContendedAddBumpsOncePerAdd(t *testing.T) {
	p := NewPhysical(0)
	f, _ := p.Alloc()
	v0 := f.Version()
	const workers, adds = 4, 2000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < adds; j++ {
				f.AddWordBE(0, 1)
			}
		}()
	}
	wg.Wait()
	if got := f.LoadWordBE(0); got != workers*adds {
		t.Fatalf("word = %d, want %d", got, workers*adds)
	}
	if got := f.Version() - v0; got != workers*adds {
		t.Fatalf("version moved %d, want %d (one per add)", got, workers*adds)
	}
}

func TestObservedFramesGauge(t *testing.T) {
	p := NewPhysical(0)
	r := obsv.NewRegistry()
	p.RegisterObsv(r)
	gauge := func() int64 { return r.Snapshot().Gauges["mem.frames_observed"] }
	f, _ := p.Alloc()
	g, _ := p.Alloc()
	h, _ := p.Alloc()
	f.StoreWordBE(0, 1)
	if n := gauge(); n != 0 {
		t.Fatalf("frames_observed = %d before any version read, want 0", n)
	}
	f.Version()
	f.Version()
	g.RestoreVersion(7)
	h.SetTracked(true) // tracking implies observed
	if h.flags.Load()&flagObserved == 0 {
		t.Fatal("SetTracked(true) did not mark the frame observed")
	}
	h.SetTracked(false)
	if h.flags.Load() != flagObserved {
		t.Fatalf("SetTracked(false) left flags %#x, want only observed", h.flags.Load())
	}
	if n := gauge(); n != 3 {
		t.Fatalf("frames_observed = %d, want 3", n)
	}
	f.Release()
	if n := gauge(); n != 2 {
		t.Fatalf("frames_observed = %d after releasing one, want 2", n)
	}
}

var benchSink uint32

// BenchmarkStoreWordBEUnobserved is the guest sw to a frame whose version
// nobody reads: one host atomic store plus one flags load.
func BenchmarkStoreWordBEUnobserved(b *testing.B) {
	f, _ := NewPhysical(0).Alloc()
	for i := 0; i < b.N; i++ {
		f.StoreWordBE(uint32(i&63)*4, uint32(i))
	}
	benchSink = f.LoadWordBE(0)
}

// BenchmarkStoreWordBEObserved is the same store to a frame the icache or
// block engine has read the version of, so every store bumps it.
func BenchmarkStoreWordBEObserved(b *testing.B) {
	f, _ := NewPhysical(0).Alloc()
	f.Version()
	for i := 0; i < b.N; i++ {
		f.StoreWordBE(uint32(i&63)*4, uint32(i))
	}
	benchSink = f.LoadWordBE(0)
}

// BenchmarkStoreWordBESamePage2CPU runs two goroutines storing to
// different cache lines of one unobserved frame: the per-store cost when
// CPUs share a page but not a word.
func BenchmarkStoreWordBESamePage2CPU(b *testing.B) {
	f, _ := NewPhysical(0).Alloc()
	var wg sync.WaitGroup
	for w := uint32(0); w < 2; w++ {
		wg.Add(1)
		go func(base uint32) {
			defer wg.Done()
			for i := 0; i < b.N; i++ {
				f.StoreWordBE(base+uint32(i&15)*4, uint32(i))
			}
		}(w * 2048)
	}
	wg.Wait()
	benchSink = f.LoadWordBE(0)
}

func TestConcurrentAlloc(t *testing.T) {
	p := NewPhysical(0)
	done := make(chan []*Frame, 8)
	for i := 0; i < 8; i++ {
		go func() {
			var got []*Frame
			for j := 0; j < 50; j++ {
				f, err := p.Alloc()
				if err == nil {
					got = append(got, f)
				}
			}
			done <- got
		}()
	}
	seen := map[int]bool{}
	for i := 0; i < 8; i++ {
		for _, f := range <-done {
			if seen[f.PFN()] {
				t.Fatalf("duplicate PFN %d under concurrency", f.PFN())
			}
			seen[f.PFN()] = true
		}
	}
	if len(seen) != 400 {
		t.Fatalf("got %d frames, want 400", len(seen))
	}
}
