package shmfs

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBTreeInsertLookup(t *testing.T) {
	tr := NewAddrTree()
	for i := 0; i < 200; i++ {
		tr.Insert(AddrOf(i), i, fmt.Sprintf("/f%d", i))
		if err := tr.Check(); err != nil {
			t.Fatalf("after insert %d: %v", i, err)
		}
	}
	if tr.Len() != 200 {
		t.Fatalf("len = %d", tr.Len())
	}
	for i := 0; i < 200; i++ {
		ino, path, off, ok := tr.LookupCovering(AddrOf(i) + uint32(i))
		if !ok || ino != i || path != fmt.Sprintf("/f%d", i) || off != uint32(i) {
			t.Fatalf("lookup %d: %d %q %d %v", i, ino, path, off, ok)
		}
	}
	// Address past the last slot's range is not covered.
	if _, _, _, ok := tr.LookupCovering(AddrOf(200) + 5); ok {
		t.Fatal("uncovered address resolved")
	}
}

func TestBTreeEmptyAndMiss(t *testing.T) {
	tr := NewAddrTree()
	if _, _, _, ok := tr.LookupCovering(Base); ok {
		t.Fatal("empty tree resolved an address")
	}
	tr.Insert(AddrOf(5), 5, "/five")
	if _, _, _, ok := tr.LookupCovering(AddrOf(4)); ok {
		t.Fatal("gap before entry resolved")
	}
	if _, _, _, ok := tr.LookupCovering(AddrOf(6)); ok {
		t.Fatal("gap after entry resolved")
	}
}

func TestBTreeReplace(t *testing.T) {
	tr := NewAddrTree()
	tr.Insert(AddrOf(3), 3, "/old")
	tr.Insert(AddrOf(3), 3, "/new")
	if tr.Len() != 1 {
		t.Fatalf("len = %d after replace", tr.Len())
	}
	_, path, _, _ := tr.LookupCovering(AddrOf(3))
	if path != "/new" {
		t.Fatalf("path = %q", path)
	}
}

func TestBTreeDelete(t *testing.T) {
	tr := NewAddrTree()
	for i := 0; i < 60; i++ {
		tr.Insert(AddrOf(i), i, fmt.Sprintf("/f%d", i))
	}
	for i := 0; i < 60; i += 3 {
		if !tr.Delete(AddrOf(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if tr.Delete(AddrOf(0)) {
		t.Fatal("double delete succeeded")
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 40 {
		t.Fatalf("len = %d", tr.Len())
	}
	for i := 0; i < 60; i++ {
		_, _, _, ok := tr.LookupCovering(AddrOf(i))
		want := i%3 != 0
		if ok != want {
			t.Fatalf("entry %d present=%v, want %v", i, ok, want)
		}
	}
}

func TestBTreeWalkSorted(t *testing.T) {
	tr := NewAddrTree()
	rng := rand.New(rand.NewSource(1))
	perm := rng.Perm(300)
	for _, i := range perm {
		tr.Insert(AddrOf(i), i, "")
	}
	walk := tr.Walk()
	if len(walk) != 300 {
		t.Fatalf("walk len = %d", len(walk))
	}
	for i := 1; i < len(walk); i++ {
		if walk[i-1].base >= walk[i].base {
			t.Fatal("walk not sorted")
		}
	}
}

// Property: for any insertion order of distinct slots, every inserted slot
// resolves and the tree stays valid.
func TestBTreeRandomisedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200) + 1
		tr := NewAddrTree()
		perm := rng.Perm(NumInodes)[:n]
		for _, i := range perm {
			tr.Insert(AddrOf(i), i, "")
		}
		if tr.Check() != nil || tr.Len() != n {
			return false
		}
		for _, i := range perm {
			ino, _, _, ok := tr.LookupCovering(AddrOf(i) + SlotSize - 1)
			if !ok || ino != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFSBTreeStaysConsistent(t *testing.T) {
	fs := newFS(t)
	fs.Lookup = LookupBTree
	for i := 0; i < 30; i++ {
		fs.Create(fmt.Sprintf("/f%d", i), DefaultFileMode, 0)
	}
	for i := 0; i < 30; i += 2 {
		fs.Unlink(fmt.Sprintf("/f%d", i), 0)
	}
	for i := 0; i < 30; i++ {
		_, _, err := fs.AddrToPath(AddrOf(i + 1)) // +1: root dir is inode 0
		_ = err
	}
	// Every remaining file resolves through the tree.
	count := 0
	fs.WalkFiles(func(p string, st Stat) error {
		got, _, err := fs.AddrToPath(st.Addr)
		if err != nil || got != p {
			t.Fatalf("btree lookup of %s: %q, %v", p, got, err)
		}
		count++
		return nil
	})
	if count != 15 {
		t.Fatalf("files = %d", count)
	}
}

// runTreeModel applies one operation per byte pair of ops to a tree and to
// a map model over a small key space, so every operation lands on keys the
// tree holds often enough to drive splits, borrows, merges and root
// shrinks. It checks the invariants after every operation and the full
// walk order at the end.
func runTreeModel(t *testing.T, ops []byte) {
	t.Helper()
	const keys = 96
	tr := NewAddrTree()
	model := map[int]string{}
	for n := 0; n+1 < len(ops); n += 2 {
		k := int(ops[n+1]) % keys
		switch op := ops[n] % 4; op {
		case 0, 1:
			p := fmt.Sprintf("/f%d.%d", k, n)
			tr.Insert(AddrOf(k), k, p)
			model[k] = p
		case 2:
			_, had := model[k]
			if got := tr.Delete(AddrOf(k)); got != had {
				t.Fatalf("op %d: Delete(%d) = %v, model has it %v", n/2, k, got, had)
			}
			delete(model, k)
		case 3:
			off := uint32(ops[n]) * 4099 % SlotSize
			ino, p, gotOff, ok := tr.LookupCovering(AddrOf(k) + off)
			want, had := model[k]
			if ok != had || (ok && (ino != k || p != want || gotOff != off)) {
				t.Fatalf("op %d: LookupCovering(slot %d+%d) = %d %q %d %v, model %q %v", n/2, k, off, ino, p, gotOff, ok, want, had)
			}
		}
		if err := tr.Check(); err != nil {
			t.Fatalf("op %d: %v", n/2, err)
		}
		if tr.Len() != len(model) {
			t.Fatalf("op %d: Len = %d, model %d", n/2, tr.Len(), len(model))
		}
	}
	walk := tr.Walk()
	if len(walk) != len(model) {
		t.Fatalf("walk has %d entries, model %d", len(walk), len(model))
	}
	for i, e := range walk {
		if i > 0 && walk[i-1].base >= e.base {
			t.Fatalf("walk out of order at %d", i)
		}
		if p, ok := model[e.ino]; !ok || e.base != AddrOf(e.ino) || e.path != p {
			t.Fatalf("walk entry %d = {0x%x %d %q}, model %q %v", i, e.base, e.ino, e.path, p, ok)
		}
	}
	assertNoRetained(t, tr.root)
}

// assertNoRetained fails if any node's backing arrays hold an entry or
// child past the slice length: a vacated slot must not keep a removed
// path (or subtree) reachable.
func assertNoRetained(t *testing.T, n *btreeNode) {
	t.Helper()
	for _, e := range n.entries[len(n.entries):cap(n.entries)] {
		if e != (btreeEntry{}) {
			t.Fatalf("vacated entry slot retains %+v", e)
		}
	}
	for _, c := range n.children[len(n.children):cap(n.children)] {
		if c != nil {
			t.Fatal("vacated child slot retains a subtree")
		}
	}
	for _, c := range n.children {
		assertNoRetained(t, c)
	}
}

// TestBTreeModel drives thousands of interleaved Insert/Delete/
// LookupCovering calls per seed against a map model.
func TestBTreeModel(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 20
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 2*3000)
		rng.Read(ops)
		// Phase the op mix so some seeds fill the key space and then
		// drain it, emptying the tree back to a leaf root.
		if seed%2 == 1 {
			for i := 0; i < len(ops)/2; i += 2 {
				ops[i] &^= 2 // inserts and lookups only
			}
			for i := len(ops) / 2; i < len(ops); i += 2 {
				ops[i] |= 2 // deletes and lookups only
			}
		}
		runTreeModel(t, ops)
	}
}

func FuzzAddrTree(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 2, 1, 3, 2})
	ascending := make([]byte, 0, 4*96)
	for k := 0; k < 96; k++ {
		ascending = append(ascending, 0, byte(k))
	}
	for k := 0; k < 96; k++ {
		ascending = append(ascending, 2, byte(k))
	}
	f.Add(ascending)
	descending := make([]byte, 0, 4*96)
	for k := 95; k >= 0; k-- {
		descending = append(descending, 1, byte(k))
	}
	for k := 0; k < 96; k += 2 {
		descending = append(descending, 2, byte(k), 3, byte(k+1))
	}
	f.Add(descending)
	f.Fuzz(func(t *testing.T, ops []byte) {
		runTreeModel(t, ops)
	})
}
