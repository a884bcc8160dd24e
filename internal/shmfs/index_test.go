package shmfs

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// lookupAllAgree resolves an address inside every slot with all three
// lookup strategies and checks each answer against the directory tree.
func lookupAllAgree(t *testing.T, fs *FS, step int, when string) {
	t.Helper()
	want := map[uint32]string{} // slot base -> path, from the directory tree
	fs.WalkFiles(func(p string, st Stat) error {
		want[st.Addr] = p
		return nil
	})
	saved := fs.Lookup
	defer func() { fs.Lookup = saved }()
	for slot := 0; slot < NumInodes; slot++ {
		off := uint32(slot*4099+step*61) % SlotSize
		addr := AddrOf(slot) + off
		wantPath, present := want[AddrOf(slot)]
		for _, mode := range []LookupMode{LookupLinear, LookupIndexed, LookupBTree} {
			fs.Lookup = mode
			p, o, err := fs.AddrToPath(addr)
			if present && (err != nil || p != wantPath || o != off) {
				t.Fatalf("step %d %s: mode %d at 0x%08x = %q+%d, %v; want %q+%d", step, when, mode, addr, p, o, err, wantPath, off)
			}
			if !present && (!errors.Is(err, ErrNotExist) || p != "" || o != 0) {
				t.Fatalf("step %d %s: mode %d at 0x%08x = %q+%d, %v; want ErrNotExist", step, when, mode, addr, p, o, err)
			}
		}
	}
}

// TestLookupStrategiesAgreeUnderChurn creates (bottom-up and top-down) and
// unlinks files until the inode table is nearly full, then keeps churning
// there. After every step the linear table, the slot index and the B-tree
// answer every slot identically and as the directory tree says, and
// CheckIndex holds. The table is rebuilt by ClearTable + BootScan only
// every few dozen steps, so unlink's swap-removal keeps reordering a table
// that the boot scan would have laid out in path order.
func TestLookupStrategiesAgreeUnderChurn(t *testing.T) {
	steps := 1500
	if testing.Short() {
		steps = 300
	}
	const seed = 1
	rng := rand.New(rand.NewSource(seed))
	fs := newFS(t)
	for _, d := range []string{"/lib", "/a/b"} {
		if err := fs.MkdirAll(d, DefaultDirMode, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.MkdirAllTop("/var/ldl/cache", DefaultDirMode, 0); err != nil {
		t.Fatal(err)
	}
	var live []string
	peak := 0
	for step := 0; step < steps; step++ {
		r := rng.Intn(10)
		in := fs.InodesInUse()
		peak = max(peak, in)
		if in >= NumInodes-4 {
			r = 9 // full enough: unlink
		}
		switch {
		case r < 6 || (r == 9 && len(live) == 0):
			p := fmt.Sprintf("/lib/f%d", step)
			if r%2 == 1 {
				p = fmt.Sprintf("/a/b/f%d", step)
			}
			if _, err := fs.Create(p, DefaultFileMode, 0); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			live = append(live, p)
		case r < 9:
			p := fmt.Sprintf("/var/ldl/cache/c%d", step)
			if _, err := fs.CreateTop(p, DefaultFileMode, 0); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			live = append(live, p)
		default:
			i := rng.Intn(len(live))
			if err := fs.Unlink(live[i], 0); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if err := fs.CheckIndex(); err != nil {
			t.Fatalf("seed %d step %d: %v", seed, step, err)
		}
		lookupAllAgree(t, fs, step, "after churn")
		if step%37 == 36 || step == steps-1 {
			fs.ClearTable()
			if n := fs.BootScan(); n != len(live) {
				t.Fatalf("seed %d step %d: boot scan found %d files, want %d", seed, step, n, len(live))
			}
			if err := fs.CheckIndex(); err != nil {
				t.Fatalf("seed %d step %d after boot scan: %v", seed, step, err)
			}
			lookupAllAgree(t, fs, step, "after boot scan")
		}
	}
	if !testing.Short() && peak < NumInodes-4 {
		t.Fatalf("seed %d: churn peaked at %d inodes, short of the table size", seed, peak)
	}
}

// TestCheckIndexNamesCorruptStructure corrupts each of the address
// indexes, and the inode table behind them, in turn; CheckIndex must name
// the structure it finds at odds.
func TestCheckIndexNamesCorruptStructure(t *testing.T) {
	build := func(t *testing.T) *FS {
		fs := newFS(t)
		if err := fs.MkdirAll("/lib", DefaultDirMode, 0); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			if _, err := fs.Create(fmt.Sprintf("/lib/f%02d", i), DefaultFileMode, 0); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 40; i += 3 {
			if err := fs.Unlink(fmt.Sprintf("/lib/f%02d", i), 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.CheckIndex(); err != nil {
			t.Fatalf("healthy index: %v", err)
		}
		return fs
	}
	cases := []struct {
		name    string
		want    string // structure the error must name first
		corrupt func(fs *FS)
	}{
		{"file inode without a row", "inode", func(fs *FS) {
			fs.inodes[900] = &inode{ino: 900, typ: TypeFile}
		}},
		{"slotIdx entries swapped", "slotIdx", func(fs *FS) {
			a, b := fs.table[0].ino, fs.table[1].ino
			fs.slotIdx[a], fs.slotIdx[b] = fs.slotIdx[b], fs.slotIdx[a]
		}},
		{"table row for a destroyed inode", "table", func(fs *FS) {
			fs.table = append(fs.table, tableEntry{base: AddrOf(900), ino: 900, path: "/lib/gone"})
		}},
		{"table row with the wrong base", "table", func(fs *FS) {
			fs.table[3].base += SlotSize
		}},
		{"table row with a stale path", "table", func(fs *FS) {
			fs.table[2].path = "/lib/elsewhere"
		}},
		{"tree missing an entry", "tree", func(fs *FS) {
			fs.tree.Delete(fs.table[4].base)
		}},
		{"tree entry with a stale path", "tree", func(fs *FS) {
			e := fs.table[5]
			fs.tree.Insert(e.base, e.ino, "/lib/elsewhere")
		}},
		{"tree node under-full", "tree", func(fs *FS) {
			n := fs.tree.root
			for !n.leaf() {
				n = n.children[0]
			}
			n.entries = n.entries[:1]
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fs := build(t)
			c.corrupt(fs)
			err := fs.CheckIndex()
			if err == nil || !strings.HasPrefix(err.Error(), "shmfs: index: "+c.want) {
				t.Fatalf("CheckIndex = %v, want an error naming %s", err, c.want)
			}
		})
	}
}
