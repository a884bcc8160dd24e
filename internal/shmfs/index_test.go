package shmfs

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hemlock/internal/mem"
)

// linearRow is one row of the paper's address-to-file table: the base of
// a file's slot and its path.
type linearRow struct {
	base uint32
	path string
}

// linearTable builds the paper's table from the directory tree, as its
// boot-time scan does.
func linearTable(fs *FS) []linearRow {
	var rows []linearRow
	fs.WalkFiles(func(p string, st Stat) error {
		rows = append(rows, linearRow{st.Addr, p})
		return nil
	})
	return rows
}

// linearLookup is the paper's lookup, "for the sake of simplicity": a scan
// of every row for the slot covering addr. It is the oracle AddrToPath is
// checked against.
func linearLookup(rows []linearRow, addr uint32) (string, uint32, bool) {
	for _, r := range rows {
		if addr >= r.base && addr-r.base < SlotSize {
			return r.path, addr - r.base, true
		}
	}
	return "", 0, false
}

// lookupAllAgree resolves an address inside every slot with AddrToPath and
// with the linear-scan oracle over a table built from the directory tree;
// the answers must be identical.
func lookupAllAgree(t *testing.T, fs *FS, step int, when string) {
	t.Helper()
	rows := linearTable(fs)
	for slot := 0; slot < NumInodes; slot++ {
		off := uint32(slot*4099+step*61) % SlotSize
		addr := AddrOf(slot) + off
		wantPath, wantOff, present := linearLookup(rows, addr)
		p, o, err := fs.AddrToPath(addr)
		if present && (err != nil || p != wantPath || o != wantOff) {
			t.Fatalf("step %d %s: AddrToPath(0x%08x) = %q+%d, %v; the linear scan says %q+%d", step, when, addr, p, o, err, wantPath, wantOff)
		}
		if !present && (!errors.Is(err, ErrNotExist) || p != "" || o != 0) {
			t.Fatalf("step %d %s: AddrToPath(0x%08x) = %q+%d, %v; the linear scan finds no file", step, when, addr, p, o, err)
		}
	}
}

// TestLookupStrategiesAgreeUnderChurn creates (bottom-up and top-down) and
// unlinks files until the inode table is nearly full, then keeps churning
// there. After every step AddrToPath answers every slot as the linear scan
// over the directory tree does, and CheckIndex holds. The table is rebuilt
// by ClearTable + BootScan only every few dozen steps, so most steps check
// the entries create and unlink maintain in place.
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

// TestCheckIndexNamesCorruptStructure corrupts the address table, the
// inode table and the directory tree in turn; CheckIndex must name the
// structure it finds at odds.
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
		{"table row for a destroyed inode", "table", func(fs *FS) {
			fs.table[900] = "/lib/gone"
		}},
		{"table row with the wrong base", "table", func(fs *FS) {
			fs.table[3], fs.table[4] = fs.table[4], fs.table[3] // /lib/f01, /lib/f02
		}},
		{"table row with a stale path", "table", func(fs *FS) {
			fs.table[6] = "/lib/elsewhere" // /lib/f04
		}},
		{"tree missing an entry", "tree", func(fs *FS) {
			lib := fs.inodes[fs.inodes[0].entries["lib"]]
			delete(lib.entries, "f05")
		}},
		{"tree with a second link to a file", "tree", func(fs *FS) {
			lib := fs.inodes[fs.inodes[0].entries["lib"]]
			fs.inodes[0].entries["dup"] = lib.entries["f05"]
		}},
		{"tree with a cycle", "tree", func(fs *FS) {
			lib := fs.inodes[fs.inodes[0].entries["lib"]]
			lib.entries["up"] = 0
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

// E-fs address lookup, worst case for the linear scan: the last file, with
// the file system nearly full.

func lookupBenchFS(b *testing.B) (*FS, uint32) {
	fs, err := New(mem.NewPhysical(0))
	if err != nil {
		b.Fatal(err)
	}
	fs.MkdirAll("/lib", DefaultDirMode, 0)
	for i := 0; i < NumInodes-2; i++ {
		if _, err := fs.Create(fmt.Sprintf("/lib/f%04d", i), DefaultFileMode, 0); err != nil {
			b.Fatal(err)
		}
	}
	return fs, AddrOf(NumInodes-1) + 64
}

// BenchmarkShmfsAddrToPath: the slot-indexed table.
func BenchmarkShmfsAddrToPath(b *testing.B) {
	fs, addr := lookupBenchFS(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := fs.AddrToPath(addr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShmfsAddrToPathLinear: the paper's linear scan.
func BenchmarkShmfsAddrToPathLinear(b *testing.B) {
	fs, addr := lookupBenchFS(b)
	rows := linearTable(fs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := linearLookup(rows, addr); !ok {
			b.Fatal("no file")
		}
	}
}
