package shmfs

import (
	"testing"

	"hemlock/internal/mem"
)

func newTestFS(t *testing.T) *FS {
	t.Helper()
	fs, err := New(mem.NewPhysical(0))
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestCreateTopDoesNotDisturbLowSlots(t *testing.T) {
	// The invariant the link cache depends on: interleaving top-allocated
	// infrastructure files with ordinary creates must leave the ordinary
	// files in exactly the slots they would occupy without them — slot
	// number is public virtual address.
	a := newTestFS(t)
	b := newTestFS(t)

	mk := func(fs *FS, i int) Stat {
		st, err := fs.Create("/mod"+string(rune('a'+i)), DefaultFileMode, 0)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	// World a: plain creates only.
	var want []int
	for i := 0; i < 5; i++ {
		want = append(want, mk(a, i).Ino)
	}
	// World b: cache traffic interleaved.
	if err := b.MkdirAllTop("/var/ldl/cache", DefaultDirMode, 0); err != nil {
		t.Fatal(err)
	}
	var got []int
	for i := 0; i < 5; i++ {
		if _, err := b.CreateTop("/var/ldl/cache/k"+string(rune('0'+i)), DefaultFileMode, 0); err != nil {
			t.Fatal(err)
		}
		got = append(got, mk(b, i).Ino)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("module %d landed in slot %d, want %d", i, got[i], want[i])
		}
	}
	// And the cache files really are up top.
	st, err := b.StatPath("/var/ldl/cache/k0")
	if err != nil {
		t.Fatal(err)
	}
	if st.Ino < NumInodes-16 {
		t.Fatalf("cache file inode %d not near the top", st.Ino)
	}
}

func TestCreateTopExhaustion(t *testing.T) {
	fs := newTestFS(t)
	// Root dir consumes a slot already; fill everything.
	n := 0
	for {
		_, err := fs.CreateTop("/f"+itoa(n), DefaultFileMode, 0)
		if err != nil {
			break
		}
		n++
	}
	if fs.InodesInUse() != NumInodes {
		t.Fatalf("in use = %d, want full table", fs.InodesInUse())
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestContentVersionTracksMappedStores(t *testing.T) {
	fs := newTestFS(t)
	if _, err := fs.Create("/m", DefaultFileMode, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/m", []byte("hello module text"), DefaultFileMode, 0); err != nil {
		t.Fatal(err)
	}
	v1, err := fs.ContentVersion("/m")
	if err != nil {
		t.Fatal(err)
	}
	v2, _ := fs.ContentVersion("/m")
	if v1 != v2 {
		t.Fatal("fingerprint not stable across reads")
	}
	// Mutate through the mapping: grab the frames and store directly, the
	// way a guest writes a mapped segment. mtime will NOT move; the
	// fingerprint must.
	frames, _, err := fs.Frames("/m", 0, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	frames[0].Data[0] = 'X'
	frames[0].NoteStoreRange(0, 1)
	v3, _ := fs.ContentVersion("/m")
	if v3 == v1 {
		t.Fatal("fingerprint blind to a store through the mapping")
	}
	// WriteAt moves it too.
	if _, err := fs.WriteAt("/m", 0, []byte("h"), 0); err != nil {
		t.Fatal(err)
	}
	if v4, _ := fs.ContentVersion("/m"); v4 == v3 {
		t.Fatal("fingerprint blind to WriteAt")
	}
	// Directories are rejected.
	if _, err := fs.ContentVersion("/"); err == nil {
		t.Fatal("ContentVersion of a directory should fail")
	}
}
