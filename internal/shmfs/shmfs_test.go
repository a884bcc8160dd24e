package shmfs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"hemlock/internal/mem"
)

func newFS(t *testing.T) *FS {
	t.Helper()
	fs, err := New(mem.NewPhysical(0))
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestGeometry(t *testing.T) {
	// The 1 GB region divides into exactly 1024 slots of 1 MB.
	if (Limit-Base)/SlotSize != NumInodes {
		t.Fatalf("region holds %d slots, want %d", (Limit-Base)/SlotSize, NumInodes)
	}
	if AddrOf(0) != Base {
		t.Fatalf("inode 0 at 0x%08x, want 0x%08x", AddrOf(0), Base)
	}
	if AddrOf(NumInodes-1)+SlotSize != Limit {
		t.Fatal("last slot does not end at region limit")
	}
}

func TestCreateStatAddr(t *testing.T) {
	fs := newFS(t)
	st, err := fs.Create("/mod.o", DefaultFileMode, 100)
	if err != nil {
		t.Fatal(err)
	}
	if st.Addr != AddrOf(st.Ino) {
		t.Fatalf("addr 0x%08x != AddrOf(%d)", st.Addr, st.Ino)
	}
	got, err := fs.StatPath("/mod.o")
	if err != nil {
		t.Fatal(err)
	}
	if got.Ino != st.Ino || got.Type != TypeFile || got.UID != 100 {
		t.Fatalf("stat mismatch: %+v", got)
	}
}

func TestCreateExisting(t *testing.T) {
	fs := newFS(t)
	if _, err := fs.Create("/x", DefaultFileMode, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("/x", DefaultFileMode, 0); !errors.Is(err, ErrExist) {
		t.Fatalf("want ErrExist, got %v", err)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	fs := newFS(t)
	if _, err := fs.Create("/data", DefaultFileMode, 0); err != nil {
		t.Fatal(err)
	}
	msg := bytes.Repeat([]byte("segment "), 1000) // spans pages
	if _, err := fs.WriteAt("/data", 100, msg, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	n, err := fs.ReadAt("/data", 100, buf, 0)
	if err != nil || n != len(msg) {
		t.Fatalf("read %d, %v", n, err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatal("round trip mismatch")
	}
	st, _ := fs.StatPath("/data")
	if st.Size != uint32(100+len(msg)) {
		t.Fatalf("size = %d, want %d", st.Size, 100+len(msg))
	}
}

func TestReadPastEOF(t *testing.T) {
	fs := newFS(t)
	fs.Create("/f", DefaultFileMode, 0)
	fs.WriteAt("/f", 0, []byte("abc"), 0)
	buf := make([]byte, 10)
	n, err := fs.ReadAt("/f", 0, buf, 0)
	if err != nil || n != 3 {
		t.Fatalf("short read got %d, %v", n, err)
	}
	n, err = fs.ReadAt("/f", 100, buf, 0)
	if err != nil || n != 0 {
		t.Fatalf("read past EOF got %d, %v", n, err)
	}
}

func TestFileSizeLimit(t *testing.T) {
	fs := newFS(t)
	fs.Create("/big", DefaultFileMode, 0)
	// Exactly 1 MB is fine.
	if err := fs.Truncate("/big", MaxFile, 0); err != nil {
		t.Fatalf("1 MB truncate failed: %v", err)
	}
	// One byte over the limit is rejected.
	if _, err := fs.WriteAt("/big", MaxFile, []byte{1}, 0); !errors.Is(err, ErrFileTooBig) {
		t.Fatalf("want ErrFileTooBig, got %v", err)
	}
	if err := fs.Truncate("/big", MaxFile+1, 0); !errors.Is(err, ErrFileTooBig) {
		t.Fatalf("want ErrFileTooBig, got %v", err)
	}
}

func TestInodeExhaustion(t *testing.T) {
	fs := newFS(t)
	// Root consumes inode 0; 1023 files fit.
	for i := 0; i < NumInodes-1; i++ {
		if _, err := fs.Create(fmt.Sprintf("/f%d", i), DefaultFileMode, 0); err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
	}
	if _, err := fs.Create("/overflow", DefaultFileMode, 0); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("want ErrNoSpace, got %v", err)
	}
	// Destroying one frees its slot for reuse.
	if err := fs.Unlink("/f7", 0); err != nil {
		t.Fatal(err)
	}
	st, err := fs.Create("/reborn", DefaultFileMode, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Ino == 0 {
		t.Fatal("reused root inode")
	}
}

func TestHardLinksProhibited(t *testing.T) {
	fs := newFS(t)
	fs.Create("/a", DefaultFileMode, 0)
	if err := fs.Link("/a", "/b"); !errors.Is(err, ErrHardLink) {
		t.Fatalf("want ErrHardLink, got %v", err)
	}
}

func TestDirectories(t *testing.T) {
	fs := newFS(t)
	if err := fs.MkdirAll("/usr/local/lib", DefaultDirMode, 0); err != nil {
		t.Fatal(err)
	}
	fs.Create("/usr/local/lib/mod.o", DefaultFileMode, 0)
	fs.Create("/usr/local/lib/aaa", DefaultFileMode, 0)
	ents, err := fs.ReadDir("/usr/local/lib")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 || ents[0].Name != "aaa" || ents[1].Name != "mod.o" {
		t.Fatalf("bad listing: %+v", ents)
	}
	if err := fs.Rmdir("/usr/local/lib", 0); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("want ErrNotEmpty, got %v", err)
	}
	fs.Unlink("/usr/local/lib/mod.o", 0)
	fs.Unlink("/usr/local/lib/aaa", 0)
	if err := fs.Rmdir("/usr/local/lib", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.StatPath("/usr/local/lib"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("dir still present: %v", err)
	}
}

func TestSymlinks(t *testing.T) {
	fs := newFS(t)
	fs.MkdirAll("/tmp/app.123", DefaultDirMode, 0)
	fs.Create("/templates/shared.o", DefaultFileMode, 0) // fails: no /templates yet
	fs.MkdirAll("/templates", DefaultDirMode, 0)
	fs.Create("/templates/shared.o", DefaultFileMode, 0)
	// The Presto trick: symlink the template into a temp directory.
	if err := fs.Symlink("/templates/shared.o", "/tmp/app.123/shared.o", 0); err != nil {
		t.Fatal(err)
	}
	st, err := fs.StatPath("/tmp/app.123/shared.o")
	if err != nil {
		t.Fatal(err)
	}
	real, _ := fs.StatPath("/templates/shared.o")
	if st.Ino != real.Ino {
		t.Fatal("symlink does not resolve to target inode")
	}
	lst, err := fs.LstatPath("/tmp/app.123/shared.o")
	if err != nil {
		t.Fatal(err)
	}
	if lst.Type != TypeSymlink {
		t.Fatalf("lstat type = %v, want symlink", lst.Type)
	}
	target, err := fs.Readlink("/tmp/app.123/shared.o")
	if err != nil || target != "/templates/shared.o" {
		t.Fatalf("readlink = %q, %v", target, err)
	}
}

func TestSymlinkLoop(t *testing.T) {
	fs := newFS(t)
	fs.Symlink("/b", "/a", 0)
	fs.Symlink("/a", "/b", 0)
	if _, err := fs.StatPath("/a"); !errors.Is(err, ErrLoop) {
		t.Fatalf("want ErrLoop, got %v", err)
	}
}

func TestRelativeSymlink(t *testing.T) {
	fs := newFS(t)
	fs.MkdirAll("/lib", DefaultDirMode, 0)
	fs.Create("/lib/real.o", DefaultFileMode, 0)
	fs.Symlink("real.o", "/lib/alias.o", 0)
	st, err := fs.StatPath("/lib/alias.o")
	if err != nil {
		t.Fatal(err)
	}
	real, _ := fs.StatPath("/lib/real.o")
	if st.Ino != real.Ino {
		t.Fatal("relative symlink broken")
	}
}

func TestPermissions(t *testing.T) {
	fs := newFS(t)
	fs.Create("/secret", ModeOwnerRead|ModeOwnerWrite, 100)
	fs.WriteAt("/secret", 0, []byte("data"), 100)
	// Another user cannot read or write.
	if _, err := fs.ReadAt("/secret", 0, make([]byte, 4), 200); !errors.Is(err, ErrPerm) {
		t.Fatalf("want ErrPerm on read, got %v", err)
	}
	if _, err := fs.WriteAt("/secret", 0, []byte("x"), 200); !errors.Is(err, ErrPerm) {
		t.Fatalf("want ErrPerm on write, got %v", err)
	}
	// Root can.
	if _, err := fs.ReadAt("/secret", 0, make([]byte, 4), 0); err != nil {
		t.Fatalf("root read failed: %v", err)
	}
	// Owner opens up other-read.
	if err := fs.Chmod("/secret", DefaultFileMode, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.ReadAt("/secret", 0, make([]byte, 4), 200); err != nil {
		t.Fatalf("read after chmod failed: %v", err)
	}
	// Non-owner cannot chmod.
	if err := fs.Chmod("/secret", 0, 200); !errors.Is(err, ErrPerm) {
		t.Fatalf("want ErrPerm on chmod, got %v", err)
	}
}

func TestAddrToPathRoundTrip(t *testing.T) {
	fs := newFS(t)
	fs.MkdirAll("/lib", DefaultDirMode, 0)
	st, _ := fs.Create("/lib/table.o", DefaultFileMode, 0)
	addr, err := fs.PathToAddr("/lib/table.o")
	if err != nil || addr != st.Addr {
		t.Fatalf("PathToAddr = 0x%x, %v", addr, err)
	}
	// Interior address resolves to the same file with an offset.
	p, off, err := fs.AddrToPath(addr + 12345)
	if err != nil || p != "/lib/table.o" || off != 12345 {
		t.Fatalf("AddrToPath = %q, %d, %v", p, off, err)
	}
	// Address in an empty slot fails.
	if _, _, err := fs.AddrToPath(Limit - 1); !errors.Is(err, ErrNotExist) {
		t.Fatalf("want ErrNotExist, got %v", err)
	}
	// Address outside the region fails.
	if _, _, err := fs.AddrToPath(0x10000000); !errors.Is(err, ErrBadAddr) {
		t.Fatalf("want ErrBadAddr, got %v", err)
	}
}

func TestBootScanRebuildsTable(t *testing.T) {
	fs := newFS(t)
	fs.MkdirAll("/a/b", DefaultDirMode, 0)
	fs.Create("/a/b/one", DefaultFileMode, 0)
	fs.Create("/two", DefaultFileMode, 0)
	addr, _ := fs.PathToAddr("/a/b/one")
	fs.ClearTable() // crash
	if _, _, err := fs.AddrToPath(addr); err == nil {
		t.Fatal("lookup should fail before boot scan")
	}
	n := fs.BootScan()
	if n != 2 {
		t.Fatalf("boot scan found %d files, want 2", n)
	}
	p, _, err := fs.AddrToPath(addr)
	if err != nil || p != "/a/b/one" {
		t.Fatalf("AddrToPath after scan = %q, %v", p, err)
	}
}

func TestUnlinkRemovesTableEntry(t *testing.T) {
	fs := newFS(t)
	st, _ := fs.Create("/gone", DefaultFileMode, 0)
	fs.Unlink("/gone", 0)
	if _, _, err := fs.AddrToPath(st.Addr); !errors.Is(err, ErrNotExist) {
		t.Fatalf("table entry survived unlink: %v", err)
	}
	if fs.TableLen() != 0 {
		t.Fatalf("table len = %d, want 0", fs.TableLen())
	}
}

func TestUnlinkReleasesFrames(t *testing.T) {
	phys := mem.NewPhysical(0)
	fs, _ := New(phys)
	fs.Create("/f", DefaultFileMode, 0)
	fs.Truncate("/f", 10*mem.PageSize, 0)
	if st := phys.Stats(); st.Live != 10 {
		t.Fatalf("live = %d, want 10", st.Live)
	}
	fs.Unlink("/f", 0)
	if st := phys.Stats(); st.Live != 0 {
		t.Fatalf("live after unlink = %d, want 0", st.Live)
	}
}

func TestTruncateZeroesShrunkRange(t *testing.T) {
	fs := newFS(t)
	fs.Create("/f", DefaultFileMode, 0)
	fs.WriteAt("/f", 0, []byte("secretdata"), 0)
	fs.Truncate("/f", 3, 0)
	fs.Truncate("/f", 10, 0)
	buf := make([]byte, 10)
	fs.ReadAt("/f", 0, buf, 0)
	if !bytes.Equal(buf, []byte("sec\x00\x00\x00\x00\x00\x00\x00")) {
		t.Fatalf("stale data after shrink+grow: %q", buf)
	}
}

func TestFramesAliasFileContents(t *testing.T) {
	fs := newFS(t)
	fs.Create("/seg", DefaultFileMode, 0)
	fs.WriteAt("/seg", 0, []byte("before"), 0)
	frames, st, err := fs.Frames("/seg", mem.PageSize, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size != mem.PageSize {
		t.Fatalf("Frames grew size to %d, want %d", st.Size, mem.PageSize)
	}
	// A store through the frame is visible through the read interface.
	copy(frames[0].Data[0:], "AFTER!")
	buf := make([]byte, 6)
	fs.ReadAt("/seg", 0, buf, 0)
	if string(buf) != "AFTER!" {
		t.Fatalf("file read saw %q, want AFTER!", buf)
	}
}

func TestLocking(t *testing.T) {
	fs := newFS(t)
	fs.Create("/lockme", DefaultFileMode, 0)
	ok, err := fs.TryLock("/lockme", 10)
	if err != nil || !ok {
		t.Fatalf("first lock: %v %v", ok, err)
	}
	// Reentrant for the same pid.
	ok, _ = fs.TryLock("/lockme", 10)
	if !ok {
		t.Fatal("reentrant lock failed")
	}
	// Other pid blocked.
	ok, _ = fs.TryLock("/lockme", 20)
	if ok {
		t.Fatal("lock not exclusive")
	}
	if err := fs.Unlock("/lockme", 20); !errors.Is(err, ErrLocked) {
		t.Fatalf("non-owner unlock: %v", err)
	}
	fs.Unlock("/lockme", 10)
	if owner, _ := fs.LockOwner("/lockme"); owner != 10 {
		t.Fatalf("owner = %d after one unlock of two, want 10", owner)
	}
	fs.Unlock("/lockme", 10)
	ok, _ = fs.TryLock("/lockme", 20)
	if !ok {
		t.Fatal("lock not released")
	}
}

func TestWalkFiles(t *testing.T) {
	fs := newFS(t)
	fs.MkdirAll("/d1", DefaultDirMode, 0)
	fs.Create("/d1/b", DefaultFileMode, 0)
	fs.Create("/a", DefaultFileMode, 0)
	var got []string
	fs.WalkFiles(func(p string, st Stat) error {
		got = append(got, p)
		return nil
	})
	if len(got) != 2 || got[0] != "/a" || got[1] != "/d1/b" {
		t.Fatalf("walk = %v", got)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	fs := newFS(t)
	fs.MkdirAll("/lib/app", DefaultDirMode, 42)
	fs.Create("/lib/app/mod.o", DefaultFileMode, 42)
	payload := bytes.Repeat([]byte{0xAB, 0xCD}, 3000)
	fs.WriteAt("/lib/app/mod.o", 0, payload, 42)
	fs.Symlink("/lib/app/mod.o", "/alias", 0)

	var buf bytes.Buffer
	if err := fs.Save(&buf); err != nil {
		t.Fatal(err)
	}
	fs2, err := Load(&buf, mem.NewPhysical(0))
	if err != nil {
		t.Fatal(err)
	}
	data, err := fs2.ReadFile("/lib/app/mod.o", 42)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, payload) {
		t.Fatal("payload mismatch after load")
	}
	st, err := fs2.StatPath("/alias")
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := fs.StatPath("/lib/app/mod.o")
	if st.Ino != orig.Ino || st.UID != 42 {
		t.Fatalf("stat after load: %+v vs %+v", st, orig)
	}
	// The lookup table was rebuilt on load.
	p, _, err := fs2.AddrToPath(orig.Addr)
	if err != nil || p != "/lib/app/mod.o" {
		t.Fatalf("AddrToPath after load = %q, %v", p, err)
	}
}

// TestContentVersionSurvivesSaveLoad pins the reboot contract the link
// cache depends on: a file's fingerprint before Save equals its
// fingerprint after Load, and a genuinely mutated file still reads as
// changed. Fingerprints mix the per-frame store-version counters, so the
// image must carry them (format v2) — without that, every cache manifest
// recorded before a reboot would look mutated-in-place.
func TestContentVersionSurvivesSaveLoad(t *testing.T) {
	fs := newFS(t)
	fs.MkdirAll("/lib", DefaultDirMode, 0)
	fs.Create("/lib/mod.o", DefaultFileMode, 0)
	// Write twice so the frame counters are not trivially 1.
	fs.WriteFile("/lib/mod.o", bytes.Repeat([]byte{0x11}, 5000), DefaultFileMode, 0)
	fs.WriteFile("/lib/mod.o", bytes.Repeat([]byte{0x22}, 5000), DefaultFileMode, 0)
	before, err := fs.ContentVersion("/lib/mod.o")
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := fs.Save(&buf); err != nil {
		t.Fatal(err)
	}
	fs2, err := Load(&buf, mem.NewPhysical(0))
	if err != nil {
		t.Fatal(err)
	}
	after, err := fs2.ContentVersion("/lib/mod.o")
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatalf("fingerprint changed across save/load: %016x -> %016x", before, after)
	}
	// Mutation on the rebooted machine still moves the fingerprint.
	if _, err := fs2.WriteAt("/lib/mod.o", 0, []byte{0x33}, 0); err != nil {
		t.Fatal(err)
	}
	if v, _ := fs2.ContentVersion("/lib/mod.o"); v == before {
		t.Fatal("fingerprint did not move after an in-place write")
	}
}

// A store through a mapping on the rebooted machine must move the
// fingerprint even though nothing has read a frame version since the load:
// a restored version counts as observed, so the store bumps it. Without
// that, a link-cache manifest recorded before the reboot would still match.
func TestContentVersionMovesOnMappedStoreAfterLoad(t *testing.T) {
	fs := newFS(t)
	fs.WriteFile("/mod.o", bytes.Repeat([]byte{0x11}, 5000), DefaultFileMode, 0)
	before, err := fs.ContentVersion("/mod.o")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fs.Save(&buf); err != nil {
		t.Fatal(err)
	}
	fs2, err := Load(&buf, mem.NewPhysical(0))
	if err != nil {
		t.Fatal(err)
	}
	frames, _, err := fs2.Frames("/mod.o", 0, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	frames[1].StoreWordBE(16, 0xdeadbeef) // the way a guest sw lands
	after, err := fs2.ContentVersion("/mod.o")
	if err != nil {
		t.Fatal(err)
	}
	if after == before {
		t.Fatal("fingerprint blind to a mapped store after save/load")
	}
}

// TestLoadRejectsGarbage: Load returns an error, rather than crashing in
// the boot scan, for bytes that are no image and for images whose
// directory graph is not a tree over the loaded inodes.
func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("NOTANIMAGE")), mem.NewPhysical(0)); err == nil {
		t.Fatal("garbage image accepted")
	}
	// The control: rawImage encodes a healthy tree that Load accepts.
	good := rawImage(
		rawInode{0, map[string]uint32{"a": 1}},
		rawInode{1, map[string]uint32{"f": 3}},
		rawInode{3, nil})
	fs, err := Load(bytes.NewReader(good), mem.NewPhysical(0))
	if err != nil {
		t.Fatalf("healthy hand-built image: %v", err)
	}
	if p, _, err := fs.AddrToPath(AddrOf(3)); err != nil || p != "/a/f" {
		t.Fatalf("AddrToPath after load = %q, %v", p, err)
	}
	for name, img := range corruptGraphs {
		if _, err := Load(bytes.NewReader(img), mem.NewPhysical(0)); err == nil {
			t.Errorf("%s: Load accepted the image", name)
		}
	}
}

// TestLinearVsIndexedLookupAgree checks the slot-indexed AddrToPath
// against the paper's linear scan and the directory tree, at an offset
// inside every slot, free or not.
func TestLinearVsIndexedLookupAgree(t *testing.T) {
	fs := newFS(t)
	for i := 0; i < 50; i++ {
		fs.Create(fmt.Sprintf("/f%02d", i), DefaultFileMode, 0)
	}
	for i := 0; i < 50; i += 4 {
		fs.Unlink(fmt.Sprintf("/f%02d", i), 0)
	}
	rows := linearTable(fs)
	if len(rows) != 37 {
		t.Fatalf("directory tree holds %d files, want 37", len(rows))
	}
	for ino := 0; ino < 60; ino++ {
		addr := AddrOf(ino) + uint32(ino*13)
		want, wantOff, ok := linearLookup(rows, addr)
		got, off, err := fs.AddrToPath(addr)
		if got != want || off != wantOff || (err == nil) != ok {
			t.Fatalf("0x%08x: AddrToPath = %q+%d, %v; linear scan %q+%d, %v", addr, got, off, err, want, wantOff, ok)
		}
		if ok && want != fmt.Sprintf("/f%02d", ino-1) { // root dir is inode 0
			t.Fatalf("0x%08x: %s is not the file in slot %d", addr, want, ino)
		}
	}
}

// The address index stays consistent through unlinks: every remaining file
// resolves to its own path through AddrToPath, and unlinked slots miss. The
// name is kept from when the index was a B-tree; the index is now the
// inode-indexed table, and this checks the same contract against it.
func TestFSBTreeStaysConsistent(t *testing.T) {
	fs := newFS(t)
	for i := 0; i < 30; i++ {
		if _, err := fs.Create(fmt.Sprintf("/f%d", i), DefaultFileMode, 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i += 2 {
		if err := fs.Unlink(fmt.Sprintf("/f%d", i), 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i += 2 {
		if p, _, err := fs.AddrToPath(AddrOf(i + 1)); err == nil { // +1: root dir is inode 0
			t.Fatalf("unlinked /f%d still resolves to %q", i, p)
		}
	}
	count := 0
	fs.WalkFiles(func(p string, st Stat) error {
		got, off, err := fs.AddrToPath(st.Addr)
		if err != nil || got != p || off != 0 {
			t.Fatalf("lookup of %s: %q+%d, %v", p, got, off, err)
		}
		count++
		return nil
	})
	if count != 15 {
		t.Fatalf("files = %d", count)
	}
	if err := fs.CheckIndex(); err != nil {
		t.Fatal(err)
	}
}

// Property: Clean produces an absolute path and AddrOf/InodeAt are inverses
// over the inode range.
func TestAddrInodeInverseProperty(t *testing.T) {
	f := func(n uint16, off uint32) bool {
		ino := int(n) % NumInodes
		addr := AddrOf(ino) + off%SlotSize
		got, err := InodeAt(addr)
		return err == nil && got == ino
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCleanPaths(t *testing.T) {
	cases := map[string]string{
		"":           "/",
		"/":          "/",
		"a/b":        "/a/b",
		"/a//b/":     "/a/b",
		"/a/../b":    "/b",
		"/a/./b":     "/a/b",
		"../../etc":  "/etc",
		"/x/y/../..": "/",
	}
	for in, want := range cases {
		if got := Clean(in); got != want {
			t.Errorf("Clean(%q) = %q, want %q", in, got, want)
		}
	}
}
