package shmfs

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"

	"hemlock/internal/mem"
)

// TestLoadNeverPanics: disk images may be truncated or corrupted on the
// host; Load must reject them with errors, never panic.
func TestLoadNeverPanics(t *testing.T) {
	fs := newFS(t)
	fs.MkdirAll("/a/b", DefaultDirMode, 3)
	fs.Create("/a/b/file", DefaultFileMode, 3)
	fs.WriteAt("/a/b/file", 0, bytes.Repeat([]byte{0xAA}, 9000), 3)
	fs.Symlink("/a/b/file", "/link", 0)
	var buf bytes.Buffer
	if err := fs.Save(&buf); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 400; i++ {
		c := append([]byte(nil), enc...)
		switch rng.Intn(3) {
		case 0:
			for j := 0; j < 1+rng.Intn(5); j++ {
				c[rng.Intn(len(c))] ^= byte(1 + rng.Intn(255))
			}
		case 1:
			c = c[:rng.Intn(len(c))]
		case 2:
			junk := make([]byte, rng.Intn(128))
			rng.Read(junk)
			c = append(c, junk...)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("mutation %d: Load panicked: %v", i, r)
				}
			}()
			if fs2, err := Load(bytes.NewReader(c), mem.NewPhysical(0)); err == nil && fs2 != nil {
				// A surviving load must at least have a usable root and a
				// consistent boot scan.
				if _, rerr := fs2.ReadDir("/"); rerr != nil {
					t.Fatalf("mutation %d: loaded fs has broken root: %v", i, rerr)
				}
				fs2.BootScan()
			}
		}()
	}
}

// TestSaveLoadManyFilesStress exercises a heavily populated image.
func TestSaveLoadManyFilesStress(t *testing.T) {
	fs := newFS(t)
	payload := bytes.Repeat([]byte("x"), 3000)
	for i := 0; i < 200; i++ {
		dir := "/d" + string(rune('0'+i%10))
		fs.MkdirAll(dir, DefaultDirMode, 0)
		p := dir + "/f" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
		if _, err := fs.Create(p, DefaultFileMode, i%50); err != nil {
			continue // name collisions are fine for this stress shape
		}
		fs.WriteAt(p, 0, payload[:i%len(payload)+1], 0)
	}
	var buf bytes.Buffer
	if err := fs.Save(&buf); err != nil {
		t.Fatal(err)
	}
	fs2, err := Load(&buf, mem.NewPhysical(0))
	if err != nil {
		t.Fatal(err)
	}
	// Every file resolves by address after the load's boot scan.
	n := 0
	fs2.WalkFiles(func(p string, st Stat) error {
		got, _, err := fs2.AddrToPath(st.Addr)
		if err != nil || got != p {
			t.Fatalf("%s: %q, %v", p, got, err)
		}
		n++
		return nil
	})
	if n == 0 {
		t.Fatal("no files survived")
	}
	if fs2.InodesInUse() != fs.InodesInUse() {
		t.Fatalf("inode counts differ: %d vs %d", fs2.InodesInUse(), fs.InodesInUse())
	}
}

// rawInode is one inode of a hand-built image: a directory with entries
// (name -> child inode number), or an empty regular file when entries is
// nil.
type rawInode struct {
	ino     uint32
	entries map[string]uint32
}

// rawImage encodes inodes as Save would, so a test can state directory
// graphs that Save never writes.
func rawImage(inodes ...rawInode) []byte {
	var b bytes.Buffer
	b.WriteString(imageMagic)
	binary.Write(&b, binary.BigEndian, []uint32{imageVersion, uint32(len(inodes))})
	for _, nd := range inodes {
		typ := TypeFile
		if nd.entries != nil {
			typ = TypeDir
		}
		binary.Write(&b, binary.BigEndian, nd.ino)
		b.WriteByte(byte(typ))
		binary.Write(&b, binary.BigEndian, uint16(DefaultFileMode))
		binary.Write(&b, binary.BigEndian, uint32(0)) // uid
		binary.Write(&b, binary.BigEndian, uint64(0)) // mtime
		if typ == TypeFile {
			binary.Write(&b, binary.BigEndian, uint32(0)) // size
			continue
		}
		names := make([]string, 0, len(nd.entries))
		for name := range nd.entries {
			names = append(names, name)
		}
		sort.Strings(names)
		binary.Write(&b, binary.BigEndian, uint32(len(names)))
		for _, name := range names {
			writeString(&b, name)
			binary.Write(&b, binary.BigEndian, nd.entries[name])
		}
	}
	return b.Bytes()
}

// corruptGraphs are images whose directory graph is not a tree over the
// loaded inodes.
var corruptGraphs = map[string][]byte{
	"child out of range": rawImage(rawInode{0, map[string]uint32{"x": 5000}}),
	"root to root cycle": rawImage(rawInode{0, map[string]uint32{"x": 0}}),
	"child not loaded":   rawImage(rawInode{0, map[string]uint32{"x": 7}}),
	"file in two directories": rawImage(
		rawInode{0, map[string]uint32{"a": 1, "b": 2}},
		rawInode{1, map[string]uint32{"f": 3}},
		rawInode{2, map[string]uint32{"f": 3}},
		rawInode{3, nil}),
	"unreachable file": rawImage(rawInode{0, map[string]uint32{}}, rawInode{9, nil}),
}

// FuzzLoad: whatever the bytes, Load returns an error or a file system
// whose address table, inodes and directory tree agree.
func FuzzLoad(f *testing.F) {
	names := make([]string, 0, len(corruptGraphs))
	for name := range corruptGraphs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(corruptGraphs[name])
	}
	fs, err := New(mem.NewPhysical(0))
	if err != nil {
		f.Fatal(err)
	}
	fs.MkdirAll("/a/b", DefaultDirMode, 0)
	fs.Create("/a/b/file", DefaultFileMode, 0)
	fs.WriteAt("/a/b/file", 0, []byte("hello"), 0)
	fs.Symlink("/a/b/file", "/link", 0)
	var buf bytes.Buffer
	if err := fs.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, img []byte) {
		fs, err := Load(bytes.NewReader(img), mem.NewPhysical(0))
		if err != nil {
			return
		}
		if err := fs.CheckIndex(); err != nil {
			t.Fatalf("loaded image fails CheckIndex: %v", err)
		}
	})
}
