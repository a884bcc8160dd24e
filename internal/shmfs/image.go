package shmfs

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"strings"

	"hemlock/internal/mem"
)

// Disk-image serialisation. The CLI (cmd/hemlock) keeps the whole shared
// file system in a host file between invocations, so lds can create a
// public module in one command and a later run can map it, exactly as the
// persistent shared file system survives across processes in the paper.
//
// Format (big-endian throughout):
//
//	magic "HSFS" | version u32 | inode count u32
//	per inode: ino u32 | type u8 | mode u16 | uid u32 | mtime u64
//	           file: size u32 | (frame store-version u64 | data bytes)*
//	           dir : entry count u32 | (name, ino u32)*
//	           sym : target string
//
// Strings are u16 length + bytes.
//
// Version 2 added the per-frame store-version counters. They are what
// ContentVersion fingerprints are built from, so a reboot must restore
// them: the link cache's invalidation manifests record fingerprints taken
// before the save, and losing the counters would make every entry look
// mutated-in-place. Version 1 images (no counters) still load; their
// counters restart at zero, so caches recorded before the save invalidate
// once and re-record.

const (
	imageMagic   = "HSFS"
	imageVersion = 2
)

func writeString(w io.Writer, s string) error {
	if len(s) > 0xFFFF {
		return fmt.Errorf("shmfs: string too long (%d)", len(s))
	}
	if err := binary.Write(w, binary.BigEndian, uint16(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readString(r io.Reader) (string, error) {
	var n uint16
	if err := binary.Read(r, binary.BigEndian, &n); err != nil {
		return "", err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// Save serialises the file system to w.
func (fs *FS) Save(w io.Writer) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(imageMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.BigEndian, uint32(imageVersion)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.BigEndian, uint32(fs.nAlloc)); err != nil {
		return err
	}
	for i := 0; i < NumInodes; i++ {
		nd := fs.inodes[i]
		if nd == nil {
			continue
		}
		if err := binary.Write(bw, binary.BigEndian, uint32(nd.ino)); err != nil {
			return err
		}
		if err := bw.WriteByte(byte(nd.typ)); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.BigEndian, uint16(nd.mode)); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.BigEndian, uint32(nd.uid)); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.BigEndian, nd.mtime); err != nil {
			return err
		}
		switch nd.typ {
		case TypeFile:
			if err := binary.Write(bw, binary.BigEndian, nd.size); err != nil {
				return err
			}
			remain := nd.size
			for fi := 0; remain > 0; fi++ {
				n := uint32(mem.PageSize)
				if remain < n {
					n = remain
				}
				if err := binary.Write(bw, binary.BigEndian, nd.frames[fi].Version()); err != nil {
					return err
				}
				if _, err := bw.Write(nd.frames[fi].Data[:n]); err != nil {
					return err
				}
				remain -= n
			}
		case TypeDir:
			if err := binary.Write(bw, binary.BigEndian, uint32(len(nd.entries))); err != nil {
				return err
			}
			names := make([]string, 0, len(nd.entries))
			for name := range nd.entries {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				if err := writeString(bw, name); err != nil {
					return err
				}
				if err := binary.Write(bw, binary.BigEndian, uint32(nd.entries[name])); err != nil {
					return err
				}
			}
		case TypeSymlink:
			if err := writeString(bw, nd.target); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Load deserialises a file system image produced by Save, backing file
// contents with frames from phys. The address lookup table is rebuilt by a
// boot scan, matching the paper's crash-recovery story.
func Load(r io.Reader, phys *mem.Physical) (*FS, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("shmfs: reading image magic: %w", err)
	}
	if string(magic) != imageMagic {
		return nil, fmt.Errorf("shmfs: bad image magic %q", magic)
	}
	var version, count uint32
	if err := binary.Read(br, binary.BigEndian, &version); err != nil {
		return nil, err
	}
	if version < 1 || version > imageVersion {
		return nil, fmt.Errorf("shmfs: unsupported image version %d", version)
	}
	if err := binary.Read(br, binary.BigEndian, &count); err != nil {
		return nil, err
	}
	if count > NumInodes {
		return nil, fmt.Errorf("shmfs: image claims %d inodes (max %d)", count, NumInodes)
	}
	fs := &FS{phys: phys}
	for i := uint32(0); i < count; i++ {
		var ino uint32
		if err := binary.Read(br, binary.BigEndian, &ino); err != nil {
			return nil, err
		}
		if ino >= NumInodes {
			return nil, fmt.Errorf("shmfs: inode %d out of range", ino)
		}
		if fs.inodes[ino] != nil {
			return nil, fmt.Errorf("shmfs: inode %d appears twice", ino)
		}
		typB, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		var mode uint16
		if err := binary.Read(br, binary.BigEndian, &mode); err != nil {
			return nil, err
		}
		var uid uint32
		if err := binary.Read(br, binary.BigEndian, &uid); err != nil {
			return nil, err
		}
		var mtime uint64
		if err := binary.Read(br, binary.BigEndian, &mtime); err != nil {
			return nil, err
		}
		nd := &inode{ino: int(ino), typ: FileType(typB), mode: Mode(mode), uid: int(uid), mtime: mtime}
		switch nd.typ {
		case TypeFile:
			if err := binary.Read(br, binary.BigEndian, &nd.size); err != nil {
				return nil, err
			}
			if nd.size > MaxFile {
				return nil, fmt.Errorf("shmfs: inode %d size %d exceeds limit", ino, nd.size)
			}
			if err := fs.ensureFrames(nd, nd.size); err != nil {
				return nil, err
			}
			remain := nd.size
			for fi := 0; remain > 0; fi++ {
				n := uint32(mem.PageSize)
				if remain < n {
					n = remain
				}
				if version >= 2 {
					var fver uint64
					if err := binary.Read(br, binary.BigEndian, &fver); err != nil {
						return nil, err
					}
					nd.frames[fi].RestoreVersion(fver)
				}
				if _, err := io.ReadFull(br, nd.frames[fi].Data[:n]); err != nil {
					return nil, err
				}
				remain -= n
			}
		case TypeDir:
			nd.entries = map[string]int{}
			var n uint32
			if err := binary.Read(br, binary.BigEndian, &n); err != nil {
				return nil, err
			}
			for j := uint32(0); j < n; j++ {
				name, err := readString(br)
				if err != nil {
					return nil, err
				}
				if name == "" || name == "." || name == ".." || strings.Contains(name, "/") {
					return nil, fmt.Errorf("shmfs: inode %d has an entry named %q", ino, name)
				}
				var child uint32
				if err := binary.Read(br, binary.BigEndian, &child); err != nil {
					return nil, err
				}
				nd.entries[name] = int(child)
			}
		case TypeSymlink:
			if nd.target, err = readString(br); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("shmfs: inode %d has unknown type %d", ino, typB)
		}
		fs.inodes[ino] = nd
		fs.nAlloc++
		if nd.mtime > fs.clock {
			fs.clock = nd.mtime
		}
	}
	if fs.inodes[0] == nil || fs.inodes[0].typ != TypeDir {
		return nil, fmt.Errorf("shmfs: image has no root directory")
	}
	// The directory graph must be a tree over exactly the loaded inodes:
	// every entry names a loaded inode that no other entry names, and the
	// walk from the root reaches them all.
	reached := 1 // the root
	if err := fs.walkTree(func(string, *inode) { reached++ }); err != nil {
		return nil, fmt.Errorf("shmfs: corrupt directory graph: %w", err)
	}
	if reached != fs.nAlloc {
		return nil, fmt.Errorf("shmfs: corrupt directory graph: %d of %d inodes are unreachable from /", fs.nAlloc-reached, fs.nAlloc)
	}
	fs.BootScan()
	return fs, nil
}
