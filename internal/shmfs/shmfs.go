// Package shmfs implements Hemlock's kernel-maintained shared file system:
// a dedicated 1 GB region of every address space (0x30000000-0x70000000)
// holding exactly 1024 inodes, each file limited to 1 MB, with a
// globally-consistent, kernel-maintained mapping between virtual addresses
// and path names.
//
// The design follows section 3 of the paper ("Address Space and File System
// Organization"):
//
//   - the file system has exactly 1024 inodes and files are capped at 1 MB,
//     so the 1 GB region divides into exactly one slot per inode;
//   - hard links (other than '.' and '..') are prohibited, so there is a
//     one-one mapping between inodes and path names;
//   - a lookup table maps addresses back to files; it is initialised by
//     scanning the entire file system at boot time and updated as files
//     are created and destroyed, which lets the mapping survive crashes
//     without on-disk format changes. The paper's table is scanned
//     linearly; this one is indexed by slot, since slot number determines
//     address, and the linear scan is the oracle its tests compare against;
//   - all the normal file operations work; the only thing that sets the
//     file system apart is the association between file names and addresses.
//
// File contents are stored in reference-counted physical frames, so mapping
// a file into an address space (kern.MapSegment) aliases the very same
// bytes the read/write interface sees.
package shmfs

import (
	"errors"
	"fmt"
	"path"
	"sort"
	"strings"
	"sync"

	"hemlock/internal/mem"
	"hemlock/internal/obsv"
)

// Geometry of the shared file system (section 3 of the paper).
const (
	Base          uint32 = 0x30000000 // first address of the shared region
	Limit         uint32 = 0x70000000 // first address past the shared region
	NumInodes            = 1024       // the file system has exactly 1024 inodes
	MaxFile       uint32 = 1 << 20    // each file is limited to 1 MB
	SlotSize      uint32 = MaxFile    // region divides into one slot per inode
	framesPerFile        = int(MaxFile / mem.PageSize)
)

// Errors returned by the file system.
var (
	ErrNotExist   = errors.New("shmfs: no such file or directory")
	ErrExist      = errors.New("shmfs: file exists")
	ErrIsDir      = errors.New("shmfs: is a directory")
	ErrNotDir     = errors.New("shmfs: not a directory")
	ErrNoSpace    = errors.New("shmfs: out of inodes")
	ErrFileTooBig = errors.New("shmfs: file exceeds 1 MB limit")
	ErrHardLink   = errors.New("shmfs: hard links are prohibited")
	ErrNotEmpty   = errors.New("shmfs: directory not empty")
	ErrPerm       = errors.New("shmfs: permission denied")
	ErrBadAddr    = errors.New("shmfs: address not in shared file system")
	ErrLocked     = errors.New("shmfs: file is locked")
	ErrLoop       = errors.New("shmfs: too many levels of symbolic links")
	ErrInval      = errors.New("shmfs: invalid argument")
)

// FileType distinguishes inode kinds.
type FileType uint8

// Inode kinds.
const (
	TypeFile FileType = iota
	TypeDir
	TypeSymlink
)

func (t FileType) String() string {
	switch t {
	case TypeFile:
		return "file"
	case TypeDir:
		return "dir"
	case TypeSymlink:
		return "symlink"
	}
	return "?"
}

// Mode bits: a simplified owner/other Unix permission model.
type Mode uint16

// Permission bits.
const (
	ModeOwnerRead  Mode = 0400
	ModeOwnerWrite Mode = 0200
	ModeOtherRead  Mode = 0004
	ModeOtherWrite Mode = 0002

	// DefaultFileMode is rw-r--r-- style default for new files.
	DefaultFileMode = ModeOwnerRead | ModeOwnerWrite | ModeOtherRead
	// DefaultDirMode allows everyone to list.
	DefaultDirMode = DefaultFileMode
)

// inode is the in-memory inode.
type inode struct {
	ino     int
	typ     FileType
	mode    Mode
	uid     int
	size    uint32
	frames  []*mem.Frame // lazily grown, TypeFile only
	entries map[string]int
	target  string // TypeSymlink only
	mtime   uint64

	lockOwner int // pid holding the advisory lock; 0 = unlocked
	lockDepth int
}

// Stat describes an inode, as returned by the stat kernel call. Addr is the
// globally-agreed virtual address of the file's slot: the piece of state the
// paper adds to stat's usual contents.
type Stat struct {
	Ino   int
	Type  FileType
	Mode  Mode
	UID   int
	Size  uint32
	Addr  uint32
	Mtime uint64
}

// FS is the shared file system. All methods are safe for concurrent use.
type FS struct {
	mu     sync.Mutex
	phys   *mem.Physical
	inodes [NumInodes]*inode
	nAlloc int
	clock  uint64

	// table is the kernel's address-to-file table: the path of the file in
	// each slot, "" where the slot holds no file. Slot number determines
	// address, so AddrToPath indexes it directly. Creating a file fills its
	// entry and destroying one clears it; BootScan rebuilds the whole table
	// from the directory tree, so the mapping survives crashes without
	// on-disk format changes.
	table [NumInodes]string

	// Observability wiring (Observe); nil-safe when unwired.
	tracer              *obsv.Tracer
	ctrCreate, ctrOpens *obsv.Counter
}

// Observe wires the file system into the observability layer: segment
// creations and frame-map opens flow to the counters, with trace events
// on tracer when enabled. kern.New/NewWithFS call this.
func (fs *FS) Observe(tracer *obsv.Tracer, creates, opens *obsv.Counter) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.tracer, fs.ctrCreate, fs.ctrOpens = tracer, creates, opens
}

// New creates an empty shared file system (with a root directory at "/")
// backed by phys.
func New(phys *mem.Physical) (*FS, error) {
	fs := &FS{phys: phys}
	fs.inodes[0] = &inode{ino: 0, typ: TypeDir, mode: DefaultDirMode, entries: map[string]int{}}
	fs.nAlloc = 1
	return fs, nil
}

// AddrOf returns the fixed virtual address of inode ino's slot.
func AddrOf(ino int) uint32 { return Base + uint32(ino)*SlotSize }

// InodeAt returns the inode slot covering addr, or an error if addr is
// outside the shared region.
func InodeAt(addr uint32) (int, error) {
	if addr < Base || addr >= Limit {
		return 0, fmt.Errorf("%w: 0x%08x", ErrBadAddr, addr)
	}
	return int((addr - Base) / SlotSize), nil
}

// Contains reports whether addr lies inside the shared file system region.
func Contains(addr uint32) bool { return addr >= Base && addr < Limit }

func (fs *FS) tick() uint64 {
	fs.clock++
	return fs.clock
}

// ---- path resolution -------------------------------------------------

// Clean canonicalises p to an absolute slash path within the fs.
func Clean(p string) string {
	if p == "" {
		return "/"
	}
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	return path.Clean(p)
}

const maxSymlinkDepth = 16

// walk resolves p to an inode, following symlinks up to depth. If followLast
// is false a trailing symlink is returned itself.
func (fs *FS) walk(p string, followLast bool, depth int) (*inode, error) {
	if depth > maxSymlinkDepth {
		return nil, ErrLoop
	}
	p = Clean(p)
	cur := fs.inodes[0]
	if p == "/" {
		return cur, nil
	}
	parts := strings.Split(p[1:], "/")
	for i, name := range parts {
		if cur.typ != TypeDir {
			return nil, fmt.Errorf("%w: %s", ErrNotDir, name)
		}
		ino, ok := cur.entries[name]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNotExist, p)
		}
		next := fs.inodes[ino]
		if next == nil {
			return nil, fmt.Errorf("%w: %s (stale entry)", ErrNotExist, p)
		}
		last := i == len(parts)-1
		if next.typ == TypeSymlink && (!last || followLast) {
			target := next.target
			if !strings.HasPrefix(target, "/") {
				target = path.Join("/"+strings.Join(parts[:i], "/"), target)
			}
			rest := strings.Join(parts[i+1:], "/")
			if rest != "" {
				target = target + "/" + rest
			}
			return fs.walk(target, followLast, depth+1)
		}
		cur = next
	}
	return cur, nil
}

// parentOf resolves the directory containing p and returns it with the leaf
// name.
func (fs *FS) parentOf(p string) (*inode, string, error) {
	p = Clean(p)
	if p == "/" {
		return nil, "", fmt.Errorf("%w: cannot operate on /", ErrInval)
	}
	dir, leaf := path.Split(p)
	parent, err := fs.walk(dir, true, 0)
	if err != nil {
		return nil, "", err
	}
	if parent.typ != TypeDir {
		return nil, "", ErrNotDir
	}
	return parent, leaf, nil
}

// Slot choices for a new inode besides a given inode number. Ordinary
// creates take the lowest free slot. Infrastructure files (the ldl link
// cache) take the highest, so that ordinary creates, whose slot number
// determines the segment's public virtual address, see exactly the slot
// sequence they would in a world with no cache files at all.
const (
	slotLowest  = -1
	slotHighest = -2
)

// allocInode allocates the inode that slot picks: the given inode number,
// or the lowest or highest free one.
func (fs *FS) allocInode(slot int, typ FileType, mode Mode, uid int) (*inode, error) {
	ino := slot
	switch slot {
	case slotLowest:
		for ino = 0; ino < NumInodes && fs.inodes[ino] != nil; ino++ {
		}
	case slotHighest:
		for ino = NumInodes - 1; ino >= 0 && fs.inodes[ino] != nil; ino-- {
		}
	default:
		if fs.inodes[ino] != nil {
			return nil, fmt.Errorf("%w: inode %d already allocated", ErrExist, ino)
		}
	}
	if ino < 0 || ino >= NumInodes {
		return nil, ErrNoSpace
	}
	nd := &inode{ino: ino, typ: typ, mode: mode, uid: uid, mtime: fs.tick()}
	if typ == TypeDir {
		nd.entries = map[string]int{}
	}
	fs.inodes[ino] = nd
	fs.nAlloc++
	return nd, nil
}

func (fs *FS) checkPerm(nd *inode, uid int, write bool) error {
	if uid == 0 { // root
		return nil
	}
	var need Mode
	if nd.uid == uid {
		need = ModeOwnerRead
		if write {
			need = ModeOwnerWrite
		}
	} else {
		need = ModeOtherRead
		if write {
			need = ModeOtherWrite
		}
	}
	if nd.mode&need == 0 {
		return fmt.Errorf("%w: inode %d mode %04o uid %d", ErrPerm, nd.ino, nd.mode, uid)
	}
	return nil
}

// ---- public API --------------------------------------------------------

// create makes a new inode of type typ at p, in the slot chosen by slot
// (see allocInode), and enters a regular file in the address table. It
// fails if p exists.
func (fs *FS) create(p string, slot int, typ FileType, mode Mode, uid int, target string) (Stat, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, leaf, err := fs.parentOf(p)
	if err != nil {
		return Stat{}, err
	}
	if _, ok := parent.entries[leaf]; ok {
		return Stat{}, fmt.Errorf("%w: %s", ErrExist, p)
	}
	nd, err := fs.allocInode(slot, typ, mode, uid)
	if err != nil {
		return Stat{}, err
	}
	nd.target = target
	parent.entries[leaf] = nd.ino
	parent.mtime = fs.tick()
	if typ == TypeFile {
		fs.table[nd.ino] = Clean(p)
		fs.ctrCreate.Inc()
		if fs.tracer.Enabled() {
			fs.tracer.Emit(obsv.Event{Subsys: "shmfs", Name: "create", Mod: Clean(p), Addr: AddrOf(nd.ino)})
		}
	}
	return fs.statOf(nd), nil
}

// Create makes a new regular file at p owned by uid. It fails if p exists.
func (fs *FS) Create(p string, mode Mode, uid int) (Stat, error) {
	return fs.create(p, slotLowest, TypeFile, mode, uid, "")
}

// CreateAt makes a new regular file at p bound to the specific inode ino,
// and therefore to the fixed virtual address AddrOf(ino). It fails if p
// exists or the inode is taken. This is how a replica machine materialises
// a segment homed elsewhere: the home dictates the slot, so the public
// module occupies the same virtual address on every machine (the netshm
// replication protocol depends on it).
func (fs *FS) CreateAt(p string, ino int, mode Mode, uid int) (Stat, error) {
	if ino < 0 || ino >= NumInodes {
		return Stat{}, fmt.Errorf("%w: inode %d", ErrInval, ino)
	}
	return fs.create(p, ino, TypeFile, mode, uid, "")
}

// CreateTop makes a new regular file at p like Create, but draws its inode
// from the top of the slot space (see slotHighest).
func (fs *FS) CreateTop(p string, mode Mode, uid int) (Stat, error) {
	return fs.create(p, slotHighest, TypeFile, mode, uid, "")
}

// ContentVersion returns a cheap fingerprint of a file's current contents:
// a mix of its inode, size, and every backing frame's store-version counter.
// Unlike mtime, it moves when the file is mutated *through a mapping* (a
// store into a mapped segment bumps the frame version but never touches the
// inode), which is exactly how a shared module's bytes change under Hemlock.
// The ldl link cache validates its dependency manifest against this.
func (fs *FS) ContentVersion(p string) (uint64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	nd, err := fs.walk(p, true, 0)
	if err != nil {
		return 0, err
	}
	if nd.typ != TypeFile {
		return 0, fmt.Errorf("%w: %s is not a file", ErrInval, p)
	}
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(nd.ino))
	mix(uint64(nd.size))
	for _, f := range nd.frames {
		mix(f.Version())
	}
	return h, nil
}

// MkdirAll creates p and any missing parents.
func (fs *FS) MkdirAll(p string, mode Mode, uid int) error {
	return fs.mkdirAll(p, slotLowest, mode, uid)
}

// MkdirAllTop creates p and any missing parents with inodes drawn from the
// top of the slot space.
func (fs *FS) MkdirAllTop(p string, mode Mode, uid int) error {
	return fs.mkdirAll(p, slotHighest, mode, uid)
}

func (fs *FS) mkdirAll(p string, slot int, mode Mode, uid int) error {
	p = Clean(p)
	if p == "/" {
		return nil
	}
	cur := ""
	for _, part := range strings.Split(p[1:], "/") {
		cur = cur + "/" + part
		_, err := fs.create(cur, slot, TypeDir, mode, uid, "")
		if err != nil && !errors.Is(err, ErrExist) {
			return err
		}
	}
	return nil
}

// Symlink creates a symbolic link at p pointing at target.
func (fs *FS) Symlink(target, p string, uid int) error {
	_, err := fs.create(p, slotLowest, TypeSymlink, DefaultFileMode, uid, target)
	return err
}

// Readlink returns the target of the symlink at p.
func (fs *FS) Readlink(p string) (string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	nd, err := fs.walk(p, false, 0)
	if err != nil {
		return "", err
	}
	if nd.typ != TypeSymlink {
		return "", fmt.Errorf("%w: not a symlink", ErrInval)
	}
	return nd.target, nil
}

// Link always fails: hard links other than '.' and '..' are prohibited so
// that the inode-to-path mapping stays one-one.
func (fs *FS) Link(oldp, newp string) error {
	return fmt.Errorf("%w: %s -> %s", ErrHardLink, newp, oldp)
}

// Unlink removes the file or symlink at p, destroying its inode and, for
// public modules, the segment behind it. Directories must use Rmdir.
func (fs *FS) Unlink(p string, uid int) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, leaf, err := fs.parentOf(p)
	if err != nil {
		return err
	}
	ino, ok := parent.entries[leaf]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, p)
	}
	nd := fs.inodes[ino]
	if nd.typ == TypeDir {
		return fmt.Errorf("%w: %s", ErrIsDir, p)
	}
	if err := fs.checkPerm(parent, uid, true); err != nil {
		return err
	}
	delete(parent.entries, leaf)
	parent.mtime = fs.tick()
	fs.destroyInode(nd)
	return nil
}

// Rmdir removes the empty directory at p.
func (fs *FS) Rmdir(p string, uid int) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parent, leaf, err := fs.parentOf(p)
	if err != nil {
		return err
	}
	ino, ok := parent.entries[leaf]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, p)
	}
	nd := fs.inodes[ino]
	if nd.typ != TypeDir {
		return fmt.Errorf("%w: %s", ErrNotDir, p)
	}
	if len(nd.entries) != 0 {
		return fmt.Errorf("%w: %s", ErrNotEmpty, p)
	}
	if err := fs.checkPerm(parent, uid, true); err != nil {
		return err
	}
	delete(parent.entries, leaf)
	parent.mtime = fs.tick()
	fs.destroyInode(nd)
	return nil
}

func (fs *FS) destroyInode(nd *inode) {
	for _, f := range nd.frames {
		f.Release()
	}
	nd.frames = nil
	fs.inodes[nd.ino] = nil
	fs.nAlloc--
	fs.table[nd.ino] = ""
}

// StatPath stats the object at p, following symlinks.
func (fs *FS) StatPath(p string) (Stat, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	nd, err := fs.walk(p, true, 0)
	if err != nil {
		return Stat{}, err
	}
	return fs.statOf(nd), nil
}

// LstatPath stats without following a trailing symlink.
func (fs *FS) LstatPath(p string) (Stat, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	nd, err := fs.walk(p, false, 0)
	if err != nil {
		return Stat{}, err
	}
	return fs.statOf(nd), nil
}

func (fs *FS) statOf(nd *inode) Stat {
	return Stat{
		Ino:   nd.ino,
		Type:  nd.typ,
		Mode:  nd.mode,
		UID:   nd.uid,
		Size:  nd.size,
		Addr:  AddrOf(nd.ino),
		Mtime: nd.mtime,
	}
}

// Chmod changes the mode of the object at p.
func (fs *FS) Chmod(p string, mode Mode, uid int) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	nd, err := fs.walk(p, true, 0)
	if err != nil {
		return err
	}
	if uid != 0 && uid != nd.uid {
		return fmt.Errorf("%w: chmod %s", ErrPerm, p)
	}
	nd.mode = mode
	nd.mtime = fs.tick()
	return nil
}

// DirEntry is one entry returned by ReadDir.
type DirEntry struct {
	Name string
	Ino  int
	Type FileType
}

// ReadDir lists the directory at p in name order.
func (fs *FS) ReadDir(p string) ([]DirEntry, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	nd, err := fs.walk(p, true, 0)
	if err != nil {
		return nil, err
	}
	if nd.typ != TypeDir {
		return nil, fmt.Errorf("%w: %s", ErrNotDir, p)
	}
	out := make([]DirEntry, 0, len(nd.entries))
	for name, ino := range nd.entries {
		child := fs.inodes[ino]
		if child == nil {
			continue
		}
		out = append(out, DirEntry{Name: name, Ino: ino, Type: child.typ})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// ensureFrames grows nd.frames to cover at least size bytes.
func (fs *FS) ensureFrames(nd *inode, size uint32) error {
	if size > MaxFile {
		return fmt.Errorf("%w: %d bytes", ErrFileTooBig, size)
	}
	need := int((size + mem.PageSize - 1) / mem.PageSize)
	for len(nd.frames) < need {
		f, err := fs.phys.Alloc()
		if err != nil {
			return err
		}
		nd.frames = append(nd.frames, f)
	}
	return nil
}

// WriteAt writes buf into the file at p at offset off, growing the file as
// needed (up to the 1 MB limit). It is the traditional Unix write path; the
// bytes written are the very bytes a mapping of the file sees.
func (fs *FS) WriteAt(p string, off uint32, buf []byte, uid int) (int, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	nd, err := fs.walk(p, true, 0)
	if err != nil {
		return 0, err
	}
	if nd.typ != TypeFile {
		return 0, ErrIsDir
	}
	if err := fs.checkPerm(nd, uid, true); err != nil {
		return 0, err
	}
	return fs.writeAtInode(nd, off, buf)
}

func (fs *FS) writeAtInode(nd *inode, off uint32, buf []byte) (int, error) {
	end := off + uint32(len(buf))
	if end < off || end > MaxFile {
		return 0, fmt.Errorf("%w: write to %d", ErrFileTooBig, end)
	}
	if err := fs.ensureFrames(nd, end); err != nil {
		return 0, err
	}
	done := 0
	for done < len(buf) {
		pos := off + uint32(done)
		fi := int(pos / mem.PageSize)
		fo := pos % mem.PageSize
		// Writes may land in frames mapped executable elsewhere; noting
		// the store after the copy is what invalidates any predecoded
		// instructions.
		n := len(buf) - done
		if room := int(mem.PageSize - fo); n > room {
			n = room
		}
		copy(nd.frames[fi].Data[fo:], buf[done:done+n])
		nd.frames[fi].NoteStoreRange(fo, uint32(n))
		done += n
	}
	if end > nd.size {
		nd.size = end
	}
	nd.mtime = fs.tick()
	return done, nil
}

// ReadAt reads up to len(buf) bytes from the file at p at offset off. It
// returns the number of bytes read; reads past EOF return 0.
func (fs *FS) ReadAt(p string, off uint32, buf []byte, uid int) (int, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	nd, err := fs.walk(p, true, 0)
	if err != nil {
		return 0, err
	}
	if nd.typ != TypeFile {
		return 0, ErrIsDir
	}
	if err := fs.checkPerm(nd, uid, false); err != nil {
		return 0, err
	}
	if off >= nd.size {
		return 0, nil
	}
	want := uint32(len(buf))
	if off+want > nd.size {
		want = nd.size - off
	}
	done := uint32(0)
	for done < want {
		pos := off + done
		fi := int(pos / mem.PageSize)
		fo := pos % mem.PageSize
		n := copy(buf[done:want], nd.frames[fi].Data[fo:])
		done += uint32(n)
	}
	return int(done), nil
}

// ReadFile returns the whole contents of the file at p.
func (fs *FS) ReadFile(p string, uid int) ([]byte, error) {
	st, err := fs.StatPath(p)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, st.Size)
	if _, err := fs.ReadAt(p, 0, buf, uid); err != nil {
		return nil, err
	}
	return buf, nil
}

// WriteFile creates (or truncates) the file at p with the given contents.
func (fs *FS) WriteFile(p string, data []byte, mode Mode, uid int) error {
	fs.mu.Lock()
	nd, err := fs.walk(p, true, 0)
	fs.mu.Unlock()
	if errors.Is(err, ErrNotExist) {
		if _, cerr := fs.Create(p, mode, uid); cerr != nil {
			return cerr
		}
	} else if err != nil {
		return err
	} else if nd.typ != TypeFile {
		return ErrIsDir
	}
	if err := fs.Truncate(p, 0, uid); err != nil {
		return err
	}
	_, err = fs.WriteAt(p, 0, data, uid)
	return err
}

// Truncate sets the file's size. Growing zero-fills; shrinking keeps frames
// allocated (they are zeroed past the new end so stale data cannot leak
// through a mapping).
func (fs *FS) Truncate(p string, size uint32, uid int) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	nd, err := fs.walk(p, true, 0)
	if err != nil {
		return err
	}
	if nd.typ != TypeFile {
		return ErrIsDir
	}
	if err := fs.checkPerm(nd, uid, true); err != nil {
		return err
	}
	if size > MaxFile {
		return fmt.Errorf("%w: truncate to %d", ErrFileTooBig, size)
	}
	if err := fs.ensureFrames(nd, size); err != nil {
		return err
	}
	if size < nd.size {
		for pos := size; pos < nd.size; pos++ {
			fi := int(pos / mem.PageSize)
			fo := pos % mem.PageSize
			nd.frames[fi].Data[fo] = 0
		}
		for fi := int(size / mem.PageSize); fi <= int((nd.size-1)/mem.PageSize); fi++ {
			lo := uint32(0)
			if int(size/mem.PageSize) == fi {
				lo = size % mem.PageSize
			}
			hi := uint32(mem.PageSize)
			if int((nd.size-1)/mem.PageSize) == fi {
				hi = (nd.size-1)%mem.PageSize + 1
			}
			nd.frames[fi].NoteStoreRange(lo, hi-lo)
		}
	}
	nd.size = size
	nd.mtime = fs.tick()
	return nil
}

// SetSize grows the logical size without zeroing (used by the linkers after
// writing a module image through a mapping).
func (fs *FS) SetSize(p string, size uint32) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	nd, err := fs.walk(p, true, 0)
	if err != nil {
		return err
	}
	if nd.typ != TypeFile {
		return ErrIsDir
	}
	if err := fs.ensureFrames(nd, size); err != nil {
		return err
	}
	if size > nd.size {
		nd.size = size
	}
	return nil
}

// Frames returns the frames backing the file at p, growing the file to
// size bytes first so that all needed frames exist. The caller maps these
// frames into an address space; the frames remain owned by the file.
func (fs *FS) Frames(p string, size uint32, uid int, write bool) ([]*mem.Frame, Stat, error) {
	sp := fs.tracer.Begin("shmfs", "frames", 0, Clean(p))
	defer sp.End(0)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	nd, err := fs.walk(p, true, 0)
	if err != nil {
		return nil, Stat{}, err
	}
	if nd.typ != TypeFile {
		return nil, Stat{}, ErrIsDir
	}
	if err := fs.checkPerm(nd, uid, write); err != nil {
		return nil, Stat{}, err
	}
	if size < nd.size {
		size = nd.size
	}
	if err := fs.ensureFrames(nd, size); err != nil {
		return nil, Stat{}, err
	}
	if size > nd.size {
		nd.size = size
	}
	fs.ctrOpens.Inc()
	if fs.tracer.Enabled() {
		fs.tracer.Emit(obsv.Event{Subsys: "shmfs", Name: "open", Mod: Clean(p), Addr: AddrOf(nd.ino), Val: uint64(nd.size)})
	}
	return append([]*mem.Frame(nil), nd.frames...), fs.statOf(nd), nil
}

// ---- address <-> path kernel calls -------------------------------------

// PathToAddr returns the fixed virtual address of the file at p (the easy
// direction: stat already returns an inode number).
func (fs *FS) PathToAddr(p string) (uint32, error) {
	st, err := fs.StatPath(p)
	if err != nil {
		return 0, err
	}
	if st.Type != TypeFile {
		return 0, fmt.Errorf("%w: %s is a %s", ErrInval, p, st.Type)
	}
	return st.Addr, nil
}

// AddrToPath is the new kernel call: it translates an address inside the
// shared region into the path name of the file whose slot covers it, and
// the offset into that file. The slot number indexes the table directly.
func (fs *FS) AddrToPath(addr uint32) (string, uint32, error) {
	ino, err := InodeAt(addr)
	if err != nil {
		return "", 0, err
	}
	fs.mu.Lock()
	p := fs.table[ino]
	fs.mu.Unlock()
	if p == "" {
		return "", 0, fmt.Errorf("%w: no file at 0x%08x", ErrNotExist, addr)
	}
	return p, addr - AddrOf(ino), nil
}

// ClearTable discards the lookup table, simulating the state just after a
// crash/reboot before the boot-time scan has run.
func (fs *FS) ClearTable() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.table = [NumInodes]string{}
}

// BootScan rebuilds the address lookup table by scanning the entire file
// system, as the kernel does at boot time, and returns the number of files
// it found.
func (fs *FS) BootScan() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.table = [NumInodes]string{}
	n := 0
	// The directory graph is a tree: Load rejects any other, and the
	// operations preserve it, so the walk cannot fail.
	fs.walkTree(func(p string, nd *inode) {
		if nd.typ == TypeFile {
			fs.table[nd.ino] = p
			n++
		}
	})
	return n
}

// walkTree calls fn for every inode reachable from the root, in path
// order, with its path. It fails at a directory entry naming an inode that
// is out of range or not allocated, or one already reached (a cycle, or a
// hard link), so it also proves the directory graph is a tree.
func (fs *FS) walkTree(fn func(p string, nd *inode)) error {
	var reached [NumInodes]bool
	reached[0] = true
	var rec func(dir *inode, prefix string) error
	rec = func(dir *inode, prefix string) error {
		names := make([]string, 0, len(dir.entries))
		for name := range dir.entries {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			p, ino := path.Join(prefix, name), dir.entries[name]
			switch {
			case ino < 0 || ino >= NumInodes || fs.inodes[ino] == nil:
				return fmt.Errorf("%s names inode %d, which does not exist", p, ino)
			case reached[ino]:
				return fmt.Errorf("%s reaches inode %d a second time", p, ino)
			}
			reached[ino] = true
			nd := fs.inodes[ino]
			fn(p, nd)
			if nd.typ == TypeDir {
				if err := rec(nd, p); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return rec(fs.inodes[0], "/")
}

// CheckIndex cross-checks the address table against the live file inodes
// and the directory tree: a slot has a table entry exactly when it holds a
// live file, and the tree reaches every such file once, at the path its
// entry records. The error names the structure found at odds first
// ("inode", "table" or "tree").
func (fs *FS) CheckIndex() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var reached [NumInodes]bool
	var stale error
	err := fs.walkTree(func(p string, nd *inode) {
		reached[nd.ino] = true
		if nd.typ == TypeFile && fs.table[nd.ino] != p && stale == nil {
			stale = fmt.Errorf("shmfs: index: table slot %d names %q, the tree has inode %d at %s", nd.ino, fs.table[nd.ino], nd.ino, p)
		}
	})
	if err != nil {
		return fmt.Errorf("shmfs: index: tree: %w", err)
	}
	if stale != nil {
		return stale
	}
	for ino, nd := range fs.inodes {
		isFile := nd != nil && nd.typ == TypeFile
		switch {
		case isFile && fs.table[ino] == "":
			return fmt.Errorf("shmfs: index: inode %d is a live file with no table entry", ino)
		case !isFile && fs.table[ino] != "":
			return fmt.Errorf("shmfs: index: table slot %d names %s, but inode %d is not a live file", ino, fs.table[ino], ino)
		case isFile && !reached[ino]:
			return fmt.Errorf("shmfs: index: tree does not reach inode %d (%s)", ino, fs.table[ino])
		}
	}
	return nil
}

// TableLen returns the number of live table entries (for fsck and tests).
func (fs *FS) TableLen() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n := 0
	for _, p := range fs.table {
		if p != "" {
			n++
		}
	}
	return n
}

// ---- advisory file locking ---------------------------------------------

// TryLock attempts to acquire the advisory exclusive lock on the file at p
// for owner pid. It is reentrant for the same pid. ldl uses this to
// synchronize the creation of shared segments.
func (fs *FS) TryLock(p string, pid int) (bool, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	nd, err := fs.walk(p, true, 0)
	if err != nil {
		return false, err
	}
	if nd.lockOwner == 0 || nd.lockOwner == pid {
		nd.lockOwner = pid
		nd.lockDepth++
		return true, nil
	}
	return false, nil
}

// Unlock releases one level of the advisory lock held by pid.
func (fs *FS) Unlock(p string, pid int) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	nd, err := fs.walk(p, true, 0)
	if err != nil {
		return err
	}
	if nd.lockOwner != pid {
		return fmt.Errorf("%w: unlock by non-owner %d", ErrLocked, pid)
	}
	nd.lockDepth--
	if nd.lockDepth == 0 {
		nd.lockOwner = 0
	}
	return nil
}

// LockOwner reports the pid holding the lock on p (0 if unlocked).
func (fs *FS) LockOwner(p string) (int, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	nd, err := fs.walk(p, true, 0)
	if err != nil {
		return 0, err
	}
	return nd.lockOwner, nil
}

// ---- inventory / perusal -----------------------------------------------

// InodesInUse returns the number of allocated inodes.
func (fs *FS) InodesInUse() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.nAlloc
}

// Usage summarises file-system occupancy: the raw material for the doctor's
// exhaustion checks and the daemon's /metrics gauges.
type Usage struct {
	InodesInUse int    // allocated inodes of any type
	InodesTotal int    // always NumInodes
	Files       int    // regular files
	Dirs        int    // directories (including /)
	Symlinks    int    // symbolic links
	Bytes       uint64 // sum of regular-file sizes
	LargestFile uint32 // size of the fullest slot
	LargestIno  int    // its inode (-1 when there are no files)
}

// SlotFill reports how full the fullest slot is, in [0,1].
func (u Usage) SlotFill() float64 { return float64(u.LargestFile) / float64(MaxFile) }

// InodeFill reports the allocated fraction of the inode table, in [0,1].
func (u Usage) InodeFill() float64 { return float64(u.InodesInUse) / float64(u.InodesTotal) }

// Usage scans the inode table and returns occupancy totals.
func (fs *FS) Usage() Usage {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	u := Usage{InodesTotal: NumInodes, LargestIno: -1}
	for _, nd := range fs.inodes {
		if nd == nil {
			continue
		}
		u.InodesInUse++
		switch nd.typ {
		case TypeFile:
			u.Files++
			u.Bytes += uint64(nd.size)
			if nd.size >= u.LargestFile && (nd.size > u.LargestFile || u.LargestIno < 0) {
				u.LargestFile = nd.size
				u.LargestIno = nd.ino
			}
		case TypeDir:
			u.Dirs++
		case TypeSymlink:
			u.Symlinks++
		}
	}
	return u
}

// WalkFiles calls fn for every regular file in the file system (the
// "ability to peruse all of the segments in existence" that the paper calls
// crucial for manual garbage collection). Walk order is deterministic.
func (fs *FS) WalkFiles(fn func(path string, st Stat) error) error {
	type item struct {
		p  string
		st Stat
	}
	fs.mu.Lock()
	var items []item
	fs.walkTree(func(p string, nd *inode) {
		if nd.typ == TypeFile {
			items = append(items, item{p, fs.statOf(nd)})
		}
	})
	fs.mu.Unlock()
	for _, it := range items {
		if err := fn(it.p, it.st); err != nil {
			return err
		}
	}
	return nil
}

// ---- word-atomic file access -------------------------------------------------

// StoreWordAt atomically stores the big-endian word at byte offset off of
// the file at p, growing the file if needed. The dynamic linker patches
// PLT slots and text words in shared segments through this while sibling
// guest CPUs may be executing out of the very frame being written: the
// host-atomic frame store (with its version bump after) guarantees a
// concurrently fetching CPU decodes the old word or the new word — never a
// torn mix — and re-validates on its next fetch.
func (fs *FS) StoreWordAt(p string, off, val uint32, uid int) error {
	if off%4 != 0 {
		return fmt.Errorf("shmfs: unaligned word store at %d", off)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	nd, err := fs.walk(p, true, 0)
	if err != nil {
		return err
	}
	if nd.typ != TypeFile {
		return ErrIsDir
	}
	if err := fs.checkPerm(nd, uid, true); err != nil {
		return err
	}
	if err := fs.ensureFrames(nd, off+4); err != nil {
		return err
	}
	nd.frames[off/mem.PageSize].StoreWordBE(off%mem.PageSize, val)
	if off+4 > nd.size {
		nd.size = off + 4
	}
	nd.mtime = fs.tick()
	return nil
}

// LoadWordAt atomically loads the big-endian word at byte offset off of
// the file at p. Reads past EOF return 0, like ReadAt.
func (fs *FS) LoadWordAt(p string, off uint32, uid int) (uint32, error) {
	if off%4 != 0 {
		return 0, fmt.Errorf("shmfs: unaligned word load at %d", off)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	nd, err := fs.walk(p, true, 0)
	if err != nil {
		return 0, err
	}
	if nd.typ != TypeFile {
		return 0, ErrIsDir
	}
	if err := fs.checkPerm(nd, uid, false); err != nil {
		return 0, err
	}
	if off+4 > nd.size {
		return 0, nil
	}
	return nd.frames[off/mem.PageSize].LoadWordBE(off % mem.PageSize), nil
}
