// Package core assembles the complete Hemlock system — kernel, shared file
// system, static linker, lazy dynamic linker, and fault handler — behind
// one façade, and provides the hosted-program conveniences the examples
// and experiments are written against: building templates, linking
// programs, launching them, and language-level (named, typed) access to
// shared and private variables.
package core

import (
	"fmt"
	"io"

	"hemlock/internal/isa"
	"hemlock/internal/kern"
	"hemlock/internal/ldl"
	"hemlock/internal/lds"
	"hemlock/internal/mem"
	"hemlock/internal/objfile"
	"hemlock/internal/obsv"
	"hemlock/internal/shmfs"
)

// System is a booted Hemlock machine.
type System struct {
	K  *kern.Kernel
	FS *shmfs.FS
	LD *lds.Linker
	W  *ldl.World
}

// NewSystem boots a fresh machine with an empty shared file system.
// Stable linking — the persistent link cache and zygote launches — is on by
// default; SetStableLinking turns either off.
func NewSystem() *System {
	k := kern.New()
	return newSystem(k, k.FS)
}

func newSystem(k *kern.Kernel, fs *shmfs.FS) *System {
	s := &System{K: k, FS: fs, LD: lds.New(fs), W: ldl.NewWorld(k)}
	s.W.SetStableLinking(true, true)
	return s
}

// NewSystemLite boots only the shared file system of a machine — no
// kernel, no linkers. A netshm fleet member needs nothing more (the
// protocol reads and writes segments through FS), and skipping the kernel
// is what makes a 1024-machine fleet cheap enough to boot in a benchmark
// loop. Code paths that need K, LD or W must use NewSystem.
func NewSystemLite() *System {
	phys := mem.NewPhysical(0)
	fs, err := shmfs.New(phys)
	if err != nil {
		panic(fmt.Sprintf("core: shmfs boot failed: %v", err))
	}
	return &System{FS: fs}
}

// Load boots a machine from a disk image previously written by Save.
func Load(r io.Reader) (*System, error) {
	phys := mem.NewPhysical(0)
	fs, err := shmfs.Load(r, phys)
	if err != nil {
		return nil, err
	}
	return newSystem(kern.NewWithFS(fs, phys), fs), nil
}

// SetStableLinking flips the link cache and zygote registry at run time.
// Disabling zygotes drops every parked template.
func (s *System) SetStableLinking(cache, zygote bool) {
	s.W.SetStableLinking(cache, zygote)
	if !zygote {
		s.K.DropAllZygotes()
	}
}

// Save writes the machine's shared file system to a disk image.
func (s *System) Save(w io.Writer) error { return s.FS.Save(w) }

// Obs is the machine's observability hub: the kernel-wide tracer that
// every subsystem emits typed events into, and the registry of counters,
// gauges and histograms. Attach sinks to Obs().T to capture a trace;
// snapshot Obs().R for the metrics.
func (s *System) Obs() *obsv.Obs { return s.K.Obs }

// ResetWorld discards the kernel-resident dynamic-linker state, as a
// reboot would: public modules stay on disk, but their link status is
// re-derived from the templates on next use. The lazy-vs-eager experiment
// uses this to measure cold-start linking repeatedly. Zygote templates are
// kernel-resident state and do not survive the reboot; link-cache files do
// (they live on the shared file system), so post-reset launches may still
// replay.
func (s *System) ResetWorld() {
	s.K.DropAllZygotes()
	cache, zygote := s.W.CacheEnabled, s.W.ZygoteEnabled
	s.W = ldl.NewWorld(s.K)
	s.W.SetStableLinking(cache, zygote)
}

// ---- building ---------------------------------------------------------------

// AddTemplate encodes obj as a HEMO file at path (creating parent
// directories).
func (s *System) AddTemplate(path string, obj *objfile.Object) error {
	b, err := obj.Bytes()
	if err != nil {
		return err
	}
	return s.writeFile(path, b)
}

// Asm assembles src and stores the template at path: the cc step of
// Figure 1.
func (s *System) Asm(path, src string) (*objfile.Object, error) {
	name := baseName(path)
	obj, err := isa.Assemble(name, src)
	if err != nil {
		return nil, err
	}
	if err := s.AddTemplate(path, obj); err != nil {
		return nil, err
	}
	return obj, nil
}

func baseName(p string) string {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '/' {
			return p[i+1:]
		}
	}
	return p
}

func dirName(p string) string {
	p = shmfs.Clean(p)
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] == '/' {
			if i == 0 {
				return "/"
			}
			return p[:i]
		}
	}
	return "/"
}

func (s *System) writeFile(path string, data []byte) error {
	if err := s.FS.MkdirAll(dirName(path), shmfs.DefaultDirMode, 0); err != nil {
		return err
	}
	return s.FS.WriteFile(path, data, shmfs.DefaultFileMode, 0)
}

// Link runs the static linker.
func (s *System) Link(opts *lds.Options) (*lds.Result, error) { return s.LD.Link(opts) }

// SaveExecutable writes a linked image as a HEMX file at path.
func (s *System) SaveExecutable(path string, im *objfile.Image) error {
	b, err := im.ImageBytes()
	if err != nil {
		return err
	}
	return s.writeFile(path, b)
}

// LoadExecutable reads a HEMX image from path.
func (s *System) LoadExecutable(path string) (*objfile.Image, error) {
	b, err := s.FS.ReadFile(path, 0)
	if err != nil {
		return nil, err
	}
	return objfile.DecodeImageBytes(b)
}

// ---- running ----------------------------------------------------------------

// Program is a launched Hemlock process together with its dynamic-linker
// state.
type Program struct {
	Sys *System
	P   *kern.Process
	LDL *ldl.Proc
}

// Launch spawns a process for uid with the given environment, execs the
// image, and runs the crt0/ldl start-up sequence.
//
// Under stable linking a repeat launch short-circuits: if a zygote template
// is parked under this launch's content-hash key and the key's link-cache
// entry is still valid, the process is CoW-cloned from the fully linked
// template — no exec, no linking. Cold launches park themselves as the
// template for the next identical launch.
func (s *System) Launch(im *objfile.Image, uid int, env map[string]string) (*Program, error) {
	var key string
	if s.W.ZygoteEnabled {
		key = s.W.LaunchKey(im, uid, env)
		// Singleflight: concurrent identical launches (the serve daemon
		// under load, an SMP workload fanning out) serialize on the key.
		// The first one in links cold and parks the zygote; everyone who
		// waited clones it. Exactly one cold link per key.
		unlock := s.W.LockLaunch(key)
		defer unlock()
		if s.K.HasZygote(key) && s.W.CacheValid(key) {
			sp := s.K.Obs.Tracer().Begin("kern", "launch", 0, im.Name)
			zsp := s.K.Obs.Tracer().Begin("link", "zygote_clone", 0, im.Name)
			p, ok := s.K.CloneZygote(key)
			zsp.End(0)
			sp.End(0)
			if ok {
				if pr, prOK := ldl.ProcOf(p); prOK {
					s.W.CreditZygoteLaunch(key)
					return &Program{Sys: s, P: p, LDL: pr}, nil
				}
				// No linker state cloned (should not happen); fall cold.
			}
		}
	}
	p := s.K.Spawn(uid)
	sp := s.K.Obs.Tracer().Begin("kern", "launch", p.PID, im.Name)
	defer sp.End(0)
	for k, v := range env {
		p.Setenv(k, v)
	}
	if err := p.Exec(im); err != nil {
		return nil, err
	}
	pr, err := s.W.Start(p, im)
	if err != nil {
		return nil, err
	}
	if s.W.ZygoteEnabled {
		rsp := s.K.Obs.Tracer().Begin("link", "zygote_register", p.PID, im.Name)
		s.K.RegisterZygote(key, p)
		rsp.End(0)
	}
	return &Program{Sys: s, P: p, LDL: pr}, nil
}

// BuildAndRun is the quickstart path: link the modules, launch, and run to
// completion, returning the program (for its console output and exit code).
func (s *System) BuildAndRun(opts *lds.Options, uid int, env map[string]string, maxSteps uint64) (*Program, error) {
	res, err := s.Link(opts)
	if err != nil {
		return nil, err
	}
	prog, err := s.Launch(res.Image, uid, env)
	if err != nil {
		return nil, err
	}
	if err := prog.Run(maxSteps); err != nil {
		return prog, err
	}
	return prog, nil
}

// Run drives the program's CPU until exit (or maxSteps).
func (pg *Program) Run(maxSteps uint64) error {
	_, err := pg.Sys.K.Run(pg.P, maxSteps)
	return err
}

// Fork forks the program: private segments copied, public shared, linker
// state cloned (via the CloneRuntime hook ldl installed).
func (pg *Program) Fork() (*Program, error) {
	child, err := pg.Sys.K.Fork(pg.P)
	if err != nil {
		return nil, err
	}
	pr, ok := ldl.ProcOf(child)
	if !ok {
		pr = pg.LDL.CloneFor(child)
	}
	return &Program{Sys: pg.Sys, P: child, LDL: pr}, nil
}

// Output returns the program's console output.
func (pg *Program) Output() string { return pg.P.Stdout.String() }

// ---- language-level variable access ------------------------------------------

// Var is a named program object: the hosted-program equivalent of the
// transparent, language-level access Hemlock gives C programs. Loads and
// stores go through the process address space with full fault handling, so
// touching a shared variable in an unlinked module triggers lazy linking
// exactly as a compiled reference would.
type Var struct {
	pg   *Program
	Name string
	Addr uint32
}

// Var resolves a named object (in the image or any linked-in module).
func (pg *Program) Var(name string) (*Var, error) {
	addr, ok := pg.LDL.Resolve(name)
	if !ok {
		return nil, fmt.Errorf("core: undefined symbol %q", name)
	}
	return &Var{pg: pg, Name: name, Addr: addr}, nil
}

// VarAt wraps a raw address (e.g. one read from a shared pointer).
func (pg *Program) VarAt(name string, addr uint32) *Var {
	return &Var{pg: pg, Name: name, Addr: addr}
}

// Load reads the variable as a 32-bit word.
func (v *Var) Load() (uint32, error) { return v.pg.P.LoadWord(v.Addr) }

// Store writes the variable as a 32-bit word.
func (v *Var) Store(val uint32) error { return v.pg.P.StoreWord(v.Addr, val) }

// LoadAt reads the word at byte offset off within the object.
func (v *Var) LoadAt(off uint32) (uint32, error) { return v.pg.P.LoadWord(v.Addr + off) }

// StoreAt writes the word at byte offset off within the object.
func (v *Var) StoreAt(off, val uint32) error { return v.pg.P.StoreWord(v.Addr+off, val) }

// ReadBytes copies n bytes starting at offset off.
func (v *Var) ReadBytes(off, n uint32) ([]byte, error) {
	buf := make([]byte, n)
	if err := v.pg.P.ReadMem(v.Addr+off, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// WriteBytes stores data at offset off.
func (v *Var) WriteBytes(off uint32, data []byte) error {
	return v.pg.P.WriteMem(v.Addr+off, data)
}

// Follow loads the word at offset off and treats it as a pointer,
// returning a Var for the target. Dereferencing it may fault the target
// segment into the address space — the paper's pointer-following.
func (v *Var) Follow(off uint32) (*Var, error) {
	addr, err := v.LoadAt(off)
	if err != nil {
		return nil, err
	}
	return &Var{pg: v.pg, Name: v.Name + "->", Addr: addr}, nil
}

// CString reads the NUL-terminated string at offset off.
func (v *Var) CString(off uint32) (string, error) {
	return v.pg.P.CString(v.Addr + off)
}
