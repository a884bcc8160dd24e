package objfile

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// Binary encoding of HEMO objects and HEMX images. Big-endian throughout,
// matching the simulated machine. Strings are u16 length + bytes; byte
// blobs are u32 length + bytes.

const (
	objMagic   = "HEMO"
	imgMagic   = "HEMX"
	objVersion = 1
)

type writer struct {
	w   *bufio.Writer
	err error
}

func (w *writer) str(s string) {
	if w.err != nil {
		return
	}
	if len(s) > 0xFFFF {
		w.err = fmt.Errorf("objfile: string too long (%d bytes)", len(s))
		return
	}
	var b [2]byte
	binary.BigEndian.PutUint16(b[:], uint16(len(s)))
	w.w.Write(b[:])
	_, w.err = w.w.WriteString(s)
}

func (w *writer) u8(v uint8) {
	if w.err != nil {
		return
	}
	w.err = w.w.WriteByte(v)
}

func (w *writer) u32(v uint32) {
	if w.err != nil {
		return
	}
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	_, w.err = w.w.Write(b[:])
}

func (w *writer) i32(v int32) { w.u32(uint32(v)) }

func (w *writer) blob(b []byte) {
	w.u32(uint32(len(b)))
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(b)
}

func (w *writer) strs(ss []string) {
	w.u32(uint32(len(ss)))
	for _, s := range ss {
		w.str(s)
	}
}

// reader decodes from an in-memory encoding; the first short read sets err
// and every later read returns zero values.
type reader struct {
	b   []byte
	err error
}

// take consumes the next n bytes, or fails if fewer remain.
func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b) {
		r.b = nil
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	b := r.b[:n]
	r.b = r.b[n:]
	return b
}

func (r *reader) str() string {
	b := r.take(2)
	if b == nil {
		return ""
	}
	return string(r.take(int(binary.BigEndian.Uint16(b))))
}

func (r *reader) u8() uint8 {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *reader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (r *reader) i32() int32 { return int32(r.u32()) }

// blob returns a copy, so a decoded object never aliases its encoding.
func (r *reader) blob() []byte {
	b := r.take(int(r.u32()))
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

func (r *reader) strs() []string {
	n := r.u32()
	if r.err != nil {
		return nil
	}
	if n > 1<<20 {
		r.err = fmt.Errorf("objfile: string list of %d entries exceeds sanity limit", n)
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	for i := uint32(0); i < n; i++ {
		out = append(out, r.str())
	}
	return out
}

// Encode writes the object to w in HEMO format.
func (o *Object) Encode(out io.Writer) error {
	w := &writer{w: bufio.NewWriter(out)}
	w.w.WriteString(objMagic)
	w.u32(objVersion)
	w.str(o.Name)
	gp := uint8(0)
	if o.UsesGP {
		gp = 1
	}
	w.u8(gp)
	w.blob(o.Text)
	w.blob(o.Data)
	w.u32(o.BssSize)
	w.u32(uint32(len(o.Symbols)))
	for i := range o.Symbols {
		s := &o.Symbols[i]
		w.str(s.Name)
		w.u8(uint8(s.Section))
		w.u32(s.Value)
		g := uint8(0)
		if s.Global {
			g = 1
		}
		w.u8(g)
		w.u32(s.Size)
	}
	w.u32(uint32(len(o.Relocs)))
	for _, r := range o.Relocs {
		w.u8(uint8(r.Section))
		w.u32(r.Offset)
		w.u32(uint32(r.Sym))
		w.u8(uint8(r.Type))
		w.i32(r.Addend)
	}
	w.u32(uint32(len(o.Deps)))
	for _, d := range o.Deps {
		w.str(d.Name)
		w.u8(uint8(d.Class))
	}
	w.strs(o.SearchPath)
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// Bytes returns the HEMO encoding of the object.
func (o *Object) Bytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := o.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeBytes decodes a HEMO object from its encoding b.
func DecodeBytes(b []byte) (*Object, error) {
	r := &reader{b: b}
	magic := r.take(4)
	if r.err != nil {
		return nil, fmt.Errorf("objfile: reading magic: %w", r.err)
	}
	if string(magic) != objMagic {
		return nil, fmt.Errorf("objfile: bad magic %q (not a HEMO object)", magic)
	}
	if v := r.u32(); r.err == nil && v != objVersion {
		return nil, fmt.Errorf("objfile: unsupported version %d", v)
	}
	o := &Object{}
	o.Name = r.str()
	o.UsesGP = r.u8() != 0
	o.Text = r.blob()
	o.Data = r.blob()
	o.BssSize = r.u32()
	nsym := r.u32()
	if r.err == nil && nsym > 1<<20 {
		return nil, fmt.Errorf("objfile: %d symbols exceeds sanity limit", nsym)
	}
	for i := uint32(0); i < nsym && r.err == nil; i++ {
		var s Symbol
		s.Name = r.str()
		s.Section = Section(r.u8())
		s.Value = r.u32()
		s.Global = r.u8() != 0
		s.Size = r.u32()
		o.Symbols = append(o.Symbols, s)
	}
	nrel := r.u32()
	if r.err == nil && nrel > 1<<20 {
		return nil, fmt.Errorf("objfile: %d relocs exceeds sanity limit", nrel)
	}
	for i := uint32(0); i < nrel && r.err == nil; i++ {
		var rel Reloc
		rel.Section = Section(r.u8())
		rel.Offset = r.u32()
		rel.Sym = int(r.u32())
		rel.Type = RelType(r.u8())
		rel.Addend = r.i32()
		o.Relocs = append(o.Relocs, rel)
	}
	ndep := r.u32()
	if r.err == nil && ndep > 1<<20 {
		return nil, fmt.Errorf("objfile: %d deps exceeds sanity limit", ndep)
	}
	for i := uint32(0); i < ndep && r.err == nil; i++ {
		var d ModuleRef
		d.Name = r.str()
		d.Class = Class(r.u8())
		o.Deps = append(o.Deps, d)
	}
	o.SearchPath = r.strs()
	if r.err != nil {
		return nil, fmt.Errorf("objfile: decoding %q: %w", o.Name, r.err)
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	return o, nil
}

// EncodeImage writes the load image to out in HEMX format.
func (im *Image) EncodeImage(out io.Writer) error {
	w := &writer{w: bufio.NewWriter(out)}
	w.w.WriteString(imgMagic)
	w.u32(objVersion)
	w.str(im.Name)
	w.u32(im.Entry)
	w.u32(im.TextBase)
	w.blob(im.Text)
	w.u32(im.DataBase)
	w.blob(im.Data)
	w.u32(im.BssBase)
	w.u32(im.BssSize)
	w.u32(im.TrampBase)
	w.u32(im.TrampSize)
	w.u32(uint32(len(im.Symbols)))
	for _, s := range im.Symbols {
		w.str(s.Name)
		w.u32(s.Addr)
		w.u32(s.Size)
	}
	w.u32(uint32(len(im.Relocs)))
	for _, r := range im.Relocs {
		w.u32(r.Addr)
		w.str(r.Name)
		w.u8(uint8(r.Type))
		w.i32(r.Addend)
	}
	w.u32(uint32(len(im.Dyn.DynModules)))
	for _, d := range im.Dyn.DynModules {
		w.str(d.Name)
		w.u8(uint8(d.Class))
	}
	w.u32(uint32(len(im.Dyn.StaticPublic)))
	for _, sp := range im.Dyn.StaticPublic {
		w.str(sp.Name)
		w.str(sp.Path)
		w.str(sp.Template)
		w.u32(sp.Addr)
	}
	w.str(im.Dyn.LinkDir)
	w.strs(im.Dyn.CmdPath)
	w.strs(im.Dyn.EnvPath)
	w.strs(im.Dyn.DefaultPath)
	w.u32(uint32(len(im.PLT)))
	for _, s := range im.PLT {
		w.str(s.Name)
		w.u32(s.Addr)
		w.u32(s.Size)
	}
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// ImageBytes returns the HEMX encoding of the image.
func (im *Image) ImageBytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := im.EncodeImage(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeImageBytes decodes a HEMX load image from its encoding b.
func DecodeImageBytes(b []byte) (*Image, error) {
	r := &reader{b: b}
	magic := r.take(4)
	if r.err != nil {
		return nil, fmt.Errorf("objfile: reading image magic: %w", r.err)
	}
	if string(magic) != imgMagic {
		return nil, fmt.Errorf("objfile: bad magic %q (not a HEMX image)", magic)
	}
	if v := r.u32(); r.err == nil && v != objVersion {
		return nil, fmt.Errorf("objfile: unsupported image version %d", v)
	}
	im := &Image{}
	im.Name = r.str()
	im.Entry = r.u32()
	im.TextBase = r.u32()
	im.Text = r.blob()
	im.DataBase = r.u32()
	im.Data = r.blob()
	im.BssBase = r.u32()
	im.BssSize = r.u32()
	im.TrampBase = r.u32()
	im.TrampSize = r.u32()
	nsym := r.u32()
	for i := uint32(0); i < nsym && r.err == nil; i++ {
		var s ImageSym
		s.Name = r.str()
		s.Addr = r.u32()
		s.Size = r.u32()
		im.Symbols = append(im.Symbols, s)
	}
	nrel := r.u32()
	for i := uint32(0); i < nrel && r.err == nil; i++ {
		var rel ImageReloc
		rel.Addr = r.u32()
		rel.Name = r.str()
		rel.Type = RelType(r.u8())
		rel.Addend = r.i32()
		im.Relocs = append(im.Relocs, rel)
	}
	ndyn := r.u32()
	for i := uint32(0); i < ndyn && r.err == nil; i++ {
		var d ModuleRef
		d.Name = r.str()
		d.Class = Class(r.u8())
		im.Dyn.DynModules = append(im.Dyn.DynModules, d)
	}
	nsp := r.u32()
	for i := uint32(0); i < nsp && r.err == nil; i++ {
		var sp StaticPublicRef
		sp.Name = r.str()
		sp.Path = r.str()
		sp.Template = r.str()
		sp.Addr = r.u32()
		im.Dyn.StaticPublic = append(im.Dyn.StaticPublic, sp)
	}
	im.Dyn.LinkDir = r.str()
	im.Dyn.CmdPath = r.strs()
	im.Dyn.EnvPath = r.strs()
	im.Dyn.DefaultPath = r.strs()
	nplt := r.u32()
	for i := uint32(0); i < nplt && r.err == nil; i++ {
		var s ImageSym
		s.Name = r.str()
		s.Addr = r.u32()
		s.Size = r.u32()
		im.PLT = append(im.PLT, s)
	}
	if r.err != nil {
		return nil, fmt.Errorf("objfile: decoding image %q: %w", im.Name, r.err)
	}
	return im, nil
}
