// Package kstruct provides layout-driven access to C-style structures
// stored in simulated kernel memory.
//
// The Linux HFI driver allocates its internal state (hfi1_filedata,
// sdma_engine, sdma_state, ...) as raw bytes in kernel memory and reads
// or writes fields through a Layout — the authoritative one compiled into
// the driver. The PicoDriver in the LWK accesses the *same* bytes through
// a layout extracted from the driver module's DWARF debug information
// (package dwarfx). If the extracted offsets are wrong — the manual-
// header porting hazard described in §3.2 of the paper — the PicoDriver
// silently reads garbage; tests exploit this to demonstrate the failure
// mode.
package kstruct

import (
	"fmt"

	"repro/internal/kmem"
)

// Kind is the scalar kind of a field.
type Kind uint8

const (
	// U8 is an unsigned 8-bit integer.
	U8 Kind = iota
	// U16 is an unsigned 16-bit integer.
	U16
	// U32 is an unsigned 32-bit integer.
	U32
	// U64 is an unsigned 64-bit integer.
	U64
	// Enum is a C enum (4 bytes on x86_64).
	Enum
	// Ptr is a 64-bit pointer (kernel virtual address).
	Ptr
	// Bytes is an opaque byte region (embedded struct or char array).
	Bytes
)

// Size returns the size in bytes of one element of the kind. Bytes kinds
// have no intrinsic size; the Field carries it.
func (k Kind) Size() uint64 {
	switch k {
	case U8:
		return 1
	case U16:
		return 2
	case U32, Enum:
		return 4
	case U64, Ptr:
		return 8
	}
	return 0
}

func (k Kind) String() string {
	switch k {
	case U8:
		return "u8"
	case U16:
		return "u16"
	case U32:
		return "u32"
	case U64:
		return "u64"
	case Enum:
		return "enum"
	case Ptr:
		return "ptr"
	case Bytes:
		return "bytes"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Field describes one member of a structure.
type Field struct {
	Name   string
	Offset uint64
	Kind   Kind
	// Count is the array element count; 0 or 1 means scalar.
	Count uint64
	// ByteLen is the total byte length for Bytes fields.
	ByteLen uint64
	// TypeName is the C type name ("enum sdma_states", "u32", ...).
	TypeName string
}

// Size returns the total byte size of the field.
func (f Field) Size() uint64 {
	if f.Kind == Bytes {
		return f.ByteLen
	}
	n := f.Count
	if n == 0 {
		n = 1
	}
	return n * f.Kind.Size()
}

// Layout is a structure layout: name, total size and member positions.
type Layout struct {
	Name     string
	ByteSize uint64
	Fields   []Field
}

// Field returns the named field.
func (l *Layout) Field(name string) (Field, error) {
	for _, f := range l.Fields {
		if f.Name == name {
			return f, nil
		}
	}
	return Field{}, fmt.Errorf("kstruct: %s has no field %q", l.Name, name)
}

// MustField is Field but panics on unknown names; intended for driver
// code paths whose field sets are fixed at build time.
func (l *Layout) MustField(name string) Field {
	f, err := l.Field(name)
	if err != nil {
		panic(err)
	}
	return f
}

// Validate checks internal consistency: fields inside the struct,
// no overlapping members.
func (l *Layout) Validate() error {
	if l.ByteSize == 0 {
		return fmt.Errorf("kstruct: %s has zero size", l.Name)
	}
	for i, f := range l.Fields {
		if f.Size() == 0 {
			return fmt.Errorf("kstruct: %s.%s has zero size", l.Name, f.Name)
		}
		if f.Offset+f.Size() > l.ByteSize {
			return fmt.Errorf("kstruct: %s.%s extends past end of struct", l.Name, f.Name)
		}
		for _, g := range l.Fields[i+1:] {
			if f.Offset < g.Offset+g.Size() && g.Offset < f.Offset+f.Size() {
				return fmt.Errorf("kstruct: %s: fields %s and %s overlap", l.Name, f.Name, g.Name)
			}
		}
	}
	return nil
}

// Registry maps structure names to layouts; each driver version ships
// one (its "compiled binary" layouts).
type Registry struct {
	Version string
	layouts map[string]*Layout
}

// NewRegistry returns an empty registry tagged with a driver version.
func NewRegistry(version string) *Registry {
	return &Registry{Version: version, layouts: make(map[string]*Layout)}
}

// Add registers a layout after validation.
func (r *Registry) Add(l *Layout) error {
	if err := l.Validate(); err != nil {
		return err
	}
	if _, dup := r.layouts[l.Name]; dup {
		return fmt.Errorf("kstruct: duplicate layout %q", l.Name)
	}
	r.layouts[l.Name] = l
	return nil
}

// MustAdd is Add but panics on error; used by static driver tables.
func (r *Registry) MustAdd(l *Layout) {
	if err := r.Add(l); err != nil {
		panic(err)
	}
}

// Lookup returns the named layout.
func (r *Registry) Lookup(name string) (*Layout, error) {
	l, ok := r.layouts[name]
	if !ok {
		return nil, fmt.Errorf("kstruct: no layout %q in registry %s", name, r.Version)
	}
	return l, nil
}

// Names returns the registered structure names (unordered).
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.layouts))
	for n := range r.layouts {
		out = append(out, n)
	}
	return out
}

// Obj is a structure instance in kernel memory, viewed through a layout
// and accessed via one kernel's address space (page-table translation
// included, so cross-kernel access requires address space unification).
type Obj struct {
	Space  *kmem.Space
	Addr   kmem.VirtAddr
	Layout *Layout
}

// At rebinds the same layout to another address (array-of-struct walks).
func (o Obj) At(addr kmem.VirtAddr) Obj {
	return Obj{Space: o.Space, Addr: addr, Layout: o.Layout}
}

// Index returns the i-th element treating Addr as the base of an array
// of this structure.
func (o Obj) Index(i int) Obj {
	return o.At(o.Addr + kmem.VirtAddr(uint64(i)*o.Layout.ByteSize))
}

// FieldAddr returns the virtual address of the named field (plus an
// element offset for array fields).
func (o Obj) FieldAddr(name string, elem int) (kmem.VirtAddr, error) {
	f, err := o.Layout.Field(name)
	if err != nil {
		return 0, err
	}
	off := f.Offset
	if elem != 0 {
		if f.Count <= uint64(elem) {
			return 0, fmt.Errorf("kstruct: %s.%s[%d] out of range (count %d)", o.Layout.Name, name, elem, f.Count)
		}
		off += uint64(elem) * f.Kind.Size()
	}
	return o.Addr + kmem.VirtAddr(off), nil
}

// GetU reads the named scalar field (element 0).
func (o Obj) GetU(name string) (uint64, error) { return o.GetUAt(name, 0) }

// GetUAt reads element elem of the named scalar field, zero-extended.
func (o Obj) GetUAt(name string, elem int) (uint64, error) {
	f, err := o.Layout.Field(name)
	if err != nil {
		return 0, err
	}
	addr, err := o.FieldAddr(name, elem)
	if err != nil {
		return 0, err
	}
	if f.Kind == Bytes {
		return 0, fmt.Errorf("kstruct: GetU on bytes field %s.%s", o.Layout.Name, name)
	}
	var word [8]byte
	buf := word[:f.Kind.Size()]
	if err := o.Space.ReadAt(addr, buf); err != nil {
		return 0, err
	}
	var v uint64
	for i := len(buf) - 1; i >= 0; i-- {
		v = v<<8 | uint64(buf[i])
	}
	return v, nil
}

// SetU writes the named scalar field (element 0).
func (o Obj) SetU(name string, v uint64) error { return o.SetUAt(name, 0, v) }

// SetUAt writes element elem of the named scalar field.
func (o Obj) SetUAt(name string, elem int, v uint64) error {
	f, err := o.Layout.Field(name)
	if err != nil {
		return err
	}
	if f.Kind == Bytes {
		return fmt.Errorf("kstruct: SetU on bytes field %s.%s", o.Layout.Name, name)
	}
	addr, err := o.FieldAddr(name, elem)
	if err != nil {
		return err
	}
	var word [8]byte
	buf := word[:f.Kind.Size()]
	for i := range buf {
		buf[i] = byte(v >> (8 * i))
	}
	return o.Space.WriteAt(addr, buf)
}

// GetPtr reads a pointer field as a kernel virtual address.
func (o Obj) GetPtr(name string) (kmem.VirtAddr, error) {
	v, err := o.GetU(name)
	return kmem.VirtAddr(v), err
}

// SetPtr writes a pointer field.
func (o Obj) SetPtr(name string, va kmem.VirtAddr) error {
	return o.SetU(name, uint64(va))
}

// ReadBytes reads a Bytes field into buf, reusing its capacity, and
// returns the field's bytes (buf grown when it was too small).
func (o Obj) ReadBytes(name string, buf []byte) ([]byte, error) {
	f, err := o.Layout.Field(name)
	if err != nil {
		return buf, err
	}
	if f.Kind != Bytes {
		return buf, fmt.Errorf("kstruct: ReadBytes on scalar field %s.%s", o.Layout.Name, name)
	}
	if uint64(cap(buf)) < f.ByteLen {
		buf = make([]byte, f.ByteLen)
	}
	buf = buf[:f.ByteLen]
	return buf, o.Space.ReadAt(o.Addr+kmem.VirtAddr(f.Offset), buf)
}

// SetBytes writes a Bytes field; data must not exceed the field length.
func (o Obj) SetBytes(name string, data []byte) error {
	f, err := o.Layout.Field(name)
	if err != nil {
		return err
	}
	if f.Kind != Bytes {
		return fmt.Errorf("kstruct: SetBytes on scalar field %s.%s", o.Layout.Name, name)
	}
	if uint64(len(data)) > f.ByteLen {
		return fmt.Errorf("kstruct: SetBytes overflow on %s.%s", o.Layout.Name, name)
	}
	return o.Space.WriteAt(o.Addr+kmem.VirtAddr(f.Offset), data)
}

// New allocates a zeroed instance of the layout with kmalloc on cpu and
// returns an Obj bound to space.
func New(space *kmem.Space, l *Layout, cpu int) (Obj, error) {
	va, err := space.Kmalloc(l.ByteSize, cpu)
	if err != nil {
		return Obj{}, err
	}
	for off := uint64(0); off < l.ByteSize; off += uint64(len(zeros)) {
		n := min(l.ByteSize-off, uint64(len(zeros)))
		if err := space.WriteAt(va+kmem.VirtAddr(off), zeros[:n]); err != nil {
			return Obj{}, err
		}
	}
	return Obj{Space: space, Addr: va, Layout: l}, nil
}

// zeros is the source New clears fresh instances from.
var zeros [4096]byte
