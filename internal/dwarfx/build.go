package dwarfx

import (
	"fmt"
	"sort"

	"repro/internal/kstruct"
)

// Module is one build of a driver: its structure layouts and the
// debugging information compiled from them, as shipped alongside the
// driver binary.
type Module struct {
	Reg  *kstruct.Registry
	Blob []byte
}

// NewModule compiles reg into the module a driver build ships.
func NewModule(reg *kstruct.Registry) (Module, error) {
	root, err := Build(reg)
	if err != nil {
		return Module{}, err
	}
	blob, err := Encode(root)
	return Module{Reg: reg, Blob: blob}, err
}

// Build compiles a driver's authoritative structure layouts into a DIE
// tree, the way a compiler emits debug info into a module binary. The
// producer string records the driver version so version-skew can be
// detected.
func Build(reg *kstruct.Registry) (*DIE, error) {
	cu := &DIE{Tag: TagCompileUnit}
	cu.AddStr(AttrProducer, "hfi1 "+reg.Version)

	// Shared scalar type DIEs.
	baseTypes := map[kstruct.Kind]*DIE{}
	base := func(k kstruct.Kind) *DIE {
		if d, ok := baseTypes[k]; ok {
			return d
		}
		d := &DIE{Tag: TagBaseType}
		switch k {
		case kstruct.U8:
			d.AddStr(AttrName, "unsigned char").AddU64(AttrByteSize, 1).AddU64(AttrEncoding, EncodingUnsignedChar)
		case kstruct.U16:
			d.AddStr(AttrName, "short unsigned int").AddU64(AttrByteSize, 2).AddU64(AttrEncoding, EncodingUnsigned)
		case kstruct.U32:
			d.AddStr(AttrName, "unsigned int").AddU64(AttrByteSize, 4).AddU64(AttrEncoding, EncodingUnsigned)
		case kstruct.U64:
			d.AddStr(AttrName, "long unsigned int").AddU64(AttrByteSize, 8).AddU64(AttrEncoding, EncodingUnsigned)
		default:
			panic(fmt.Sprintf("dwarfx: no base type for kind %v", k))
		}
		baseTypes[k] = d
		cu.AddChild(d)
		return d
	}
	charType := func() *DIE {
		d := &DIE{Tag: TagBaseType}
		d.AddStr(AttrName, "char").AddU64(AttrByteSize, 1).AddU64(AttrEncoding, EncodingSignedChar)
		cu.AddChild(d)
		return d
	}
	var charDIE *DIE
	enums := map[string]*DIE{}
	enumType := func(name string) *DIE {
		if d, ok := enums[name]; ok {
			return d
		}
		d := &DIE{Tag: TagEnumerationType}
		d.AddStr(AttrName, name).AddU64(AttrByteSize, 4)
		enums[name] = d
		cu.AddChild(d)
		return d
	}
	ptrs := map[string]*DIE{}
	ptrType := func(name string) *DIE {
		if d, ok := ptrs[name]; ok {
			return d
		}
		d := &DIE{Tag: TagPointerType}
		d.AddU64(AttrByteSize, 8)
		if name != "" {
			d.AddStr(AttrName, name)
		}
		ptrs[name] = d
		cu.AddChild(d)
		return d
	}
	arrayOf := func(elem *DIE, count uint64) *DIE {
		d := &DIE{Tag: TagArrayType}
		d.AddRef(AttrType, elem)
		d.AddChild((&DIE{Tag: TagSubrangeType}).AddU64(AttrCount, count))
		cu.AddChild(d)
		return d
	}

	names := reg.Names()
	sort.Strings(names)
	for _, name := range names {
		layout, err := reg.Lookup(name)
		if err != nil {
			return nil, err
		}
		st := &DIE{Tag: TagStructureType}
		st.AddStr(AttrName, layout.Name).AddU64(AttrByteSize, layout.ByteSize)
		fields := append([]kstruct.Field(nil), layout.Fields...)
		sort.Slice(fields, func(i, j int) bool { return fields[i].Offset < fields[j].Offset })
		for _, f := range fields {
			m := &DIE{Tag: TagMember}
			m.AddStr(AttrName, f.Name).AddU64(AttrDataMemberLocation, f.Offset)
			var ty *DIE
			switch f.Kind {
			case kstruct.U8, kstruct.U16, kstruct.U32, kstruct.U64:
				ty = base(f.Kind)
			case kstruct.Enum:
				tn := f.TypeName
				if tn == "" {
					tn = "anon_enum"
				}
				ty = enumType(tn)
			case kstruct.Ptr:
				ty = ptrType(f.TypeName)
			case kstruct.Bytes:
				if charDIE == nil {
					charDIE = charType()
				}
				ty = arrayOf(charDIE, f.ByteLen)
			default:
				return nil, fmt.Errorf("dwarfx: unsupported kind %v in %s.%s", f.Kind, layout.Name, f.Name)
			}
			if f.Count > 1 && f.Kind != kstruct.Bytes {
				ty = arrayOf(ty, f.Count)
			}
			m.AddRef(AttrType, ty)
			st.AddChild(m)
		}
		cu.AddChild(st)
	}
	return cu, nil
}

// Producer returns the DW_AT_producer string of a compile unit ("hfi1
// <version>"), used for version-skew detection.
func Producer(root *DIE) string {
	v, ok := root.Attr(AttrProducer)
	if !ok {
		return ""
	}
	return v.Str
}
