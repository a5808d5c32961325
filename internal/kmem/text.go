package kmem

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/pagetable"
)

// Symbol is a function in a kernel's TEXT segment. Its Addr is a virtual
// address inside the kernel's image range; the Go function body stands in
// for the machine code at that address.
type Symbol struct {
	Name string
	Addr VirtAddr
	Fn   func(args ...any) any
	// owner is the space whose image contains the symbol.
	owner *Space
}

const symbolStride = 64 // bytes of "code" per registered function

// LoadImage backs the kernel's image range with physical memory from its
// partition and maps it in the kernel's own page table. It must be called
// before RegisterText.
func (s *Space) LoadImage(size uint64) error {
	if s.imageExt.Len != 0 {
		return fmt.Errorf("kmem: image already loaded in %s", s.Name)
	}
	if size > s.Layout.Image.Size {
		return fmt.Errorf("kmem: image of %d bytes exceeds layout range %d", size, s.Layout.Image.Size)
	}
	ext, err := s.Alloc.AllocContig(size, mem.PreferMCDRAM)
	if err != nil {
		return err
	}
	if err := s.PT.Map(s.Layout.Image.Start, ext.Addr, ext.Len, pagetable.Writable); err != nil {
		s.Alloc.FreeContig(ext)
		return err
	}
	s.imageExt = ext
	return nil
}

// ImageExtent returns the physical extent backing the kernel image.
func (s *Space) ImageExtent() mem.Extent { return s.imageExt }

// RegisterText places fn at the next free address in the kernel's TEXT
// and returns that address. The address is only callable from a kernel
// whose page table maps it to the correct physical backing (see Call).
func (s *Space) RegisterText(name string, fn func(args ...any) any) (VirtAddr, error) {
	if s.imageExt.Len == 0 {
		return 0, fmt.Errorf("kmem: RegisterText before LoadImage in %s", s.Name)
	}
	addr := s.nextText
	if addr+symbolStride > s.Layout.Image.Start+VirtAddr(s.imageExt.Len) {
		return 0, fmt.Errorf("kmem: TEXT exhausted in %s", s.Name)
	}
	s.nextText += symbolStride
	s.symbols[addr] = &Symbol{Name: name, Addr: addr, Fn: fn, owner: s}
	return addr, nil
}

// MapForeignImage maps another kernel's image into this kernel's page
// table, implementing the "McKernel ELF image is also mapped in the Linux
// kernel at LWK boot time" step of §3.1. It fails if the other image's
// range collides with an existing mapping (which is exactly what happens
// with the original, non-unified layout).
func (s *Space) MapForeignImage(other *Space) error {
	if other.imageExt.Len == 0 {
		return fmt.Errorf("kmem: %s has no loaded image", other.Name)
	}
	if err := s.PT.Map(other.Layout.Image.Start, other.imageExt.Addr,
		other.imageExt.Len, 0); err != nil {
		return fmt.Errorf("kmem: mapping %s image into %s: %w", other.Name, s.Name, err)
	}
	return nil
}

// Call invokes the function at virtual address addr as executed by this
// kernel: the address must translate through this kernel's page table to
// the physical location where the owning kernel placed the symbol. worlds
// lists every kernel on the node (to locate the symbol's owner).
//
// A kernel calling a callback pointer into an image it has not mapped
// faults — the precise failure the unified layout exists to prevent.
func (s *Space) Call(worlds []*Space, addr VirtAddr, args ...any) (any, error) {
	pa, ok := s.Translate(addr)
	if !ok {
		return nil, fmt.Errorf("kmem: %s: call fault at unmapped %#x", s.Name, addr)
	}
	for _, w := range worlds {
		sym, ok := w.symbols[addr]
		if !ok {
			continue
		}
		wantPA := w.imageExt.Addr + mem.PhysAddr(addr-w.Layout.Image.Start)
		if pa != wantPA {
			return nil, fmt.Errorf("kmem: %s: call at %#x reaches %#x, symbol %q lives at %#x (wild jump)",
				s.Name, addr, pa, sym.Name, wantPA)
		}
		return sym.Fn(args...), nil
	}
	return nil, fmt.Errorf("kmem: %s: no symbol at %#x in any kernel", s.Name, addr)
}
