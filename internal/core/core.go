// Package core implements PicoDriver, the paper's contribution: a
// framework for porting only the performance-critical part of a Linux
// device driver into the McKernel lightweight kernel while transparently
// retaining the rest of the driver via system call offloading.
//
// The framework rests on three mechanisms built by the lower layers:
//
//   - Address space unification (§3.1, internal/vas + internal/kmem):
//     kernel images that do not overlap, identical direct-map bases so
//     dynamically allocated structures dereference from either kernel,
//     and the LWK image mapped into Linux so completion callbacks in LWK
//     TEXT can run on Linux CPUs.
//
//   - DWARF-based structure extraction (§3.2, internal/dwarfx): the fast
//     path learns the Linux driver's private structure layouts from the
//     module binary's debugging information instead of hand-copied
//     headers.
//
//   - Cross-kernel synchronization and memory management (§3.3,
//     internal/kernel + internal/kmem): compatible ticket spinlocks over
//     shared kernel memory, duplicated completion callbacks, and a
//     foreign-CPU kfree path so LWK allocations can be released from
//     Linux IRQ context.
//
// The HFI PicoDriver in this package is the paper's OmniPath instance;
// examples/splitdriver ports a second, synthetic device to demonstrate
// generality.
package core

import (
	"crypto/sha256"
	"fmt"
	"sync"

	"repro/internal/dwarfx"
	"repro/internal/kmem"
	"repro/internal/kstruct"
	"repro/internal/linux"
	"repro/internal/mckernel"
	"repro/internal/vas"
)

// Framework validates the multi-kernel environment and attaches fast
// paths to the LWK's syscall layer.
type Framework struct {
	Linux *linux.Kernel
	LWK   *mckernel.Kernel
}

// NewFramework checks the §3.1 prerequisites and returns a framework
// handle. It fails when the address spaces are not unified: without a
// shared direct map and callable LWK TEXT, no fast path can cooperate
// with the Linux driver.
func NewFramework(lin *linux.Kernel, lwk *mckernel.Kernel) (*Framework, error) {
	if err := vas.CheckUnified(lin.Space.Layout, lwk.Space.Layout); err != nil {
		return nil, fmt.Errorf("core: PicoDriver requires the unified layout: %w", err)
	}
	if lwk.Space.ImageExtent().Len == 0 {
		return nil, fmt.Errorf("core: LWK image not loaded (boot the LWK via ihk.BootLWK first)")
	}
	return &Framework{Linux: lin, LWK: lwk}, nil
}

// Attach registers a device's fast path with the LWK.
func (fw *Framework) Attach(path string, fp *mckernel.FastPath) error {
	return fw.LWK.RegisterFastPath(path, fp)
}

// ExtractLayouts runs dwarf-extract-struct over a module's debugging
// information and builds a layout registry restricted to the requested
// fields. This is the porting step §3.2 reduces "to the order of hours":
// name the structures and fields the fast path touches, and their
// offsets come from the shipped binary, surviving driver updates and
// build-option variance.
func ExtractLayouts(blob []byte, version string, wants map[string][]string) (*kstruct.Registry, error) {
	root, err := dwarfx.Decode(blob)
	if err != nil {
		return nil, fmt.Errorf("core: decoding module debug info: %w", err)
	}
	reg := kstruct.NewRegistry(version + "+extracted:" + dwarfx.Producer(root))
	for name, fields := range wants {
		var l *kstruct.Layout
		if len(fields) == 0 {
			l, err = dwarfx.ExtractAll(root, name)
		} else {
			l, err = dwarfx.ExtractStruct(root, name, fields)
		}
		if err != nil {
			return nil, fmt.Errorf("core: extracting %s: %w", name, err)
		}
		if err := reg.Add(l); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// layoutKey names one module build's extraction: the fast path's
// version, which fixes the structures and fields it wants, and the
// SHA-256 of the debugging information.
type layoutKey struct {
	version string
	sum     [sha256.Size]byte
}

// extraction is one memoised ExtractLayouts result.
type extraction struct {
	once sync.Once
	reg  *kstruct.Registry
	err  error
}

// extractions memoises portLayouts. It only grows: a process sees one
// entry per fast path and module build.
var extractions struct {
	sync.Mutex
	m map[layoutKey]*extraction
}

// portLayouts is ExtractLayouts run once per module build: every node of
// every cluster loads the same module, and §3.2 runs dwarf-extract-struct
// when the fast path is ported, not at every boot. Callers share the
// registry read-only. version must name one wants set.
func portLayouts(blob []byte, version string, wants map[string][]string) (*kstruct.Registry, error) {
	k := layoutKey{version: version, sum: sha256.Sum256(blob)}
	extractions.Lock()
	x := extractions.m[k]
	if x == nil {
		if extractions.m == nil {
			extractions.m = make(map[layoutKey]*extraction)
		}
		x = &extraction{}
		extractions.m[k] = x
	}
	extractions.Unlock()
	x.once.Do(func() { x.reg, x.err = ExtractLayouts(blob, version, wants) })
	return x.reg, x.err
}

// CallbackSpace returns the kernel space whose TEXT holds fast-path
// completion callbacks (the LWK's).
func (fw *Framework) CallbackSpace() *kmem.Space { return fw.LWK.Space }
