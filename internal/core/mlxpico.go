package core

import (
	"time"

	"repro/internal/kernel"
	"repro/internal/kmem"
	"repro/internal/kstruct"
	"repro/internal/linux"
	"repro/internal/mckernel"
	"repro/internal/mlx"
	"repro/internal/model"
	"repro/internal/uproc"
)

// MLXWants names the Mellanox driver structures and fields its fast path
// touches — the paper's stated future work (§6), realized with the same
// framework as the HFI PicoDriver.
var MLXWants = map[string][]string{
	"mlx_device":   {"mr_lock", "next_lkey", "mr_count"},
	"mlx_filedata": {"dev"},
	"mlx_mr":       nil, // the fast path owns the MRs it creates
}

// MLXPico ports the InfiniBand memory-registration routines (reg_mr /
// dereg_mr) to McKernel. Registration walks the LWK's page tables
// (pinned-by-design, no get_user_pages) and writes one MTT entry per
// physically contiguous extent, so large pages collapse into single
// entries; everything else in the verbs driver keeps flowing to Linux.
type MLXPico struct {
	LWK *mckernel.Kernel

	pr    *model.Params
	reg   *kstruct.Registry // DWARF-extracted
	space *kmem.Space

	// mrs maps lkeys this fast path issued to their MR records.
	mrs map[uint32]kmem.VirtAddr

	// table receives key programming exactly like the Linux driver's:
	// fast-path registrations are indistinguishable to the HCA.
	table mlx.MRTable

	// Stats.
	FastRegs   uint64
	FastDeregs uint64
	Fallbacks  uint64
}

// NewMLXPico extracts the layouts from the module's debug info (once per
// module build, shared by every node) and returns the ported fast path,
// programming keys into table.
func NewMLXPico(fw *Framework, dwarfBlob []byte, table mlx.MRTable, pr *model.Params) (*MLXPico, error) {
	reg, err := portLayouts(dwarfBlob, "mlxpico", MLXWants)
	if err != nil {
		return nil, err
	}
	return &MLXPico{
		LWK: fw.LWK, pr: pr, reg: reg, space: fw.LWK.Space, table: table,
		mrs: make(map[uint32]kmem.VirtAddr),
	}, nil
}

// FastPath returns the hooks for the LWK syscall layer (ioctl only: the
// verbs data path never enters the kernel).
func (m *MLXPico) FastPath() *mckernel.FastPath {
	return &mckernel.FastPath{Ioctl: m.ioctl}
}

// Attach registers the fast path for the verbs device.
func (m *MLXPico) Attach(fw *Framework, path string) error {
	return fw.Attach(path, m.FastPath())
}

const mlxFastBase = 350 * time.Nanosecond

func (m *MLXPico) ioctl(ctx *kernel.Ctx, f *linux.File, cmd uint32, arg uproc.VirtAddr) (uint64, bool, error) {
	if !mlx.RegCmds[cmd] {
		return 0, false, nil // QP management etc. stays in Linux
	}
	ctx.Spend(mlxFastBase)
	switch cmd {
	case mlx.CmdRegMR:
		return m.regMR(ctx, f, arg)
	case mlx.CmdDeregMR:
		return m.deregMR(ctx, f, arg)
	}
	return 0, false, nil
}

func (m *MLXPico) regMR(ctx *kernel.Ctx, f *linux.File, arg uproc.VirtAddr) (uint64, bool, error) {
	mi, err := mlx.DecodeMRInfo(f.Proc, arg)
	if err != nil {
		return 0, true, err
	}
	vma, ok := f.Proc.VMAOf(mi.VAddr)
	if !ok || !vma.Pinned {
		// Not LWK-pinned memory: let the Linux driver pin it.
		m.Fallbacks++
		return 0, false, nil
	}
	extents, err := f.Proc.PT.WalkExtents(mi.VAddr, mi.Length)
	if err != nil {
		return 0, true, err
	}
	ctx.Spend(time.Duration(len(extents)) * m.pr.PTWalkPerExtent)
	// The MTT can only encode power-of-two runs; split the merged
	// contiguous extents before programming them.
	extents = mlx.SplitMTTExtents(extents)

	fdl, err := m.reg.Lookup("mlx_filedata")
	if err != nil {
		return 0, true, err
	}
	fdata := kstruct.Obj{Space: m.space, Addr: f.Private, Layout: fdl}
	devVA, err := fdata.GetPtr("dev")
	if err != nil {
		return 0, true, err
	}
	lkey, mrVA, mttVA, err := mlx.BuildMR(ctx, m.space, m.reg, devVA,
		extents, uint64(mi.VAddr), mi.Length, 1 /* owner: lwk */, uint64(mi.Access))
	if err != nil {
		return 0, true, err
	}
	m.mrs[lkey] = mrVA
	m.table.ProgramKey(lkey, mlx.MRHandle{Space: m.space, MTTVA: mttVA,
		Entries: uint64(len(extents)), IOVA: uint64(mi.VAddr), Length: mi.Length, Access: mi.Access})
	if err := mlx.WriteLKeyBack(f.Proc, arg, lkey); err != nil {
		return 0, true, err
	}
	m.FastRegs++
	return uint64(lkey), true, nil
}

func (m *MLXPico) deregMR(ctx *kernel.Ctx, f *linux.File, arg uproc.VirtAddr) (uint64, bool, error) {
	mi, err := mlx.DecodeMRInfo(f.Proc, arg)
	if err != nil {
		return 0, true, err
	}
	mrVA, ok := m.mrs[mi.LKey]
	if !ok {
		// Registered by the Linux driver: let Linux tear it down (it
		// must also unpin the pages it pinned).
		m.Fallbacks++
		return 0, false, nil
	}
	fdl, err := m.reg.Lookup("mlx_filedata")
	if err != nil {
		return 0, true, err
	}
	fdata := kstruct.Obj{Space: m.space, Addr: f.Private, Layout: fdl}
	devVA, err := fdata.GetPtr("dev")
	if err != nil {
		return 0, true, err
	}
	if err := mlx.DestroyMR(ctx, m.space, m.reg, devVA, mrVA); err != nil {
		return 0, true, err
	}
	m.table.InvalidateKey(mi.LKey)
	delete(m.mrs, mi.LKey)
	m.FastDeregs++
	return 0, true, nil
}

// LiveMRs counts fast-path registrations not yet deregistered.
func (m *MLXPico) LiveMRs() int { return len(m.mrs) }
