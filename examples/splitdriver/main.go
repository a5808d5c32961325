// splitdriver: the §3 generality claim in action. A second, synthetic
// Linux device driver — "KXP", a compression accelerator whose job
// submission (an ioctl that pins a user buffer and enqueues it) is
// performance-critical — is ported to McKernel with the PicoDriver
// framework:
//
//  1. The Linux KXP driver ships DWARF debugging information for its
//     private structures.
//  2. dwarf-extract-struct recovers the two structures the fast path
//     touches.
//  3. A ~60-line fast path submits jobs from the LWK core, cooperating
//     with the unmodified Linux driver through the unified address
//     space and a shared ticket spinlock.
//
// The example prints the per-job submission latency offloaded vs fast
// path.
//
//	go run ./examples/splitdriver
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dwarfx"
	"repro/internal/kernel"
	"repro/internal/kmem"
	"repro/internal/kstruct"
	"repro/internal/linux"
	"repro/internal/mckernel"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/uproc"
)

// KXP ioctl commands: one fast-path candidate, the rest administrative.
const (
	kxpCmdSubmit  uint32 = 0xF001 // performance critical
	kxpCmdStatus  uint32 = 0xF002
	kxpCmdVersion uint32 = 0xF003
)

const jobBytes = 64 << 10

// kxpRegistry is the authoritative layout set compiled into the KXP
// module binary.
func kxpRegistry() *kstruct.Registry {
	reg := kstruct.NewRegistry("kxp-2.1")
	reg.MustAdd(&kstruct.Layout{
		Name:     "kxp_device",
		ByteSize: 128,
		Fields: []kstruct.Field{
			{Name: "queue_lock", Offset: 0, Kind: kstruct.Bytes, ByteLen: 8, TypeName: "spinlock_t"},
			{Name: "queue_tail", Offset: 8, Kind: kstruct.U64},
			{Name: "jobs_submitted", Offset: 16, Kind: kstruct.U64},
			{Name: "fw_version", Offset: 24, Kind: kstruct.U32},
			{Name: "error_count", Offset: 32, Kind: kstruct.U64},
		},
	})
	reg.MustAdd(&kstruct.Layout{
		Name:     "kxp_filedata",
		ByteSize: 64,
		Fields: []kstruct.Field{
			{Name: "dev", Offset: 0, Kind: kstruct.Ptr, TypeName: "struct kxp_device *"},
			{Name: "jobs", Offset: 8, Kind: kstruct.U64},
			{Name: "flags", Offset: 16, Kind: kstruct.U64},
		},
	})
	return reg
}

// kxpDriver is the unmodified Linux driver.
type kxpDriver struct {
	k     *linux.Kernel
	reg   *kstruct.Registry
	blob  []byte
	devVA kmem.VirtAddr
}

func newKXPDriver(k *linux.Kernel) (*kxpDriver, error) {
	m, err := dwarfx.NewModule(kxpRegistry())
	if err != nil {
		return nil, err
	}
	reg := m.Reg
	d := &kxpDriver{k: k, reg: reg, blob: m.Blob}
	devLayout, err := reg.Lookup("kxp_device")
	if err != nil {
		return nil, err
	}
	dev, err := kstruct.New(k.Space, devLayout, k.Pool.CPUs()[0])
	if err != nil {
		return nil, err
	}
	if err := dev.SetU("fw_version", 21); err != nil {
		return nil, err
	}
	lockVA, err := dev.FieldAddr("queue_lock", 0)
	if err != nil {
		return nil, err
	}
	if _, err := kernel.NewSpinLock(k.Space, lockVA, kernel.LinuxSpinLockLayout); err != nil {
		return nil, err
	}
	d.devVA = dev.Addr
	return d, nil
}

func (d *kxpDriver) obj(name string, va kmem.VirtAddr) kstruct.Obj {
	l, err := d.reg.Lookup(name)
	if err != nil {
		panic(err)
	}
	return kstruct.Obj{Space: d.k.Space, Addr: va, Layout: l}
}

func (d *kxpDriver) Open(ctx *kernel.Ctx, f *linux.File) error {
	ctx.Spend(5 * time.Microsecond)
	l, err := d.reg.Lookup("kxp_filedata")
	if err != nil {
		return err
	}
	fd, err := kstruct.New(d.k.Space, l, ctx.CPU)
	if err != nil {
		return err
	}
	if err := fd.SetPtr("dev", d.devVA); err != nil {
		return err
	}
	f.Private = fd.Addr
	return nil
}

func (d *kxpDriver) Release(ctx *kernel.Ctx, f *linux.File) error {
	return d.k.Space.Kfree(f.Private, ctx.CPU)
}

func (d *kxpDriver) Writev(ctx *kernel.Ctx, f *linux.File, iov []linux.IOVec) (uint64, error) {
	return 0, fmt.Errorf("kxp: writev unsupported")
}

// Ioctl: job submission pins the user buffer (get_user_pages) and
// advances the device queue under the queue lock.
func (d *kxpDriver) Ioctl(ctx *kernel.Ctx, f *linux.File, cmd uint32, arg uproc.VirtAddr) (uint64, error) {
	switch cmd {
	case kxpCmdSubmit:
		ctx.Spend(800 * time.Nanosecond)
		pages, err := d.k.GetUserPages(ctx, f.Proc, nil, arg, jobBytes)
		if err != nil {
			return 0, err
		}
		defer d.k.PutUserPages(f.Proc, pages)
		ctx.Spend(time.Duration(len(pages)) * 120 * time.Nanosecond) // per-descriptor programming
		return d.enqueue(ctx, d.k.Space, d.reg, f.Private)
	case kxpCmdStatus:
		dev := d.obj("kxp_device", d.devVA)
		return dev.GetU("jobs_submitted")
	case kxpCmdVersion:
		return 21, nil
	}
	return 0, fmt.Errorf("kxp: unknown ioctl %#x", cmd)
}

// enqueue is the layout-driven queue protocol shared (by construction,
// not by import) with the fast path.
func (d *kxpDriver) enqueue(ctx *kernel.Ctx, space *kmem.Space, reg *kstruct.Registry, fdataVA kmem.VirtAddr) (uint64, error) {
	return kxpEnqueue(ctx, space, reg, fdataVA)
}

func kxpEnqueue(ctx *kernel.Ctx, space *kmem.Space, reg *kstruct.Registry, fdataVA kmem.VirtAddr) (uint64, error) {
	fdl, err := reg.Lookup("kxp_filedata")
	if err != nil {
		return 0, err
	}
	fd := kstruct.Obj{Space: space, Addr: fdataVA, Layout: fdl}
	devVA, err := fd.GetPtr("dev")
	if err != nil {
		return 0, err
	}
	devl, err := reg.Lookup("kxp_device")
	if err != nil {
		return 0, err
	}
	dev := kstruct.Obj{Space: space, Addr: devVA, Layout: devl}
	lockVA, err := dev.FieldAddr("queue_lock", 0)
	if err != nil {
		return 0, err
	}
	lock := &kernel.SpinLock{Space: space, Addr: lockVA,
		Layout: kernel.LinuxSpinLockLayout, SpinDelay: kernel.DefaultSpinDelay}
	if err := lock.Lock(ctx.P); err != nil {
		return 0, err
	}
	defer lock.Unlock()
	tail, err := dev.GetU("queue_tail")
	if err != nil {
		return 0, err
	}
	if err := dev.SetU("queue_tail", tail+1); err != nil {
		return 0, err
	}
	jobs, err := dev.GetU("jobs_submitted")
	if err != nil {
		return 0, err
	}
	if err := dev.SetU("jobs_submitted", jobs+1); err != nil {
		return 0, err
	}
	own, err := fd.GetU("jobs")
	if err != nil {
		return 0, err
	}
	return tail, fd.SetU("jobs", own+1)
}

func (d *kxpDriver) Mmap(ctx *kernel.Ctx, f *linux.File, kind uint32, length uint64) (uproc.VirtAddr, error) {
	return 0, fmt.Errorf("kxp: mmap unsupported")
}

// kxpPico is the ported fast path: the entire LWK-side driver.
type kxpPico struct {
	space *kmem.Space
	reg   *kstruct.Registry // DWARF-extracted
	Fast  uint64
}

func newKXPPico(fw *core.Framework, blob []byte) (*kxpPico, error) {
	reg, err := core.ExtractLayouts(blob, "kxp-pico", map[string][]string{
		"kxp_device":   {"queue_lock", "queue_tail", "jobs_submitted"},
		"kxp_filedata": {"dev", "jobs"},
	})
	if err != nil {
		return nil, err
	}
	return &kxpPico{space: fw.CallbackSpace(), reg: reg}, nil
}

func (kp *kxpPico) fastPath() *mckernel.FastPath {
	return &mckernel.FastPath{
		Ioctl: func(ctx *kernel.Ctx, f *linux.File, cmd uint32, arg uproc.VirtAddr) (uint64, bool, error) {
			if cmd != kxpCmdSubmit {
				return 0, false, nil // everything else stays in Linux
			}
			ctx.Spend(300 * time.Nanosecond)
			// McKernel mappings are pinned: walk page tables instead of
			// get_user_pages.
			vma, ok := f.Proc.VMAOf(arg)
			if !ok || !vma.Pinned {
				return 0, false, nil
			}
			exts, err := f.Proc.PT.WalkExtents(arg, jobBytes)
			if err != nil {
				return 0, true, err
			}
			ctx.Spend(time.Duration(len(exts)) * 120 * time.Nanosecond)
			tail, err := kxpEnqueue(ctx, kp.space, kp.reg, f.Private)
			if err != nil {
				return 0, true, err
			}
			kp.Fast++
			return tail, true, nil
		},
	}
}

func main() {
	cl, err := cluster.New(cluster.Spec{
		Nodes: 1, OS: cluster.OSMcKernelHFI, Params: model.Default(), Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	n := cl.Nodes[0]

	// Module load: the unmodified Linux KXP driver registers with the VFS.
	drv, err := newKXPDriver(n.Lin)
	if err != nil {
		log.Fatal(err)
	}
	if err := n.Lin.RegisterDevice("/dev/kxp0", drv); err != nil {
		log.Fatal(err)
	}

	// Port the fast path with the PicoDriver framework.
	fw, err := core.NewFramework(n.Lin, n.Mck)
	if err != nil {
		log.Fatal(err)
	}
	pico, err := newKXPPico(fw, drv.blob)
	if err != nil {
		log.Fatal(err)
	}

	const jobs = 64
	measure := func(label string) time.Duration {
		var total time.Duration
		proc := n.Mck.NewProcess("app")
		cl.Go(0, "app", func(p *sim.Proc) {
			ctx := &kernel.Ctx{P: p, CPU: n.AppCPUs()[0]}
			f, err := n.Mck.Open(ctx, proc, "/dev/kxp0")
			if err != nil {
				log.Fatal(err)
			}
			buf, err := n.Mck.MmapAnon(ctx, proc, jobBytes)
			if err != nil {
				log.Fatal(err)
			}
			start := p.Now()
			for i := 0; i < jobs; i++ {
				if _, err := n.Mck.Ioctl(ctx, f, kxpCmdSubmit, buf); err != nil {
					log.Fatal(err)
				}
			}
			total = p.Now() - start
			// The administrative status call (never ported) still
			// reaches the Linux driver transparently.
			count, err := n.Mck.Ioctl(ctx, f, kxpCmdStatus, 0)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-28s %8v/job   (device counts %d jobs)\n",
				label, (total / jobs).Round(10*time.Nanosecond), count)
		})
		if err := cl.Run(0); err != nil {
			log.Fatal(err)
		}
		return total
	}

	offloaded := measure("offloaded (original)")
	if err := fw.Attach("/dev/kxp0", pico.fastPath()); err != nil {
		log.Fatal(err)
	}
	fast := measure("fast path (KXP PicoDriver)")
	fmt.Printf("\nspeedup: %.1fx; %d submissions served by the fast path\n",
		offloaded.Seconds()/fast.Seconds(), pico.Fast)
}
