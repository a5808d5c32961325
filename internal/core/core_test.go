package core_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hfi"
	"repro/internal/kstruct"
	"repro/internal/model"
	"repro/internal/mpi"
	"repro/internal/psm"
	"repro/internal/sim"
)

// TestLinuxDriverIsUnmodified enforces the paper's headline claim
// mechanically: no source file of the Linux HFI driver (or of the
// generic Linux kernel layer) may reference the PicoDriver package.
func TestLinuxDriverIsUnmodified(t *testing.T) {
	for _, dir := range []string{"../hfi", "../linux"} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(string(data), `"repro/internal/core"`) {
				t.Errorf("%s/%s imports the PicoDriver package: the Linux driver must stay unmodified",
					dir, e.Name())
			}
			if strings.Contains(string(data), "mckernel") {
				t.Errorf("%s/%s references McKernel: the Linux side must not know about the LWK",
					dir, e.Name())
			}
		}
	}
}

// TestExtractedLayoutsMatchAuthoritative: the DWARF-extracted layouts the
// PicoDriver uses must agree field-for-field with the layouts compiled
// into the driver.
func TestExtractedLayoutsMatchAuthoritative(t *testing.T) {
	authoritative := hfi.BuildRegistry(hfi.DriverVersion)
	blob, err := hfi.BuildDWARFBlob(authoritative)
	if err != nil {
		t.Fatal(err)
	}
	extracted, err := core.ExtractLayouts(blob, "test", core.HFIWants)
	if err != nil {
		t.Fatal(err)
	}
	for name, fields := range core.HFIWants {
		want, err := authoritative.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := extracted.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if got.ByteSize != want.ByteSize {
			t.Errorf("%s size %d != %d", name, got.ByteSize, want.ByteSize)
		}
		checked := fields
		if len(checked) == 0 {
			for _, f := range want.Fields {
				checked = append(checked, f.Name)
			}
		}
		for _, fname := range checked {
			wf := want.MustField(fname)
			gf, err := got.Field(fname)
			if err != nil {
				t.Errorf("%s.%s missing from extraction", name, fname)
				continue
			}
			if gf.Offset != wf.Offset || gf.Size() != wf.Size() {
				t.Errorf("%s.%s: extracted (%d,%d) != authoritative (%d,%d)",
					name, fname, gf.Offset, gf.Size(), wf.Offset, wf.Size())
			}
		}
	}
}

// TestFrameworkRejectsOriginalLayout: PicoDriver cannot attach without
// the unified address space.
func TestFrameworkRejectsOriginalLayout(t *testing.T) {
	cl, err := cluster.New(cluster.Spec{
		Nodes: 1, OS: cluster.OSMcKernel, Params: model.Default(), Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := cl.Nodes[0]
	if _, err := core.NewFramework(n.Lin, n.Mck); err == nil {
		t.Fatal("framework accepted the original (non-unified) McKernel layout")
	}
}

// runPicoPair boots McKernel+HFI on 2 nodes and sends one rendezvous
// message; hooks let tests tweak the pico driver first.
func runPicoPair(t *testing.T, size uint64, tweak func(*core.HFIPico)) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.New(cluster.Spec{
		Nodes: 2, OS: cluster.OSMcKernelHFI, Params: model.Default(), Seed: 11, Synthetic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tweak != nil {
		for _, n := range cl.Nodes {
			tweak(n.Pico)
		}
	}
	_, err = mpi.RunJob(cl, 1, func(c *mpi.Comm) error {
		buf, err := c.MmapAnon(size)
		if err != nil {
			return err
		}
		peer := 1 - c.Rank
		rr, err := c.Irecv(peer, 5, buf, size)
		if err != nil {
			return err
		}
		if err := c.Send(peer, 5, buf, size); err != nil {
			return err
		}
		return c.Wait(rr)
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// TestCoalescingAblation: with the §3.4 optimization the PicoDriver
// emits up-to-10KB requests; with the ablation it degrades to the Linux
// driver's PAGE_SIZE shape.
func TestCoalescingAblation(t *testing.T) {
	const size = 1 << 20

	clOn := runPicoPair(t, size, nil)
	var fullOn, reqsOn uint64
	for _, n := range clOn.Nodes {
		fullOn += n.NIC.SDMAFullSize
		reqsOn += n.NIC.SDMARequests
	}
	if fullOn == 0 {
		t.Fatal("coalescing produced no hardware-maximum requests")
	}

	clOff := runPicoPair(t, size, func(h *core.HFIPico) { h.Coalesce = false })
	var fullOff, reqsOff uint64
	for _, n := range clOff.Nodes {
		fullOff += n.NIC.SDMAFullSize
		reqsOff += n.NIC.SDMARequests
	}
	if fullOff != 0 {
		t.Fatalf("ablated driver still produced %d full-size requests", fullOff)
	}
	if reqsOff <= reqsOn {
		t.Fatalf("ablation should need more requests: %d vs %d", reqsOff, reqsOn)
	}
}

// TestStaleManualLayoutsFail demonstrates the §3.2 hazard: a PicoDriver
// built from hand-copied offsets of an older driver release reads the
// wrong fields and cannot submit (here it trips the engine state check).
func TestStaleManualLayoutsFail(t *testing.T) {
	cl, err := cluster.New(cluster.Spec{
		Nodes: 2, OS: cluster.OSMcKernelHFI, Params: model.Default(), Seed: 13, Synthetic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Build stale layouts: same structures, but sdma_engine.state moved
	// (as if the struct grew in a new release).
	stale := kstruct.NewRegistry("manual-port-of-old-release")
	auth := hfi.BuildRegistry(hfi.DriverVersion)
	for _, name := range auth.Names() {
		l, _ := auth.Lookup(name)
		cp := &kstruct.Layout{Name: l.Name, ByteSize: l.ByteSize}
		for _, f := range l.Fields {
			if l.Name == "sdma_engine" && f.Name == "state" {
				f.Offset = 48 // stale offset from the old header
			}
			cp.Fields = append(cp.Fields, f)
		}
		stale.MustAdd(cp)
	}
	for _, n := range cl.Nodes {
		fw, err := core.NewFramework(n.Lin, n.Mck)
		if err != nil {
			t.Fatal(err)
		}
		pico, err := core.NewHFIPicoWithRegistry(fw, n.NIC, stale, cl.Params)
		if err != nil {
			t.Fatal(err)
		}
		// Replace the registered fast path with the stale one.
		n.Pico = pico
		n.Mck.ReplaceFastPath("/dev/hfi1", pico.FastPath())
	}
	const size = 1 << 20
	_, err = mpi.RunJob(cl, 1, func(c *mpi.Comm) error {
		buf, err := c.MmapAnon(size)
		if err != nil {
			return err
		}
		peer := 1 - c.Rank
		rr, err := c.Irecv(peer, 5, buf, size)
		if err != nil {
			return err
		}
		if err := c.Send(peer, 5, buf, size); err != nil {
			return err
		}
		return c.Wait(rr)
	})
	if err == nil {
		t.Fatal("stale layouts worked; the DWARF-extraction motivation would be vacuous")
	}
}

// TestPicoSharesTIDSpaceWithLinuxDriver: TID entries allocated through
// the fast path come from the same bitmap the Linux driver manages, so
// offloaded and fast-path registrations never collide.
func TestPicoSharesTIDSpaceWithLinuxDriver(t *testing.T) {
	cl := runPicoPair(t, 1<<20, nil)
	for _, n := range cl.Nodes {
		if n.Pico.FastIoctls == 0 {
			t.Fatal("fast path did not serve TID ioctls")
		}
	}
}

// TestPicoFallbackForUnpinnedBuffers: a fast-path call on a non-pinned
// mapping falls back to the offloaded Linux driver transparently.
func TestPicoFallbackForUnpinnedBuffers(t *testing.T) {
	cl, err := cluster.New(cluster.Spec{
		Nodes: 2, OS: cluster.OSMcKernelHFI, Params: model.Default(), Seed: 17, Synthetic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var fellBack bool
	ranks := cl.StartRanks("rank", []int{0, 1}, true, func(p *sim.Proc, r int, ep *psm.Endpoint) error {
		if r != 0 {
			// Receiver posts a matching receive into a regular
			// (pinned) buffer.
			buf, err := ep.OS.MmapAnon(p, 128<<10)
			if err != nil {
				return err
			}
			return ep.Recv(p, 0, 9, buf, 128<<10)
		}
		// Sender uses its *device mapping* as the source buffer: not
		// a pinned anonymous VMA, so the fast path must bail out.
		h, err := ep.OS.Open(p, psm.DevicePath)
		if err != nil {
			return err
		}
		va, err := ep.OS.MmapDevice(p, h, hfi.MmapEager, 0)
		if err != nil {
			return err
		}
		if err := ep.Send(p, 1, 9, va, 128<<10); err != nil {
			return err
		}
		fellBack = cl.Nodes[0].Pico.FallbackCalls > 0
		return nil
	})
	if err := cl.Run(0); err != nil {
		t.Fatal(err)
	}
	if err := ranks.Err(); err != nil {
		t.Fatal(err)
	}
	if !fellBack {
		t.Fatal("fast path did not fall back for a non-pinned buffer")
	}
}

var benchLayouts *kstruct.Registry

// BenchmarkDWARFExtract measures the §3.2 extraction path.
func BenchmarkDWARFExtract(b *testing.B) {
	blob, err := hfi.BuildDWARFBlob(hfi.BuildRegistry(hfi.DriverVersion))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if benchLayouts, err = core.ExtractLayouts(blob, "bench", core.HFIWants); err != nil {
			b.Fatal(err)
		}
	}
}
