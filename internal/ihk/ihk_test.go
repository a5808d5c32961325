package ihk

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/kmem"
	"repro/internal/mem"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/vas"
)

func TestPartitionDefaults(t *testing.T) {
	plan, err := Partition(DefaultNodeSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.LinuxCPUs) != 4 || len(plan.LWKCPUs) != 64 {
		t.Fatalf("cpus = %d/%d", len(plan.LinuxCPUs), len(plan.LWKCPUs))
	}
	var linuxMem, lwkMem uint64
	for _, r := range plan.Regions {
		switch r.Owner {
		case "linux":
			linuxMem += r.Size
		case "lwk":
			lwkMem += r.Size
		default:
			t.Fatalf("region without owner: %+v", r)
		}
	}
	spec := DefaultNodeSpec()
	if linuxMem != spec.LinuxMCDRAM+spec.LinuxDDR {
		t.Fatalf("linux mem = %d", linuxMem)
	}
	if lwkMem != spec.MCDRAM+spec.DDR-linuxMem {
		t.Fatalf("lwk mem = %d", lwkMem)
	}
	// Regions must be constructible.
	if _, err := mem.NewPhysMem(plan.Regions...); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionValidation(t *testing.T) {
	bad := DefaultNodeSpec()
	bad.LinuxMCDRAM = bad.MCDRAM
	if _, err := Partition(bad); err == nil {
		t.Fatal("over-reservation accepted")
	}
	bad = DefaultNodeSpec()
	bad.LinuxCPUs = bad.TotalCPUs
	if _, err := Partition(bad); err == nil {
		t.Fatal("zero LWK CPUs accepted")
	}
}

func bootPair(t *testing.T, lwkLayout vas.Layout) (*kmem.Space, *kmem.Space) {
	t.Helper()
	pm, err := mem.NewPhysMem(
		mem.Region{Base: 0, Size: 64 << 20, Kind: mem.DDR4, Owner: "linux"},
		mem.Region{Base: 1 << 30, Size: 64 << 20, Kind: mem.DDR4, Owner: "lwk"},
	)
	if err != nil {
		t.Fatal(err)
	}
	lin, err := kmem.NewSpace("linux", vas.LinuxLayout(), pm.Partition("linux"), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if err := lin.LoadImage(4 << 20); err != nil {
		t.Fatal(err)
	}
	lwk, err := kmem.NewSpace("lwk", lwkLayout, pm.Partition("lwk"), []int{4})
	if err != nil {
		t.Fatal(err)
	}
	return lin, lwk
}

func TestBootLWKUnified(t *testing.T) {
	lin, lwk := bootPair(t, vas.McKernelUnifiedLayout())
	unified, err := BootLWK(lin, lwk, 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !unified {
		t.Fatal("unified layout not recognized")
	}
	// The boot enabled foreign free: a kfree from the Linux CPU works.
	va, err := lwk.Kmalloc(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := lwk.Kfree(va, 0); err != nil {
		t.Fatalf("foreign free not enabled by boot: %v", err)
	}
}

func TestBootLWKOriginal(t *testing.T) {
	lin, lwk := bootPair(t, vas.McKernelOriginalLayout())
	unified, err := BootLWK(lin, lwk, 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	if unified {
		t.Fatal("original layout reported as unified")
	}
}

func TestOffloadLatencyAndAccounting(t *testing.T) {
	e := sim.NewEngine(1)
	pr := model.Default()
	pool := kernel.NewWorkerPool(e, "linux", []int{0})
	d := NewDelegator(pool, &pr)
	var lat time.Duration
	ran := false
	e.Go("caller", func(p *sim.Proc) {
		lat = d.Offload(p, "test", func(ctx *kernel.Ctx) {
			ctx.Spend(5 * time.Microsecond)
			ran = true
		})
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("offloaded fn did not run")
	}
	want := 2*pr.IKCLatency + pr.OffloadFixed + 5*time.Microsecond
	if lat != want {
		t.Fatalf("latency = %v, want %v", lat, want)
	}
	if d.Count != 1 || d.Time != lat {
		t.Fatalf("stats = %d/%v", d.Count, d.Time)
	}
}

// TestOffloadSteadyStateAllocs pins that a warm offload allocates
// nothing: the call record and the pool's work item are both recycled.
func TestOffloadSteadyStateAllocs(t *testing.T) {
	e := sim.NewEngine(1)
	pr := model.Default()
	d := NewDelegator(kernel.NewWorkerPool(e, "linux", []int{0}), &pr)
	work := func(ctx *kernel.Ctx) { ctx.Spend(time.Microsecond) }
	e.Go("caller", func(p *sim.Proc) {
		if got := testing.AllocsPerRun(50, func() { d.Offload(p, "x", work) }); got != 0 {
			t.Errorf("Offload: %v allocations, want 0", got)
		}
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if d.Count != 51 {
		t.Fatalf("offloads = %d, want 51", d.Count)
	}
}

// TestOffloadContentionThrash: latency per call grows superlinearly when
// many callers pile onto few CPUs — the §4.3 effect.
func TestOffloadContentionThrash(t *testing.T) {
	perCall := func(callers int) time.Duration {
		e := sim.NewEngine(1)
		pr := model.Default()
		pool := kernel.NewWorkerPool(e, "linux", []int{0, 1, 2, 3})
		d := NewDelegator(pool, &pr)
		for i := 0; i < callers; i++ {
			e.Go("caller", func(p *sim.Proc) {
				d.Offload(p, "x", func(ctx *kernel.Ctx) {
					ctx.Spend(2 * time.Microsecond)
				})
			})
		}
		if err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		return d.Time / time.Duration(d.Count)
	}
	light := perCall(2)
	heavy := perCall(32)
	if heavy < 4*light {
		t.Fatalf("contention too gentle: 2 callers %v, 32 callers %v", light, heavy)
	}
}

// TestFreedCallPanics: an offload call put back in its pool is
// poisoned, so a proxy handed it again panics instead of running a
// stale system call.
func TestFreedCallPanics(t *testing.T) {
	e := sim.NewEngine(1)
	pr := model.Default()
	wp := kernel.NewWorkerPool(e, "linux", []int{0})
	d := NewDelegator(wp, &pr)
	c := d.calls.Get()
	c.fn = func(*kernel.Ctx) { t.Error("a freed call ran its system call") }
	d.calls.Put(c)
	wp.Submit("stale", c.run)
	var pe *sim.PanicError
	if err := e.Run(0); !errors.As(err, &pe) || !strings.Contains(fmt.Sprint(pe.Value), "ihk: call used after put") {
		t.Fatalf("Run = %v, want a freed-call panic", err)
	}
}
