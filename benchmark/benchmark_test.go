package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNamesWellFormedAndUnique(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]+ of at most 64", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		check(m.name)
		if !unitRE.MatchString(m.unit) {
			t.Errorf("metric %s: bad unit %q", m.name, m.unit)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("metric %s: better = %q", m.name, m.better)
		}
	}
	for _, m := range endToEnd {
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
	}
}

// BENCHMARK.json at the repository root and the tables in spec.go (what
// -list prints) must name the same workloads and metrics.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jm `json:"end_to_end"`
		PerLayer   []jm `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Command, []string{"go", "run", "./benchmark"}) || !reflect.DeepEqual(spec.Paths, []string{"benchmark"}) {
		t.Errorf("command %v, paths %v", spec.Command, spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, spec.go %q / %q", i, got.Name, got.Why, w.name, w.why)
		}
	}
	same := func(kind string, got []jm, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in spec.go", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, spec.go %s %s %s", kind, i, g, m.name, m.unit, m.better)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != m.bound) {
				t.Errorf("%s %s: bound in BENCHMARK.json does not match spec.go's %v", kind, m.name, m.bound)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd, true)
	same("per_layer", spec.PerLayer, perLayer, false)
	hasSetup := false
	for _, m := range endToEnd {
		hasSetup = hasSetup || (m.name == "setup_s" && m.unit == "s" && m.better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric with unit s, better lower")
	}
}

// Reference values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{10, 20, 30, 40, 50}, [3]float64{15, 30, 45}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, med, q3 := quartiles(c.xs)
		got := [3]float64{q1, med, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
	if d := newDist([]float64{90, 100, 110, 120}); math.Abs(d.spread()-25.0/105) > 1e-12 {
		t.Errorf("spread = %v", d.spread())
	}
}

// Every workload is a closed loop of fixed work: two units at the smoke
// scale must agree on every exact counter, and nothing may fail.
func TestSmokeUnitsRepeatExactly(t *testing.T) {
	for _, w := range workloads {
		o := childOpts{workload: w.name, seed: 1, smoke: true}
		a, err := runUnit(o)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b, err := runUnit(o)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if k := firstDiff(a.Counters, b.Counters); k != "" {
			t.Errorf("%s: units differ on %s: %v vs %v", w.name, k, a.Counters[k], b.Counters[k])
		}
		if a.Attempted < 1 || a.Failed != 0 {
			t.Errorf("%s: attempted %d, failed %d", w.name, a.Attempted, a.Failed)
		}
		if len(a.Counters) == 0 || a.WallS <= 0 || a.SetupS < 0 {
			t.Errorf("%s: empty result %+v", w.name, a)
		}
	}
}

// §3.4 in two numbers: a contiguous 4 MB buffer needs 1024 SDMA requests
// at the Linux driver's 4 KB cap and about 410 at the hardware's 10 KB.
func TestDriverPureRequestCounts(t *testing.T) {
	u, err := runUnit(childOpts{workload: "driver_pure", seed: 1, smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	rounds := float64(smokeSizes.driverIters)
	if got := u.Counters["driver.reqs_4k.contig"] / rounds; got != 1024 {
		t.Errorf("contiguous 4 MB at the 4 KB cap: %v requests per buffer, want 1024", got)
	}
	if got := u.Counters["driver.reqs_10k.contig"] / rounds; got < 410 || got > 416 {
		t.Errorf("contiguous 4 MB at the 10 KB cap: %v requests per buffer, want about 410", got)
	}
	if got := u.Counters["driver.reqs_10k.scattered"] / rounds; got != 1024 {
		t.Errorf("scattered 4 KB frames at the 10 KB cap: %v requests per buffer, want 1024", got)
	}
	if u.Counters["mem.pinned_frames_end"] != 0 {
		t.Errorf("%v frames still pinned", u.Counters["mem.pinned_frames_end"])
	}
}

var sink uint64

// spin burns CPU for d so that a profile has samples to attribute.
func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := uint64(0); i < 1<<16; i++ {
			sink += i * i
		}
	}
}

func cpuProfile(t *testing.T, d time.Duration) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spin(d)
	pprof.StopCPUProfile()
	return buf.Bytes()
}

func TestProfileAttribution(t *testing.T) {
	prof := cpuProfile(t, 300*time.Millisecond)
	samples, err := decodeProfile(prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples decoded")
	}
	attr, err := attributeProfile([][]byte{prof})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, name := range profileMetrics {
		sum += attr[name]
	}
	if math.Abs(sum-100) > 1e-6 {
		t.Errorf("shares sum to %v, want 100", sum)
	}
	// The spin loop lives in this package, which is no simulator layer.
	if attr["other.host_self_pct"] < 50 {
		t.Errorf("spin loop attributed %v%% to other, want most of it: %v", attr["other.host_self_pct"], attr)
	}
	if _, err := attributeProfile([][]byte{nil}); err == nil {
		t.Error("an empty profile must fail loudly, not report zeros")
	}
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Engine).Run":                      "repro/internal/sim",
		"repro/internal/sim.(*Queue[go.shape.int]).Pop":         "repro/internal/sim",
		"repro/internal/sim.NewQueue[repro/internal/hfi.IOVec]": "repro/internal/sim",
		"runtime.mallocgc":                                      "runtime",
		"internal/runtime/atomic.(*Uint32).Load":                "internal/runtime/atomic",
		"main.main":                                             "main",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// The traced pass must produce exactly the per-layer metrics spec.go (and
// so BENCHMARK.json) lists.
func TestLayerMetricsComplete(t *testing.T) {
	plain, err := runUnit(childOpts{workload: "shard_scale", seed: 1, smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	single, err := runUnit(childOpts{workload: "shard_scale", seed: 1, smoke: true, shards1: true})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runUnit(childOpts{workload: "shard_scale", seed: 1, smoke: true, traced: true})
	if err != nil {
		t.Fatal(err)
	}
	// A smoke unit is too short to be sampled; give it a real profile.
	traced.Profile = cpuProfile(t, 100*time.Millisecond)
	rungs, err := runRungs(100)
	if err != nil {
		t.Fatal(err)
	}
	got, err := layerMetrics([]*unitResult{plain}, []*unitResult{traced}, rungs, single)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, m := range perLayer {
		want[m.name] = true
		if _, ok := got[m.name]; !ok {
			t.Errorf("traced pass does not produce %s", m.name)
		}
	}
	for name := range got {
		if !want[name] {
			t.Errorf("traced pass produces %s, which spec.go does not list", name)
		}
	}
	if got["sim.shard1_match"] != 1 {
		t.Errorf("Shards=%d and Shards=1 disagree on %s", shards, shardDiff(plain, single))
	}
	if got["trace.spans"] == 0 || got["sim.windows"] == 0 {
		t.Errorf("traced sharded unit recorded %v spans, %v windows", got["trace.spans"], got["sim.windows"])
	}
	if k := firstDiff(plain.Counters, traced.Counters); k != "" {
		t.Errorf("tracing moved exact counter %s", k)
	}
	st := selfTimes(traced.Spans)
	if st["run"] <= 0 || st["setup"] <= 0 {
		t.Errorf("harness span self times: %v", st)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "rep x", PID: 7, Begin: 0, End: 100},
		{ID: 2, Parent: 1, Name: "cell x/Linux", PID: 7, Begin: 10, End: 90},
		{ID: 3, Parent: 2, Name: "setup", PID: 7, Begin: 10, End: 30},
		{ID: 4, Parent: 2, Name: "run", PID: 7, Begin: 30, End: 80},
		{ID: 2, Parent: 0, Name: "run", PID: 8, Begin: 0, End: 5}, // another process, same id
	}
	st := selfTimes(spans)
	for name, want := range map[string]time.Duration{"rep x": 20, "cell": 10, "setup": 20, "run": 55} {
		if st[name] != want*time.Microsecond {
			t.Errorf("self time of %s = %v, want %vµs", name, st[name], want)
		}
	}
}

func TestCompareAppliesBoundsAndSpread(t *testing.T) {
	mk := func(wall ...float64) *resultSet {
		r := &runResult{Workload: "w", Units: len(wall), E2E: map[string]dist{}, Counters: counters{"sim.events": 5}}
		for _, m := range endToEnd {
			r.E2E[m.name] = newDist([]float64{1, 1, 1, 1})
		}
		r.E2E["wall_s"] = newDist(wall)
		return &resultSet{Runs: []*runResult{r}}
	}
	var buf bytes.Buffer
	base := mk(1.00, 1.01, 0.99, 1.00)
	if reg, unres := compare(&buf, base, mk(1.02, 1.03, 1.01, 1.02)); reg != 0 || unres != 0 {
		t.Errorf("+2%% is within the bound: %d regressed, %d unresolved\n%s", reg, unres, &buf)
	}
	if reg, _ := compare(&buf, base, mk(1.40, 1.41, 1.39, 1.40)); reg != 1 {
		t.Errorf("+40%% must regress, got %d", reg)
	}
	noisy := mk(0.8, 1.0, 1.2, 1.4)
	if reg, unres := compare(&buf, noisy, mk(0.9, 1.0, 1.1, 1.5)); reg != 0 || unres != 1 {
		t.Errorf("spread beyond the bound must be unresolved: %d regressed, %d unresolved", reg, unres)
	}
	if reg, unres := compare(&buf, noisy, mk(0.3, 0.5, 0.6, 0.7)); reg != 0 || unres != 0 {
		t.Errorf("every B unit beats every A unit: %d regressed, %d unresolved", reg, unres)
	}
	moved := mk(1.00, 1.01, 0.99, 1.00)
	moved.Runs[0].Counters = counters{"sim.events": 6}
	if reg, _ := compare(&buf, base, moved); reg != 1 {
		t.Errorf("a moved exact counter must count as a regression, got %d", reg)
	}
	if !strings.Contains(buf.String(), "base 1 s") {
		t.Errorf("ratios must be printed with their base:\n%s", &buf)
	}
}

func TestGoldenCoversEveryWorkloadAndSeed(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range goldenSeeds {
		for _, w := range workloads {
			if len(g[goldenKey(w.name, seed)]) == 0 {
				t.Errorf("golden.json has no counters for %s", goldenKey(w.name, seed))
			}
		}
	}
	got := counters{}
	for k, v := range g[goldenKey("pp_small", 1)] {
		got[k] = v
	}
	if n, _ := goldenDiff("pp_small", 1, false, got); n != 0 {
		t.Errorf("golden against itself: %v mismatches", n)
	}
	got["sim.events"]++
	if n, first := goldenDiff("pp_small", 1, false, got); n != 1 || !strings.HasPrefix(first, "sim.events") {
		t.Errorf("one moved counter: %v mismatches, first %q", n, first)
	}
	if n, _ := goldenDiff("pp_small", 99, false, got); n != -1 {
		t.Errorf("a seed without golden values must read -1, got %v", n)
	}
}
