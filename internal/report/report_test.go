package report

import (
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/trace"
)

func TestFig4Table(t *testing.T) {
	rows := []experiments.Fig4Row{
		{Size: 4096, MBps: map[string]float64{"Linux": 1000, "McKernel": 900, "McKernel+HFI1": 1100}},
		{Size: 4 << 20, MBps: map[string]float64{"Linux": 9500, "McKernel": 8800, "McKernel+HFI1": 11000}},
	}
	s, _ := table("Figure 4", fig4Cols, rows)
	for _, want := range []string{"4KB", "4MB", "Linux", "90.0%", "115.8%"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in:\n%s", want, s)
		}
	}
}

func TestScalingTable(t *testing.T) {
	pts := []experiments.ScalingPoint{
		{Nodes: 8, RelToLinux: map[string]float64{"Linux": 1, "McKernel": 0.15, "McKernel+HFI1": 1.18}},
	}
	s, _ := table("Figure 6a: UMT2013", scalingCols, pts)
	for _, want := range []string{"Figure 6a", "8", "15.0%", "118.0%"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in:\n%s", want, s)
		}
	}
}

func TestTable1Rendering(t *testing.T) {
	profiles := []experiments.AppProfile{
		{App: "UMT2013", OS: "Linux", Top: []experiments.ProfileEntry{
			{Call: "MPI_Wait", Time: time.Second, PctMPI: 58.7, PctRt: 11.2},
		}},
		{App: "UMT2013", OS: "McKernel", Top: []experiments.ProfileEntry{
			{Call: "MPI_Wait", Time: 17 * time.Second, PctMPI: 49.3, PctRt: 40.3},
		}},
	}
	s := Table1(profiles)
	for _, want := range []string{"UMT2013", "Linux", "McKernel", "MPI_Wait", "58.70%", "40.30%"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in:\n%s", want, s)
		}
	}
}

func TestBreakdownTable(t *testing.T) {
	orig := experiments.Breakdown{
		App: "UMT2013", OS: "McKernel",
		Shares:     []trace.Entry{{Name: "ioctl", Share: 0.5}, {Name: "writev", Share: 0.3}},
		KernelTime: 100 * time.Millisecond,
	}
	pico := experiments.Breakdown{
		App: "UMT2013", OS: "McKernel+HFI1",
		Shares:     []trace.Entry{{Name: "munmap", Share: 0.7}},
		KernelTime: 7 * time.Millisecond,
	}
	s := BreakdownTable(orig, pico)
	for _, want := range []string{"ioctl", "munmap", "50.0%", "70.0%", "7% of original"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in:\n%s", want, s)
		}
	}
}

func TestCSVEmitters(t *testing.T) {
	rows := []experiments.Fig4Row{
		{Size: 4096, MBps: map[string]float64{"Linux": 1000, "McKernel": 900, "McKernel+HFI1": 1100}},
	}
	_, csv := table("", fig4Cols, rows)
	if !strings.Contains(csv, "bytes,linux_mbps") || !strings.Contains(csv, "4096,1000.0,900.0,1100.0") {
		t.Fatalf("fig4 csv:\n%s", csv)
	}
	pts := []experiments.ScalingPoint{{
		Nodes:      4,
		RelToLinux: map[string]float64{"Linux": 1, "McKernel": 0.25, "McKernel+HFI1": 1.1},
		Elapsed:    map[string]time.Duration{"Linux": time.Millisecond},
	}}
	_, csv = table("", scalingCols, pts)
	if !strings.Contains(csv, "4,1.0000,0.2500,1.1000,0.001000") {
		t.Fatalf("scaling csv:\n%s", csv)
	}
	csv = Table1CSV([]experiments.AppProfile{{
		App: "HACC", OS: "Linux",
		Top: []experiments.ProfileEntry{{Call: "MPI_Wait", Time: time.Second, PctMPI: 50, PctRt: 10}},
	}})
	if !strings.Contains(csv, "HACC,Linux,MPI_Wait,1.000000,50.00,10.00") {
		t.Fatalf("table1 csv:\n%s", csv)
	}
	csv = BreakdownCSV(
		experiments.Breakdown{App: "UMT2013", OS: "McKernel", Shares: []trace.Entry{{Name: "ioctl", Share: 0.5}}},
		experiments.Breakdown{App: "UMT2013", OS: "McKernel+HFI1", Shares: []trace.Entry{{Name: "munmap", Share: 0.7}}},
	)
	if !strings.Contains(csv, "UMT2013,McKernel,ioctl,0.5000") ||
		!strings.Contains(csv, "UMT2013,McKernel+HFI1,munmap,0.7000") {
		t.Fatalf("breakdown csv:\n%s", csv)
	}
}

// TestBigscaleRendering pins the one table tier-1 never rebuilds from a
// run (bigscale is an explicit id): the expected bytes are what the
// hand-written text and CSV renderers it replaced printed for these
// rows, rounding edges included.
func TestBigscaleRendering(t *testing.T) {
	rows := []experiments.BigscaleRow{
		{Shards: 1, Wall: 66929412345, Virt: 252935499, Elapsed: time.Millisecond,
			Digest: 0xd7c6e89a95d589ca, Ties: 26, Speedup: 1},
		{Shards: 16, Wall: 1234567890, Virt: 252935500, Elapsed: time.Millisecond,
			Digest: 0xab, Windows: 262444, Cross: 166464, Speedup: 54.2125},
	}
	text, csv := table("Sharded engine: UMT2013, 8 nodes x 4 ranks/node, one seed", bigscaleCols, rows)
	const wantText = "Sharded engine: UMT2013, 8 nodes x 4 ranks/node, one seed\n" +
		"shards          wall      virtual   windows   ties   cross-ev      speedup             digest\n" +
		"1           1m6.929s    252.935ms         0     26          0        1.00x   d7c6e89a95d589ca\n" +
		"16            1.235s    252.936ms    262444      0     166464       54.21x   00000000000000ab\n"
	const wantCSV = "shards,wall_seconds,virtual_seconds,windows,ties,cross_events,speedup,digest\n" +
		"1,66.929,0.252935,0,26,0,1.000,d7c6e89a95d589ca\n" +
		"16,1.235,0.252935,262444,0,166464,54.212,00000000000000ab\n"
	if text != wantText {
		t.Errorf("text:\n%s--- want\n%s", text, wantText)
	}
	if csv != wantCSV {
		t.Errorf("csv:\n%s--- want\n%s", csv, wantCSV)
	}
}

// TestLatencyTable pins the per-phase histograms LatencyTable derives
// from a recorder's spans: one row per category/name pair in first-use
// order, with that pair's count and mean.
func TestLatencyTable(t *testing.T) {
	r := trace.NewRecorder()
	r.Span(trace.CatMcKernel, "writev", "rank0", 100, 400)
	r.SpanBytes(trace.CatSDMA, "txn", "nic0/sdma1", 150, 950, 8192)
	r.Span(trace.CatMcKernel, "writev", "rank0", 500, 600)
	lines := strings.Split(strings.TrimSuffix(LatencyTable(r), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want a title, a header and 2 rows:\n%s", strings.Join(lines, "\n"))
	}
	for i, want := range [][]string{
		{"mckernel/writev", "2", "200ns"},
		{"sdma/txn", "1", "800ns"},
	} {
		if got := strings.Fields(lines[2+i])[:3]; strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("row %d = %v, want phase, count and mean %v", i, got, want)
		}
	}
	if got := LatencyTable(nil); strings.Count(got, "\n") != 2 {
		t.Errorf("nil recorder: want the title and header only, got:\n%s", got)
	}
}
