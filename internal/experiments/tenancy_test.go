package experiments

import (
	"reflect"
	"testing"

	"repro/internal/trace"
)

// TestTenancySweep is the end-to-end gate on the multi-tenant
// machinery: the packed noisy neighbor must inflate the victim's p99,
// spreading must recover it (both asserted inside Tenancy itself),
// congestion control must visibly engage, and same-seed reruns must be
// deeply equal.
func TestTenancySweep(t *testing.T) {
	cfg := tinyConfig()
	cfg.Scale.TenancyMsgs = 60
	rows, err := Tenancy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3*len(tenancyScenarios) {
		t.Fatalf("rows = %d, want %d", len(rows), 3*len(tenancyScenarios))
	}
	for _, r := range rows {
		if r.VictimP50 <= 0 || r.VictimP99 < r.VictimP50 {
			t.Fatalf("%s/%s: implausible victim percentiles p50=%v p99=%v", r.OS, r.Scenario, r.VictimP50, r.VictimP99)
		}
		if r.Scenario != "solo" && r.BulkMBps <= 0 {
			t.Fatalf("%s/%s: bulk tenant moved nothing", r.OS, r.Scenario)
		}
		if r.Scenario == "incast" {
			if r.Fairness <= 0 || r.Fairness > 1 {
				t.Fatalf("%s/incast: fairness ratio %v out of range", r.OS, r.Fairness)
			}
			if r.Marks == 0 {
				t.Fatalf("%s/incast: hot spot never marked ECN: %+v", r.OS, r)
			}
		}
	}
	again, err := Tenancy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, again) {
		t.Fatal("tenancy sweep not deterministic")
	}
}

// TestTracedTenancy checks that the traced id the tenancy artifact
// exports names a cell of the sweep: the McKernel+HFI1 packed row is
// there and its recorder holds spans.
func TestTracedTenancy(t *testing.T) {
	cfg := tinyConfig()
	cfg.Scale.TenancyMsgs = 40
	rec := trace.NewRecorder()
	cfg.Trace = map[string]*trace.Recorder{"tenancy/McKernel+HFI1/packed": rec}
	rows, err := Tenancy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	packed := false
	for _, r := range rows {
		packed = packed || r.OS == "McKernel+HFI1" && r.Scenario == "packed"
	}
	if !packed {
		t.Fatalf("no McKernel+HFI1 packed row in %+v", rows)
	}
	if rec.SpanCount() == 0 {
		t.Fatal("traced tenancy cell recorded no spans")
	}
}
