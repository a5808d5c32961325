package experiments

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
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

// TestTracedTenancy checks the traced packed cell produces spans.
func TestTracedTenancy(t *testing.T) {
	cfg := tinyConfig()
	cfg.Scale.TenancyMsgs = 40
	rec := trace.NewRecorder()
	row, err := TracedTenancy(cfg, cluster.OSMcKernelHFI, rec)
	if err != nil {
		t.Fatal(err)
	}
	if row.Scenario != "packed" {
		t.Fatalf("traced scenario = %q", row.Scenario)
	}
	if rec.SpanCount() == 0 {
		t.Fatal("traced tenancy cell recorded no spans")
	}
}
