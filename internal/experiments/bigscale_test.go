package experiments

import (
	"strings"
	"testing"
)

// TestBigscaleNamesFirstDivergence pins what a failing shard gate
// reports: UMT2013 on 4 nodes × 12 ranks diverges between Shards=1 and
// 2 because node 2 receives packets from nodes 1 and 3 at one instant,
// which the single engine delivers in global send order (1, then 3)
// and the shard set in (time, shard, seq) order (the local packet from
// node 3 first, then the one the barrier injected from node 1). The
// error must bisect to that nanosecond, name the field it moved on
// node 2, and list both deliveries on each side in their order. At 8
// ranks per node the same pair stays equal.
func TestBigscaleNamesFirstDivergence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs UMT2013 on 4 nodes at 8 and 12 ranks per node, and bisects one pair")
	}
	if _, err := Bigscale(tinyConfig(), "UMT2013", 4, 8, []int{1, 2}); err != nil {
		t.Fatalf("4x8 at shards 1 and 2: %v", err)
	}
	_, err := Bigscale(tinyConfig(), "UMT2013", 4, 12, []int{1, 2})
	if err == nil {
		t.Fatal("4x12 at shards 1 and 2 passed the shard gate; if the shard set now orders same-instant arrivals as one engine does, this row is the gate's passing case")
	}
	msg := err.Error()
	t.Log(msg)
	for _, want := range []string{"(16759109, 16759110] ns", `section "node2/hfi"`} {
		if !strings.Contains(msg, want) {
			t.Errorf("the shard gate's error does not contain %q:\n%s", want, msg)
		}
	}
	a, b, ok := strings.Cut(msg, "replayed (b):")
	_, a, _ = strings.Cut(a, "snapshot (a):")
	if !ok {
		t.Fatalf("the shard gate's error lists no events for side b:\n%s", msg)
	}
	// Each side's deliveries due at the instant, by source node, in the
	// order its engines list them.
	sources := func(events string) []string {
		var src []string
		for _, l := range strings.Split(events, "\n") {
			if i := strings.Index(l, "SrcNode="); i >= 0 && strings.HasPrefix(strings.TrimSpace(l), "event[") {
				src = append(src, l[i+len("SrcNode="):])
			}
		}
		if n := strings.Count(events, "event at=16759110 "); n != len(src) || !strings.Contains(events, "DstNode=2") {
			return nil
		}
		return src
	}
	if got := strings.Join(sources(a), ","); got != "1,3" {
		t.Errorf("Shards=1 deliveries at 16759110 ns by source node = %q, want 1,3:\n%s", got, a)
	}
	if got := strings.Join(sources(b), ","); got != "3,1" {
		t.Errorf("Shards=2 deliveries at 16759110 ns by source node = %q, want 3,1:\n%s", got, b)
	}
}
