package simtest_test

import (
	"fmt"
	"testing"

	"repro/internal/simtest"
)

// TestGenerateDrawOrder pins, for one cell of every generator at seed 1,
// the workload Generate expands it to: the summary, the messages and the
// hardware and outage knobs. Every field is drawn from one RNG stream in
// a fixed order, so a refactor that reorders two draws moves these
// strings, and with them every cell a soak has ever reported.
func TestGenerateDrawOrder(t *testing.T) {
	for _, c := range []struct{ cell, summary, msgs, knobs string }{
		{"Linux/5",
			"cell=Linux/5 seed=1 os=Linux nodes=1 ranks/node=3 order=in-order msgs=9 bytes=286762 rings(eager=18 hdrq=18 cq=1)",
			"[{1 2 100 65544} {2 1 101 65544} {0 1 102 4096} {1 2 103 65536} {2 1 104 1} {2 0 105 16384} {2 1 106 4096} {1 0 107 65544} {0 2 108 17}]",
			"rdv=524288 jitter=0 sdmaq=3 eager=18 hdrq=18 cq=1 tids=0 dualrail=false down=[]"},
		{"Linux/7",
			"cell=Linux/7 seed=1 os=Linux nodes=1 ranks/node=2 order=send-first msgs=9 bytes=739296 rings(eager=86 hdrq=86 cq=1)",
			"[{1 0 100 1000} {0 1 101 40960} {0 1 102 16383} {0 1 103 532480} {0 1 104 17} {0 1 105 65536} {0 1 106 40960} {1 0 107 40960} {1 0 100 1000}]",
			"rdv=131072 jitter=0 sdmaq=0 eager=86 hdrq=86 cq=1 tids=0 dualrail=false down=[]"},
		{"Linux/8",
			"cell=Linux/8 seed=1 os=Linux nodes=2 ranks/node=2 order=staggered msgs=6 bytes=648175",
			"[{3 2 100 16384} {2 0 101 16383} {0 2 102 1000} {2 0 103 532480} {0 1 104 65544} {3 2 100 16384}]",
			"rdv=524288 jitter=845 sdmaq=0 eager=0 hdrq=0 cq=0 tids=0 dualrail=false down=[]"},
		{"McKernel/rma/1",
			"cell=McKernel/rma/1 seed=1 os=McKernel nodes=2 ranks/node=1 order=in-order msgs=6 bytes=33884",
			"[{0 1 100 12345} {1 0 101 1000} {1 0 102 4096} {0 1 103 4097} {1 0 104 12345} {1 0 105 1}]",
			"rdv=524288 jitter=0 sdmaq=0 eager=0 hdrq=0 cq=0 tids=0 dualrail=false down=[]"},
		{"Linux/lossy/4",
			"cell=Linux/lossy/4 seed=1 os=Linux nodes=3 ranks/node=1 order=in-order msgs=10 bytes=1179647 lossy(drop=0.033 dup=0.024 reorder=0.097 sdmaerr=0.040)",
			"[{2 1 100 65528} {0 1 101 204800} {1 0 102 204800} {0 1 103 65544} {1 2 104 40960} {0 1 105 532480} {1 0 106 40960} {0 1 107 4096} {0 1 108 16383} {0 1 109 4096}]",
			"rdv=131072 jitter=0 sdmaq=0 eager=0 hdrq=0 cq=0 tids=0 dualrail=false down=[]"},
		{"McKernel/failover/2",
			"cell=McKernel/failover/2 seed=1 os=McKernel nodes=2 ranks/node=1 order=reversed msgs=8 bytes=327706 lossy(drop=0.000 dup=0.000 reorder=0.000 sdmaerr=0.000) dualrail(downwindows=2)",
			"[{1 0 100 65528} {0 1 101 98304} {1 0 102 16384} {1 0 103 65528} {0 1 104 65544} {1 0 105 16384} {0 1 106 17} {0 1 107 17}]",
			"rdv=524288 jitter=0 sdmaq=0 eager=0 hdrq=0 cq=0 tids=0 dualrail=true down=[{Src:0 Dst:1 From:0s Until:518µs} {Src:1 Dst:0 From:0s Until:518µs}]"},
		{"McKernel+HFI1/tenancy/1",
			"cell=McKernel+HFI1/tenancy/1 seed=1 os=McKernel+HFI1 nodes=3 ranks/node=1 order=reversed msgs=6 bytes=122882 cong(link=16384 ingress=24576 mark=0.50)",
			"[{1 0 100 16385} {1 0 101 40960} {1 0 102 4096} {2 0 103 16385} {2 0 104 4096} {2 0 105 40960}]",
			"rdv=524288 jitter=0 sdmaq=0 eager=0 hdrq=0 cq=0 tids=0 dualrail=false down=[]"},
		{"Linux/shard/2",
			"cell=Linux/shard/2 seed=1 os=Linux nodes=5 ranks/node=1 order=in-order msgs=8 bytes=1019913 shards=4",
			"[{3 2 100 16384} {3 1 101 17} {4 0 102 98304} {3 0 103 532480} {3 2 104 65528} {2 0 105 98304} {4 0 106 4096} {2 1 107 204800}]",
			"rdv=131072 jitter=0 sdmaq=0 eager=0 hdrq=0 cq=0 tids=0 dualrail=false down=[]"},
		{"Linux/!tid/0",
			"cell=Linux/!tid/0 seed=1 os=Linux nodes=2 ranks/node=1 order=in-order msgs=2 bytes=311296",
			"[{0 1 100 4096} {0 1 101 307200}]",
			"rdv=524288 jitter=0 sdmaq=0 eager=0 hdrq=0 cq=0 tids=8 dualrail=false down=[]"},
	} {
		w, err := simtest.Generate(1, c.cell)
		if err != nil {
			t.Fatal(err)
		}
		pr := w.Params
		knobs := fmt.Sprintf("rdv=%d jitter=%d sdmaq=%d eager=%d hdrq=%d cq=%d tids=%d dualrail=%v down=%+v",
			pr.RendezvousWindow, pr.LinkJitter, pr.SDMAQueueDepth, pr.EagerSlots, pr.HdrqEntries, pr.CQEntries,
			pr.TIDsPerContext, pr.DualRail, w.Faults.Down)
		for _, f := range []struct{ what, got, want string }{
			{"summary", w.Summary(), c.summary},
			{"msgs", fmt.Sprint(w.Msgs), c.msgs},
			{"knobs", knobs, c.knobs},
		} {
			if f.got != f.want {
				t.Errorf("%s %s:\n got %s\nwant %s", c.cell, f.what, f.got, f.want)
			}
		}
	}
}
