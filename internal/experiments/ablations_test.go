package experiments

import (
	"reflect"
	"testing"
)

// TestAblationShapes pins the direction and rough size of each effect,
// so a model change that flips one fails with a sentence and not only a
// byte diff of artifacts/ablations.txt, and pool-size independence.
func TestAblationShapes(t *testing.T) {
	rows, err := Ablations(NewConfig(tinyScale(), 1))
	if err != nil || len(rows) != 4 {
		t.Fatalf("rows = %+v, %v; want four ablations", rows, err)
	}
	if r := rows[0].Ratio(); rows[0].ID != "coalescing" || r <= 1.1 || r >= 1.3 {
		t.Errorf("%s: a 4 MB exchange is %.3fx slower with one SDMA request per page, want within (1.1, 1.3), the paper's ~15%%", rows[0].ID, r)
	}
	if r := rows[1].Ratio(); rows[1].ID != "linux-cpus" || r <= 5 {
		t.Errorf("%s: 16 ranks offloading to 2 Linux CPUs are %.2fx slower than to 16, want > 5: the collapse is queueing on the Linux cores", rows[1].ID, r)
	}
	if v := rows[2].Value; rows[2].ID != "backing" || v != [2]float64{1024, 1} {
		t.Errorf("%s: 4 MB walks to %v extents (scattered, contiguous), want exactly [1024 1]", rows[2].ID, v)
	}
	if r := rows[3].Ratio(); rows[3].ID != "munmap" || r <= 1.0 || r >= 1.2 {
		t.Errorf("%s: QBOX is %.3fx slower with today's munmap than with a 20 ns/page one, want within (1.0, 1.2): real but second-order", rows[3].ID, r)
	}
	par, err := Ablations(NewConfig(tinyScale(), 4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, par) {
		t.Fatalf("ablation rows differ between -j 1 and -j 4:\n%+v\n%+v", rows, par)
	}
}
