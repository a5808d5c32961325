package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// resultSet is what a full run writes with -out and -compare reads back.
type resultSet struct {
	Env  environment  `json:"env"`
	Runs []*runResult `json:"runs"`
}

func loadResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

func (rs *resultSet) run(workload string) *runResult {
	for _, r := range rs.Runs {
		if r.Workload == workload {
			return r
		}
	}
	return nil
}

// allBetter reports whether every sample of b reads better than every
// sample of a.
func allBetter(m metric, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if (m.better == "lower" && y >= x) || (m.better == "higher" && y <= x) {
				return false
			}
		}
	}
	return len(a) > 0 && len(b) > 0
}

// compare prints, per workload and end-to-end metric, B against A: every
// ratio with its base, the metric's bound applied to the medians, and
// "unresolved" where the quartile spread of either side exceeds the bound
// (unless every B unit beats every A unit). It returns how many rows
// regressed and how many stayed unresolved.
func compare(w io.Writer, a, b *resultSet) (regressed, unresolved int) {
	for _, ra := range a.Runs {
		rb := b.run(ra.Workload)
		if rb == nil {
			fmt.Fprintf(w, "%s: missing from B\n", ra.Workload)
			regressed++
			continue
		}
		fmt.Fprintf(w, "%s  (A: %d units, B: %d units)\n", ra.Workload, ra.Units, rb.Units)
		for _, m := range endToEnd {
			da, db := ra.E2E[m.name], rb.E2E[m.name]
			if da.Median == 0 {
				fmt.Fprintf(w, "  %-12s no base value in A\n", m.name)
				unresolved++
				continue
			}
			worse := (db.Median - da.Median) / da.Median
			if m.better == "higher" {
				worse = -worse
			}
			spread := da.spread()
			if s := db.spread(); s > spread {
				spread = s
			}
			verdict := "ok"
			switch {
			case spread > m.bound && allBetter(m, da.Samples, db.Samples):
				verdict = "ok (every B unit beats every A unit)"
			case spread > m.bound:
				verdict = "unresolved (spread exceeds bound)"
				unresolved++
			case worse > m.bound:
				verdict = "REGRESSION"
				regressed++
			}
			fmt.Fprintf(w, "  %-12s B/A = %.4f  (base %.6g %s, B %.6g %s; bound %.0f%%, spread %.1f%%)  %s\n",
				m.name, db.Median/da.Median, da.Median, m.unit, db.Median, m.unit, 100*m.bound, 100*spread, verdict)
		}
		if k := firstDiff(ra.Counters, rb.Counters); k != "" {
			if ra.Seed == rb.Seed {
				fmt.Fprintf(w, "  counters     DIFFER, first at %s: A %v, B %v\n", k, ra.Counters[k], rb.Counters[k])
				regressed++
			} else {
				fmt.Fprintf(w, "  counters     differ (seeds %d and %d), first at %s\n", ra.Seed, rb.Seed, k)
			}
		} else {
			fmt.Fprintf(w, "  counters     identical (%d exact counters)\n", len(ra.Counters))
		}
	}
	return regressed, unresolved
}
