package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"
)

// unitResult is the one JSON line a child process hands back: everything
// one unit of one workload measured.
type unitResult struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Smoke     bool     `json:"smoke,omitempty"`
	WallS     float64  `json:"wall_s"`
	CPUS      float64  `json:"cpu_s"`
	PeakRSSMB float64  `json:"peak_rss_mb"`
	AllocMB   float64  `json:"alloc_mb"`
	MallocsK  float64  `json:"mallocs_k"`
	SetupS    float64  `json:"setup_s"`
	Nodes     int      `json:"nodes"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Counters  counters `json:"counters"`
	// Workers is the runner pool width (regen_sweep only); it follows
	// GOMAXPROCS, so it is kept out of the exact counters.
	Workers int `json:"workers,omitempty"`
	// End state of the process once the last cell has returned and a GC
	// has been forced: what finished simulations leave behind.
	GoroutinesEnd int     `json:"goroutines_end"`
	HeapEndMB     float64 `json:"heap_end_mb"`
	// Simulated half-round-trip latency (ping-pong workloads only).
	LatSamples uint64  `json:"lat_samples"`
	LatP50NS   float64 `json:"lat_p50_ns"`
	LatP999NS  float64 `json:"lat_p999_ns"`
	// Traced pass only.
	TCounters counters `json:"tcounters,omitempty"` // folded from the recorders' spans
	Spans     []span   `json:"spans,omitempty"`
	Profile   []byte   `json:"profile,omitempty"` // gzipped pprof CPU profile
}

// childOpts is what the parent passes to a child on its command line.
type childOpts struct {
	workload string
	seed     int64
	smoke    bool
	traced   bool
	shards1  bool  // shard_scale only: run the Shards=1 cross-check cell
	spawned  int64 // parent's clock at spawn, Unix ns; 0 = not spawned
}

// runUnit executes one unit of a workload in this process.
func runUnit(o childOpts) (*unitResult, error) {
	if o.workload == rungsChild {
		scale := 1
		if o.smoke {
			scale = 100
		}
		rungs, err := runRungs(scale)
		return &unitResult{Workload: rungsChild, Counters: rungs}, err
	}
	w := workloadByName(o.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	u := &unit{seed: o.seed, sz: fullSizes, traced: o.traced, c: counters{}, t: counters{}}
	if o.smoke {
		u.sz = smokeSizes
	}
	var prof bytes.Buffer
	if o.traced {
		u.spans = &spanLog{}
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	endRep := u.spans.begin("rep " + w.name)
	if w.name == "regen_sweep" && o.spawned != 0 {
		// experiments builds its clusters itself, inside the timed region;
		// what is left of set-up is getting this process to the first call.
		u.setup = time.Duration(time.Now().UnixNano() - o.spawned)
	}
	run := w.run
	if o.shards1 {
		run = func(u *unit) error { return u.shardCell(1) }
	}
	err := run(u)
	endRep()
	if o.traced {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return nil, err
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, err
	}
	res := &unitResult{
		Workload:      w.name,
		Seed:          o.seed,
		Smoke:         o.smoke,
		WallS:         u.wall.Seconds(),
		CPUS:          tvSeconds(ru.Utime) + tvSeconds(ru.Stime),
		PeakRSSMB:     float64(ru.Maxrss) / 1024, // Linux reports KiB
		AllocMB:       float64(u.allocB) / 1e6,
		MallocsK:      float64(u.mallocs) / 1e3,
		SetupS:        u.setup.Seconds(),
		Nodes:         u.nodes,
		Attempted:     u.attempts,
		Failed:        u.failures,
		Counters:      u.c,
		Workers:       u.workers,
		GoroutinesEnd: runtime.NumGoroutine(),
		HeapEndMB:     float64(ms.HeapAlloc) / 1e6,
		LatSamples:    u.lat.Count(),
		LatP50NS:      float64(u.lat.P50()), // 0 when nothing was observed
		LatP999NS:     float64(u.lat.Quantile(0.999)),
		Profile:       prof.Bytes(),
	}
	if o.traced {
		res.TCounters = u.t
		res.Spans = u.spans.spans
	}
	return res, nil
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// childMain is the -child entry point: run one unit, print one JSON line.
func childMain(o childOpts) int {
	res, err := runUnit(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", o.workload, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	return 0
}
