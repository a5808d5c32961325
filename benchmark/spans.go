package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one host-time interval the harness itself recorded around a call
// into the program: rep → cell → {setup, run, verify}. Spans inside the
// program are a later issue; these cost two clock reads each.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	PID    int    `json:"pid"`
	Begin  int64  `json:"begin_us"` // host microseconds since the Unix epoch
	End    int64  `json:"end_us"`
}

// spanLog keeps spans in memory until the benchmark ends. A nil *spanLog
// (tracing off) records nothing.
type spanLog struct {
	spans []span
	open  []int // stack of open span ids
}

// begin opens a span under the innermost open one and returns the func
// that closes it.
func (l *spanLog) begin(name string) func() {
	if l == nil {
		return func() {}
	}
	parent := 0
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, PID: os.Getpid(), Begin: time.Now().UnixMicro()})
	l.open = append(l.open, id)
	return func() {
		l.spans[id-1].End = time.Now().UnixMicro()
		l.open = l.open[:len(l.open)-1]
	}
}

// selfTimes returns, per span name (cells fold into "cell"), the summed
// self time: the span's duration minus what its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	child := make(map[[2]int]int64) // (pid, id) -> Σ child durations
	for _, s := range spans {
		child[[2]int{s.PID, s.Parent}] += s.End - s.Begin
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		name := s.Name
		if strings.HasPrefix(name, "cell ") {
			name = "cell"
		}
		out[name] += time.Duration(s.End-s.Begin-child[[2]int{s.PID, s.ID}]) * time.Microsecond
	}
	return out
}

// writeChromeTrace writes the spans in Chrome trace-event format.
func writeChromeTrace(path string, spans []span) error {
	type ev struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		TS   int64          `json:"ts"`
		Dur  int64          `json:"dur"`
		Args map[string]int `json:"args"`
	}
	evs := make([]ev, 0, len(spans))
	for _, s := range spans {
		evs = append(evs, ev{Name: s.Name, Ph: "X", PID: s.PID, TID: 1, TS: s.Begin, Dur: s.End - s.Begin,
			Args: map[string]int{"id": s.ID, "parent": s.Parent}})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
