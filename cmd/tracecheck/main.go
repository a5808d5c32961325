// Command tracecheck validates a Chrome trace-event JSON file produced
// by the simulator's span recorder: the file must parse, hold a
// non-empty traceEvents array, and every event must carry the fields
// Perfetto requires (name, ph, pid, ts for X/M phases, dur for X). The
// checks are trace.Validate, the same validator `go test` runs over
// every determinism gate's trace.
//
// Usage:
//
//	tracecheck trace.json [more.json ...]
package main

import (
	"fmt"
	"os"

	"repro/internal/trace"
)

func check(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	events, spans, err := trace.Validate(raw)
	if err != nil {
		return err
	}
	fmt.Printf("%s: ok (%d events, %d spans)\n", path, events, spans)
	return nil
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck trace.json [more.json ...]")
		os.Exit(2)
	}
	for _, path := range os.Args[1:] {
		if err := check(path); err != nil {
			fmt.Fprintf(os.Stderr, "tracecheck: %s: %v\n", path, err)
			os.Exit(1)
		}
	}
}
