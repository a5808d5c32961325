// Span tracing: a Recorder collects typed begin/end spans from every
// layer of the simulated stack (system calls, IKC round trips, SDMA
// descriptor lifecycles, IRQ delivery, PSM protocol phases, packet
// flight) and exports them as Chrome trace-event JSON that Perfetto
// loads directly. Latency distributions are derived from the stored
// spans after the run (report.LatencyTable).
//
// All Recorder methods are safe on a nil receiver and do nothing: an
// untraced simulation pays only a nil check per span site.
package trace

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Span categories, one per instrumented subsystem. They become the
// "cat" field of the Chrome trace events (filterable in Perfetto).
const (
	CatMcKernel = "mckernel" // LWK syscall service
	CatLinux    = "linux"    // Linux syscall service
	CatIKC      = "ikc"      // inter-kernel offload round trips
	CatSDMA     = "sdma"     // SDMA descriptor lifecycle (submit → retire)
	CatIRQ      = "irq"      // completion IRQ delivery + handler
	CatPSM      = "psm"      // PSM protocol phases (send/recv lifecycles)
	CatFabric   = "fabric"   // packet flight (egress → delivery)
	CatVerbs    = "verbs"    // RDMA verbs (doorbell → WQE DMA → CQE)
)

// Span is one completed interval on a named track. Begin and End are
// virtual timestamps (nanoseconds since simulation start).
type Span struct {
	Cat   string
	Name  string
	Track string
	Begin time.Duration
	End   time.Duration
	// Bytes annotates data-carrying spans (0 = omitted from the JSON).
	Bytes uint64
}

// spanChunkSize is the number of spans per storage chunk. Chunked
// storage appends without ever copying earlier spans: recording N spans
// costs N/spanChunkSize allocations total instead of the repeated
// doubling copies of one growing slice.
const spanChunkSize = 4096

// Recorder accumulates spans. The zero value is not usable; create with
// NewRecorder. A nil *Recorder is the disabled state: every method is a
// no-op.
//
// Determinism: spans are stored in emission order and track ids are
// interned in first-use order, both of which are reproducible
// under the deterministic engine — so two same-seed runs serialize to
// byte-identical JSON.
type Recorder struct {
	chunks     [][]Span // span storage; all chunks but the last are full
	nspans     int
	trackIDs   map[string]int
	trackOrder []string
}

// NewRecorder returns an empty, enabled recorder.
func NewRecorder() *Recorder {
	return &Recorder{trackIDs: make(map[string]int)}
}

// Span records a completed interval.
func (r *Recorder) Span(cat, name, track string, begin, end time.Duration) {
	r.SpanBytes(cat, name, track, begin, end, 0)
}

// SpanBytes is Span with a byte-count annotation. With steady-state
// cat/name/track strings it allocates only once per spanChunkSize spans.
func (r *Recorder) SpanBytes(cat, name, track string, begin, end time.Duration, bytes uint64) {
	if r == nil {
		return
	}
	if end < begin {
		end = begin
	}
	if _, ok := r.trackIDs[track]; !ok {
		r.trackIDs[track] = len(r.trackOrder) + 1 // tids start at 1
		r.trackOrder = append(r.trackOrder, track)
	}
	last := len(r.chunks) - 1
	if last < 0 || len(r.chunks[last]) == spanChunkSize {
		r.chunks = append(r.chunks, make([]Span, 0, spanChunkSize))
		last++
	}
	r.chunks[last] = append(r.chunks[last],
		Span{Cat: cat, Name: name, Track: track, Begin: begin, End: end, Bytes: bytes})
	r.nspans++
}

// SpanCount returns the number of recorded spans (0 when disabled).
func (r *Recorder) SpanCount() int {
	if r == nil {
		return 0
	}
	return r.nspans
}

// ForEachSpan visits the recorded spans in emission order.
func (r *Recorder) ForEachSpan(fn func(*Span)) {
	if r == nil {
		return
	}
	for _, c := range r.chunks {
		for i := range c {
			fn(&c[i])
		}
	}
}

// tsMicros renders a virtual-nanosecond timestamp in the microsecond
// unit Chrome trace events use, with nanosecond precision preserved.
func tsMicros(d time.Duration) string {
	return fmt.Sprintf("%d.%03d", d/1000, d%1000)
}

// jsonEscape escapes the characters that can occur in track/span names.
func jsonEscape(s string) string {
	if !strings.ContainsAny(s, `"\`) {
		return s
	}
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// WriteChromeTrace serializes the recorded spans as Chrome trace-event
// JSON (the "JSON object format": {"traceEvents":[...]}), loadable in
// Perfetto and chrome://tracing. Output is byte-identical across
// same-seed runs: events appear in emission order, preceded by
// thread-name metadata in track-intern order.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`+"\n")
		return err
	}
	if _, err := io.WriteString(w, `{"displayTimeUnit":"ns","traceEvents":[`+"\n"); err != nil {
		return err
	}
	first := true
	emit := func(format string, args ...any) error {
		sep := ",\n"
		if first {
			sep = ""
			first = false
		}
		_, err := fmt.Fprintf(w, sep+format, args...)
		return err
	}
	if err := emit(`{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"picodriver-sim"}}`); err != nil {
		return err
	}
	for i, track := range r.trackOrder {
		if err := emit(`{"ph":"M","pid":1,"tid":%d,"name":"thread_name","args":{"name":"%s"}}`,
			i+1, jsonEscape(track)); err != nil {
			return err
		}
	}
	for _, c := range r.chunks {
		for i := range c {
			s := &c[i]
			tid := r.trackIDs[s.Track]
			if s.Bytes != 0 {
				if err := emit(`{"ph":"X","pid":1,"tid":%d,"cat":"%s","name":"%s","ts":%s,"dur":%s,"args":{"bytes":%d}}`,
					tid, jsonEscape(s.Cat), jsonEscape(s.Name), tsMicros(s.Begin), tsMicros(s.End-s.Begin), s.Bytes); err != nil {
					return err
				}
				continue
			}
			if err := emit(`{"ph":"X","pid":1,"tid":%d,"cat":"%s","name":"%s","ts":%s,"dur":%s}`,
				tid, jsonEscape(s.Cat), jsonEscape(s.Name), tsMicros(s.Begin), tsMicros(s.End-s.Begin)); err != nil {
				return err
			}
		}
	}
	_, err := io.WriteString(w, "\n]}\n")
	return err
}

// ChromeTraceJSON returns the serialized trace as a byte slice.
func (r *Recorder) ChromeTraceJSON() []byte {
	var b strings.Builder
	// strings.Builder writes cannot fail.
	_ = r.WriteChromeTrace(&b)
	return []byte(b.String())
}
