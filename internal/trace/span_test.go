package trace

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestNilRecorderIsNoop(t *testing.T) {
	var r *Recorder
	r.Span(CatPSM, "send", "rank0", 0, 10) // must not panic
	if r.SpanCount() != 0 {
		t.Fatal("nil recorder returned data")
	}
	var b bytes.Buffer
	if err := r.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("nil recorder JSON invalid: %v", err)
	}
}

func TestRecorderSpans(t *testing.T) {
	r := NewRecorder()
	r.Span(CatMcKernel, "writev", "rank0", 100, 400)
	r.SpanBytes(CatSDMA, "txn", "nic0/sdma1", 150, 950, 8192)
	r.Span(CatMcKernel, "writev", "rank0", 500, 600)
	spans := spansOf(r)
	if len(spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(spans))
	}
	if spans[1].Bytes != 8192 || spans[1].Track != "nic0/sdma1" {
		t.Fatalf("span[1] = %+v", spans[1])
	}
	if spans[2].Name != "writev" || spans[2].End-spans[2].Begin != 100 {
		t.Fatalf("span[2] = %+v", spans[2])
	}
}

func TestChromeTraceShape(t *testing.T) {
	r := NewRecorder()
	r.Span(CatLinux, `io"ctl\`, "rank1", 1234, 5678)
	r.SpanBytes(CatFabric, "eager", "wire:0->1", 0, 250, 64)
	var b bytes.Buffer
	if err := r.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string          `json:"ph"`
			Pid  int             `json:"pid"`
			Tid  int             `json:"tid"`
			Cat  string          `json:"cat"`
			Name string          `json:"name"`
			Ts   float64         `json:"ts"`
			Dur  float64         `json:"dur"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	// 1 process_name + 2 thread_name metadata + 2 spans.
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("events = %d, want 5", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[3]
	if ev.Ph != "X" || ev.Cat != CatLinux || ev.Name != `io"ctl\` {
		t.Fatalf("span event = %+v", ev)
	}
	if ev.Ts != 1.234 || ev.Dur != 4.444 {
		t.Fatalf("ts/dur = %v/%v, want 1.234/4.444 µs", ev.Ts, ev.Dur)
	}
}

func TestChromeTraceDeterminism(t *testing.T) {
	build := func() []byte {
		r := NewRecorder()
		for i := 0; i < 50; i++ {
			r.SpanBytes(CatPSM, "send", "rank0", time.Duration(i*10), time.Duration(i*10+5), uint64(i))
			r.Span(CatIKC, "offload:writev", "rank1", time.Duration(i*7), time.Duration(i*7+30))
		}
		return r.ChromeTraceJSON()
	}
	if !bytes.Equal(build(), build()) {
		t.Fatal("identical span streams serialized differently")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 1000 || h.min != time.Microsecond || h.Max() != time.Millisecond {
		t.Fatalf("count/min/max = %d/%v/%v", h.Count(), h.min, h.Max())
	}
	// Upper-bound quantiles: within one bucket (≤25% relative error)
	// above the exact value, never below.
	checks := []struct {
		q     float64
		exact time.Duration
	}{{0.50, 500 * time.Microsecond}, {0.90, 900 * time.Microsecond}, {0.99, 990 * time.Microsecond}}
	for _, c := range checks {
		got := h.Quantile(c.q)
		if got < c.exact || float64(got) > 1.25*float64(c.exact) {
			t.Fatalf("q%.2f = %v, want within [%v, 1.25×]", c.q, got, c.exact)
		}
	}
	if h.Quantile(1.0) != time.Millisecond {
		t.Fatalf("q1.0 = %v, want max", h.Quantile(1.0))
	}
}

func TestHistogramBucketRoundTrip(t *testing.T) {
	f := func(raw uint32) bool {
		d := time.Duration(raw)
		i := bucketOf(d)
		if i < 0 || i >= histBuckets {
			return false
		}
		ub := bucketUpper(i)
		if d > ub {
			return false // value above its bucket's upper bound
		}
		// Upper bound of the previous bucket lies strictly below d's
		// bucket.
		return i == 0 || bucketUpper(i-1) < d
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// spansOf copies r's spans in emission order.
func spansOf(r *Recorder) []Span {
	var out []Span
	r.ForEachSpan(func(s *Span) { out = append(out, *s) })
	return out
}
