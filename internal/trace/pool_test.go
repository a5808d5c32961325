package trace

import (
	"bytes"
	"testing"
	"time"
)

// record emits a deterministic span workload: four (cat, name) pairs
// cycling over two tracks, with a byte annotation on every third span.
func record(r *Recorder, n int) {
	cats := []string{CatPSM, CatSDMA}
	names := []string{"send", "recv"}
	tracks := []string{"rank0", "rank1"}
	for i := 0; i < n; i++ {
		var b uint64
		if i%3 == 0 {
			b = uint64(i)
		}
		r.SpanBytes(cats[i%2], names[(i/2)%2], tracks[i%2],
			time.Duration(i), time.Duration(i+5), b)
	}
}

// TestSpanRecordingSteadyStateAllocs pins the zero-alloc property of
// enabled tracing: once the tracks are interned and the first chunk
// exists, recording a span allocates only when a 4096-span chunk
// fills (amortized 1/4096 allocations per span).
func TestSpanRecordingSteadyStateAllocs(t *testing.T) {
	r := NewRecorder()
	record(r, 8) // intern every track; allocate the first chunk
	i := 0
	avg := testing.AllocsPerRun(1000, func() {
		r.SpanBytes(CatPSM, "send", "rank0", time.Duration(i), time.Duration(i+5), 0)
		i++
	})
	if avg > 0.01 {
		t.Fatalf("steady-state span recording allocates %.3f allocs/span, want ~1/%d", avg, spanChunkSize)
	}
}

// TestSpanStorageAcrossChunks checks that chunked storage preserves
// emission order and counts through multiple chunk boundaries.
func TestSpanStorageAcrossChunks(t *testing.T) {
	r := NewRecorder()
	n := spanChunkSize*2 + 37
	record(r, n)
	if got := r.SpanCount(); got != n {
		t.Fatalf("SpanCount = %d, want %d", got, n)
	}
	spans := spansOf(r)
	if len(spans) != n {
		t.Fatalf("ForEachSpan visited %d spans, want %d", len(spans), n)
	}
	for i, s := range spans {
		if s.Begin != time.Duration(i) {
			t.Fatalf("span %d out of emission order: begin = %v", i, s.Begin)
		}
	}
}

// TestChromeTraceByteIdentical pins export determinism: two recorders
// fed the same span sequence serialize to byte-identical JSON, across
// chunk boundaries.
func TestChromeTraceByteIdentical(t *testing.T) {
	a, b := NewRecorder(), NewRecorder()
	n := spanChunkSize + 100
	record(a, n)
	record(b, n)
	ja, jb := a.ChromeTraceJSON(), b.ChromeTraceJSON()
	if !bytes.Equal(ja, jb) {
		t.Fatalf("same span sequence produced different JSON (%d vs %d bytes)", len(ja), len(jb))
	}
}
