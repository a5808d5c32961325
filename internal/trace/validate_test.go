package trace

import (
	"strings"
	"testing"
)

func TestValidate(t *testing.T) {
	rec := NewRecorder()
	rec.Span(CatPSM, "send:pio", "rank0", 10, 20)
	rec.SpanBytes(CatFabric, "eager", "link0-1", 12, 18, 4096)
	events, spans, err := Validate(rec.ChromeTraceJSON())
	if err != nil {
		t.Fatalf("recorder's own trace rejected: %v", err)
	}
	// process_name + two thread_name metadata events + two spans.
	if events != 5 || spans != 2 {
		t.Fatalf("events=%d spans=%d, want 5 and 2", events, spans)
	}

	const meta = `{"ph":"M","pid":1,"tid":0,"name":"process_name"}`
	rejected := []struct{ name, data, wantErr string }{
		{"invalid JSON", `not json`, "not valid JSON"},
		{"X without dur", `{"traceEvents":[{"ph":"X","pid":1,"tid":1,"cat":"psm","name":"a","ts":1}]}`, "X event without ts/dur"},
		{"span without cat", `{"traceEvents":[{"ph":"X","pid":1,"tid":1,"name":"a","ts":1,"dur":2}]}`, "span without cat"},
		{"unknown phase", `{"traceEvents":[{"ph":"B","pid":1,"tid":1,"cat":"psm","name":"a","ts":1}]}`, `unexpected phase "B"`},
		{"missing tid", `{"traceEvents":[{"ph":"X","pid":1,"cat":"psm","name":"a","ts":1,"dur":2}]}`, "missing name/ph/pid/tid"},
		{"zero spans", `{"traceEvents":[` + meta + `]}`, "no span"},
		{"nil recorder's empty trace", string((*Recorder)(nil).ChromeTraceJSON()), "no span"},
	}
	for _, c := range rejected {
		if _, _, err := Validate([]byte(c.data)); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.wantErr)
		}
	}
}
