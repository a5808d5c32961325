package trace

import (
	"encoding/json"
	"fmt"
)

type traceFile struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

type traceEvent struct {
	Name string          `json:"name"`
	Cat  string          `json:"cat"`
	Ph   string          `json:"ph"`
	Pid  *int            `json:"pid"`
	Tid  *int            `json:"tid"`
	Ts   json.RawMessage `json:"ts"`
	Dur  json.RawMessage `json:"dur"`
}

// Validate checks that data is a Chrome trace-event JSON file Perfetto
// will load: it must parse, every event must carry name/ph/pid/tid,
// span (ph=X) events also ts, dur and cat, metadata (ph=M) is the only
// other phase the recorder emits, and there must be at least one span.
// It returns the event and span counts.
func Validate(data []byte) (events, spans int, err error) {
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return 0, 0, fmt.Errorf("not valid JSON: %w", err)
	}
	for i, ev := range tf.TraceEvents {
		if ev.Name == "" || ev.Ph == "" || ev.Pid == nil || ev.Tid == nil {
			return 0, 0, fmt.Errorf("event %d: missing name/ph/pid/tid", i)
		}
		switch ev.Ph {
		case "X":
			if len(ev.Ts) == 0 || len(ev.Dur) == 0 {
				return 0, 0, fmt.Errorf("event %d (%s): X event without ts/dur", i, ev.Name)
			}
			if ev.Cat == "" {
				return 0, 0, fmt.Errorf("event %d (%s): span without cat", i, ev.Name)
			}
			spans++
		case "M":
			// Metadata events only need name/pid/tid.
		default:
			return 0, 0, fmt.Errorf("event %d (%s): unexpected phase %q", i, ev.Name, ev.Ph)
		}
	}
	if spans == 0 {
		return 0, 0, fmt.Errorf("no span (ph=X) events")
	}
	return len(tf.TraceEvents), spans, nil
}
