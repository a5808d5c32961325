package snapshot

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Builder builds one side of a Bisect: the simulation exactly as the
// run under study builds it, not yet run (or positioned by its own
// Restore at or before Bisect's from), and the func that closes it.
type Builder func() (m Machine, done func(), err error)

// Divergence is where two runs first differ.
type Divergence struct {
	// Lo and Hi bound the first differing slice (Lo, Hi]: the sides'
	// snapshots are equal after Run(Lo) and differ after Run(Hi), and
	// Hi-Lo is 1 ns. Lo == Hi when the sides already differ at Bisect's
	// from.
	Lo, Hi time.Duration
	// Diff is Diff of the two snapshots at Hi: side a is its
	// "snapshot", side b its "replayed".
	Diff string
	// Events lists, per side, the pending event records due in (Lo, Hi]
	// with their walked argument lines, from its snapshot at Lo: the
	// slice's events, as far as they were scheduled before it began.
	Events [2]string
}

func (d *Divergence) String() string {
	if d.Lo == d.Hi {
		return fmt.Sprintf("runs already differ at %d ns: %s", int64(d.Hi), d.Diff)
	}
	return fmt.Sprintf("first divergence in (%d, %d] ns: %s\nevents due in the slice:\n  snapshot (a):\n%s  replayed (b):\n%s",
		int64(d.Lo), int64(d.Hi), d.Diff, d.Events[0], d.Events[1])
}

// fanout is how many steps Bisect splits an interval into per level.
const fanout = 16

// Bisect finds the first nanosecond at which two runs' snapshots
// differ, comparing them with Diff. It builds both sides, runs them in
// lockstep from from to to in fanout steps and snapshots both at each
// step; the first differing step is then refined fanout-fold per
// level — both sides rebuilt and replayed to the last equal instant, as
// Restore replays — down to a 1 ns slice (lo, hi]. It returns nil if the
// sides are equal at every step up to to; a to past the end of both
// runs compares their final states. An error is a side that fails to
// build or run, or sides that do not replay to what they were stepped
// to.
func Bisect(a, b Builder, from, to time.Duration) (*Divergence, error) {
	lo, hi := from, to
	var atLo [2][]byte // each side's snapshot at lo
	for level := 0; ; level++ {
		diff, err := bisectLevel(a, b, level, &lo, &hi, &atLo)
		if err != nil || diff == "" {
			return nil, err
		}
		if hi-lo <= 1 {
			d := &Divergence{Lo: lo, Hi: hi, Diff: diff}
			if lo < hi {
				d.Events = [2]string{dueEvents(atLo[0], lo, hi), dueEvents(atLo[1], lo, hi)}
			}
			return d, nil
		}
	}
}

// bisectLevel builds both sides, replays them to *lo and steps them to
// *hi, narrowing (*lo, *hi] to the first step whose snapshots differ
// and returning that Diff ("" if none does). At level 0 a difference at
// *lo itself sets *hi = *lo.
func bisectLevel(a, b Builder, level int, lo, hi *time.Duration, atLo *[2][]byte) (string, error) {
	var sides [2]Machine
	for i, build := range []Builder{a, b} {
		m, done, err := build()
		if err != nil {
			return "", fmt.Errorf("snapshot: bisect side %c: %w", 'a'+i, err)
		}
		defer done()
		sides[i] = m
	}
	at := func(t time.Duration) (img [2][]byte, err error) {
		for i, m := range sides {
			if now := m.Now(); now > t {
				return img, fmt.Errorf("snapshot: bisect side %c: built at %v, past %v", 'a'+i, now, t)
			} else if now < t {
				if err := m.Run(t); err != nil {
					return img, fmt.Errorf("snapshot: bisect side %c: run to %v: %w", 'a'+i, t, err)
				}
			}
			var buf bytes.Buffer
			if err := m.Snapshot(&buf); err != nil {
				return img, fmt.Errorf("snapshot: bisect side %c at %v: %w", 'a'+i, t, err)
			}
			img[i] = buf.Bytes()
		}
		return img, nil
	}
	img, err := at(*lo)
	if err != nil {
		return "", err
	}
	if d := Diff(img[0], img[1]); d != "" {
		if level > 0 {
			return "", fmt.Errorf("snapshot: bisect: the sides replayed to %v differ, but were equal when stepped there: %s", *lo, d)
		}
		*hi = *lo
		return d, nil
	}
	*atLo = img
	step := max((*hi-*lo+fanout-1)/fanout, 1)
	for t := *lo + step; ; t += step {
		t = min(t, *hi)
		img, err := at(t)
		if err != nil {
			return "", err
		}
		if d := Diff(img[0], img[1]); d != "" {
			*hi = t
			return d, nil
		}
		*lo, *atLo = t, img
		if t == *hi {
			break
		}
	}
	if level > 0 {
		return "", fmt.Errorf("snapshot: bisect: the sides differed at %v, but replay equal there", *hi)
	}
	return "", nil
}

// dueEvents lists the event records of img's engine sections that fall
// due in (lo, hi], each behind its section's name and followed by its
// walked argument lines.
func dueEvents(img []byte, lo, hi time.Duration) string {
	f, err := Decode(img)
	if err != nil {
		return ""
	}
	var buf strings.Builder
	for _, s := range f.Sections {
		if _, name, _ := cutShard(s.Name); name != "engine" {
			continue
		}
		due := false
		for _, l := range lines(s.Payload) {
			switch {
			case bytes.HasPrefix(l, []byte("event at=")):
				num, _, _ := bytes.Cut(l[len("event at="):], []byte(" "))
				at, err := strconv.ParseInt(string(num), 10, 64)
				due = err == nil && lo < time.Duration(at) && time.Duration(at) <= hi
				if due {
					fmt.Fprintf(&buf, "    %s: %s\n", s.Name, l)
				}
			case due && bytes.HasPrefix(l, []byte("event[")):
				fmt.Fprintf(&buf, "      %s\n", l)
			}
		}
	}
	return buf.String()
}
