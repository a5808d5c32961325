// Package trace provides the in-kernel profilers used by the evaluation:
// per-system-call time accounting (the paper's Figures 8 and 9 come from
// "our own in-house kernel profiler") and simple named counters.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// SyscallProfile accumulates time and invocation counts per system call.
type SyscallProfile struct {
	times  map[string]time.Duration
	counts map[string]uint64
}

// NewSyscallProfile returns an empty profile.
func NewSyscallProfile() *SyscallProfile {
	return &SyscallProfile{
		times:  make(map[string]time.Duration),
		counts: make(map[string]uint64),
	}
}

// Add records one invocation of name taking d.
func (s *SyscallProfile) Add(name string, d time.Duration) {
	s.times[name] += d
	s.counts[name]++
}

// Time returns the cumulative time of one call.
func (s *SyscallProfile) Time(name string) time.Duration { return s.times[name] }

// Count returns the invocation count of one call.
func (s *SyscallProfile) Count(name string) uint64 { return s.counts[name] }

// Total returns the cumulative time across all calls.
func (s *SyscallProfile) Total() time.Duration {
	var t time.Duration
	for _, d := range s.times {
		t += d
	}
	return t
}

// Clone returns a deep copy.
func (s *SyscallProfile) Clone() *SyscallProfile {
	c := NewSyscallProfile()
	c.Merge(s)
	return c
}

// Sub subtracts a baseline profile (earlier snapshot of the same
// accumulator); entries never go negative. The two maps stay in
// lockstep: a name is removed only once BOTH its time and its count
// reach zero, so a call whose time zeroes out while invocations remain
// (or vice versa) still shows up in Top and String.
func (s *SyscallProfile) Sub(base *SyscallProfile) {
	for n, d := range base.times {
		if s.times[n] >= d {
			s.times[n] -= d
		} else {
			s.times[n] = 0
		}
	}
	for n, c := range base.counts {
		if s.counts[n] >= c {
			s.counts[n] -= c
		} else {
			s.counts[n] = 0
		}
	}
	for n := range base.times {
		if s.times[n] == 0 && s.counts[n] == 0 {
			delete(s.times, n)
			delete(s.counts, n)
		}
	}
	for n := range base.counts {
		if s.times[n] == 0 && s.counts[n] == 0 {
			delete(s.times, n)
			delete(s.counts, n)
		}
	}
}

// Merge adds another profile into this one.
func (s *SyscallProfile) Merge(o *SyscallProfile) {
	for n, d := range o.times {
		s.times[n] += d
	}
	for n, c := range o.counts {
		s.counts[n] += c
	}
}

// Entry is one row of a profile breakdown.
type Entry struct {
	Name  string
	Time  time.Duration
	Count uint64
	Share float64 // fraction of the profile total
}

// Top returns the n most expensive calls, descending by time. It
// covers the union of the time and count maps, so an entry with
// invocations but zero accumulated time is still reported.
func (s *SyscallProfile) Top(n int) []Entry {
	total := s.Total()
	names := make(map[string]bool, len(s.times))
	for name := range s.times {
		names[name] = true
	}
	for name := range s.counts {
		names[name] = true
	}
	var out []Entry
	for name := range names {
		d := s.times[name]
		e := Entry{Name: name, Time: d, Count: s.counts[name]}
		if total > 0 {
			e.Share = float64(d) / float64(total)
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time > out[j].Time
		}
		return out[i].Name < out[j].Name
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// String renders the breakdown as a table.
func (s *SyscallProfile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %14s %10s %7s\n", "syscall", "time", "count", "share")
	for _, e := range s.Top(0) {
		fmt.Fprintf(&b, "%-12s %14v %10d %6.1f%%\n", e.Name, e.Time, e.Count, e.Share*100)
	}
	return b.String()
}
