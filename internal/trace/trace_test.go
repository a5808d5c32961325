package trace

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestProfileBasics(t *testing.T) {
	p := NewSyscallProfile()
	p.Add("writev", 10*time.Microsecond)
	p.Add("writev", 5*time.Microsecond)
	p.Add("ioctl", 30*time.Microsecond)
	if p.Time("writev") != 15*time.Microsecond {
		t.Fatalf("writev = %v", p.Time("writev"))
	}
	if count(p, "writev") != 2 || count(p, "ioctl") != 1 {
		t.Fatal("counts wrong")
	}
	if p.Total() != 45*time.Microsecond {
		t.Fatalf("total = %v", p.Total())
	}
}

func TestTopOrderingAndShares(t *testing.T) {
	p := NewSyscallProfile()
	p.Add("a", 10)
	p.Add("b", 30)
	p.Add("c", 20)
	p.Add("d", 40)
	top := p.Top(2)
	if len(top) != 2 || top[0].Name != "d" || top[1].Name != "b" {
		t.Fatalf("top = %+v", top)
	}
	if top[0].Share != 0.4 {
		t.Fatalf("share = %f", top[0].Share)
	}
	all := p.Top(0)
	if len(all) != 4 {
		t.Fatalf("all = %d", len(all))
	}
}

func TestTopTieBreaksByName(t *testing.T) {
	p := NewSyscallProfile()
	p.Add("zz", 10)
	p.Add("aa", 10)
	top := p.Top(0)
	if top[0].Name != "aa" {
		t.Fatalf("tie break wrong: %v", top)
	}
}

func TestMergeCloneSub(t *testing.T) {
	a := NewSyscallProfile()
	a.Add("x", 100)
	b := NewSyscallProfile()
	b.Add("x", 50)
	b.Add("y", 10)
	a.Merge(b)
	if a.Time("x") != 150 || a.Time("y") != 10 {
		t.Fatal("merge wrong")
	}
	snap := a.Clone()
	a.Add("x", 25)
	if snap.Time("x") != 150 {
		t.Fatal("clone not independent")
	}
	a.Sub(snap)
	if a.Time("x") != 25 || a.Time("y") != 0 {
		t.Fatalf("sub wrong: x=%v y=%v", a.Time("x"), a.Time("y"))
	}
	if count(a, "x") != 1 {
		t.Fatalf("sub count wrong: %d", count(a, "x"))
	}
	// Sub never goes negative.
	a.Sub(snap)
	if a.Time("x") != 0 {
		t.Fatal("negative time after double sub")
	}
}

// TestSubKeepsMapsInLockstep is the regression test for Sub deleting
// a name's time and count independently (they were two maps once): a
// call whose time zeroes out while invocations remain (or vice versa)
// must survive and still be reported by Top and String.
func TestSubKeepsMapsInLockstep(t *testing.T) {
	base := NewSyscallProfile()
	base.Add("ioctl", 100) // snapshot: 1 call, 100ns

	cur := base.Clone()
	cur.Add("ioctl", 0) // second call contributes no time
	cur.Sub(base)       // delta: 1 call, 0ns

	if count(cur, "ioctl") != 1 {
		t.Fatalf("count after Sub = %d, want 1", count(cur, "ioctl"))
	}
	top := cur.Top(0)
	if len(top) != 1 || top[0].Name != "ioctl" || top[0].Count != 1 {
		t.Fatalf("Top dropped the zero-time entry: %+v", top)
	}
	if !strings.Contains(cur.String(), "ioctl") {
		t.Fatal("String dropped the zero-time entry")
	}
}

// TestSubMapConsistencyProperty drives Sub with random accumulator /
// baseline pairs and checks the structural invariants: every surviving
// entry is nonzero in time or count, and Top reports every surviving
// name.
func TestSubMapConsistencyProperty(t *testing.T) {
	names := []string{"read", "write", "ioctl", "futex", "poll"}
	f := func(adds []uint8, snapAt uint8) bool {
		acc := NewSyscallProfile()
		var snap *SyscallProfile
		cut := int(snapAt) % (len(adds) + 1)
		for i, a := range adds {
			if i == cut {
				snap = acc.Clone()
			}
			// Low bits pick the name; high bits pick the duration, with
			// duration 0 hit often to exercise zero-time entries.
			acc.Add(names[int(a)%len(names)], time.Duration(a>>4))
		}
		if snap == nil {
			snap = acc.Clone()
		}
		acc.Sub(snap)
		for _, c := range acc.calls {
			if c.Time == 0 && c.Count == 0 {
				return false // fully-zero entries must be pruned
			}
		}
		return len(acc.Top(0)) == len(acc.calls)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestStringRendering(t *testing.T) {
	p := NewSyscallProfile()
	p.Add("ioctl", time.Millisecond)
	s := p.String()
	if !strings.Contains(s, "ioctl") || !strings.Contains(s, "100.0%") {
		t.Fatalf("rendering = %q", s)
	}
}

// count is name's invocation count in p.
func count(p *SyscallProfile, name string) uint64 {
	if e, ok := p.calls[name]; ok {
		return e.Count
	}
	return 0
}
