package kernel

import (
	"fmt"
	"time"

	"repro/internal/kmem"
	"repro/internal/sim"
)

// SpinLockLayout describes where a ticket lock's two 32-bit words live
// within the lock's memory. Both kernels must agree on this layout for
// cross-kernel synchronization to work (§3.3): McKernel adopted the
// Linux x86_64 spin-lock implementation precisely so that it could take
// locks embedded in Linux driver structures.
type SpinLockLayout struct {
	NextOff  uint64 // ticket dispenser
	OwnerOff uint64 // now-serving counter
}

// LinuxSpinLockLayout is the layout both kernels share in this model.
var LinuxSpinLockLayout = SpinLockLayout{NextOff: 0, OwnerOff: 4}

// SpinLockSize is the number of bytes a lock occupies.
const SpinLockSize = 8

// SpinLock is a handle to a ticket spinlock stored in simulated kernel
// memory at a fixed virtual address. Separate handles (one per kernel,
// each using its own address space) referring to the same address
// synchronize against each other, provided the address is mapped in both
// kernels (address space unification) and the layouts agree.
type SpinLock struct {
	Space  *kmem.Space
	Addr   kmem.VirtAddr
	Layout SpinLockLayout
	// SpinDelay is the simulated cost of one polling iteration while
	// contended.
	SpinDelay time.Duration
}

// DefaultSpinDelay approximates one cache-line bounce.
const DefaultSpinDelay = 80 * time.Nanosecond

// NewSpinLock initializes the lock words at addr through space.
func NewSpinLock(space *kmem.Space, addr kmem.VirtAddr, layout SpinLockLayout) (*SpinLock, error) {
	l := &SpinLock{Space: space, Addr: addr, Layout: layout, SpinDelay: DefaultSpinDelay}
	if err := l.writeWord(layout.NextOff, 0); err != nil {
		return nil, err
	}
	if err := l.writeWord(layout.OwnerOff, 0); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *SpinLock) readWord(off uint64) (uint32, error) {
	var b [4]byte
	if err := l.Space.ReadAt(l.Addr+kmem.VirtAddr(off), b[:]); err != nil {
		return 0, err
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, nil
}

func (l *SpinLock) writeWord(off uint64, v uint32) error {
	b := [4]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
	return l.Space.WriteAt(l.Addr+kmem.VirtAddr(off), b[:])
}

// Lock takes the lock, spinning (in virtual time) while contended. The
// fetch-and-increment of the ticket word is atomic because simulation
// code never interleaves between blocking points.
func (l *SpinLock) Lock(p *sim.Proc) error {
	ticket, err := l.readWord(l.Layout.NextOff)
	if err != nil {
		return fmt.Errorf("kernel: spinlock fault: %w", err)
	}
	if err := l.writeWord(l.Layout.NextOff, ticket+1); err != nil {
		return err
	}
	for {
		owner, err := l.readWord(l.Layout.OwnerOff)
		if err != nil {
			return err
		}
		if owner == ticket {
			return nil
		}
		p.Sleep(l.SpinDelay)
	}
}

// Unlock releases the lock by advancing the now-serving counter.
func (l *SpinLock) Unlock() error {
	owner, err := l.readWord(l.Layout.OwnerOff)
	if err != nil {
		return err
	}
	return l.writeWord(l.Layout.OwnerOff, owner+1)
}
