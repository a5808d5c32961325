// Package miniapps provides communication/computation skeletons of the
// five CORAL mini-applications the paper evaluates (§4.2), plus the
// IMB-style ping-pong microbenchmark behind Figure 4.
//
// Each skeleton reproduces the *communication profile* that makes the
// application sensitive (or not) to system call offloading:
//
//   - LAMMPS: small halo exchanges (PIO — no driver involvement) and
//     rare scalar reductions; expected to run at parity on McKernel.
//   - Nekbone: latency-bound CG iterations (tiny allreduces + small
//     halos); benefits slightly from noise-free LWK cores.
//   - UMT2013: wavefront transport sweeps with large downstream faces —
//     rendezvous transfers whose writev/ioctl chains collapse under
//     offload contention (Figure 6a).
//   - HACC: 3-D domain exchange with ~MB faces plus a heavyweight
//     Cart_create (Table 1).
//   - QBOX: broadcast/alltoallv-heavy electronic-structure loop over
//     eager-SDMA-sized messages, with per-step scratch mmap/munmap
//     (Figure 9's munmap observation).
//
// Figures of merit follow the paper: runtime relative to Linux, weak
// scaling (per-rank work constant as nodes grow).
package miniapps

import (
	"fmt"
	"time"

	"repro/internal/mpi"
	"repro/internal/psm"
	"repro/internal/uproc"
)

// App is one benchmark configuration.
type App struct {
	Name         string
	RanksPerNode int
	// Steps is the number of timesteps/iterations of the main loop.
	Steps int
	// Body runs the per-rank skeleton.
	Body func(c *mpi.Comm, a *App) error
}

// nodeGrid builds the node-aware 2-D decomposition used by the halo and
// sweep skeletons: the x dimension walks across nodes (so ±x faces cross
// the fabric and exercise the driver) while the y dimension stays inside
// a node (shared-memory transport). rank = x*ny + y.
func nodeGrid(c *mpi.Comm) (nx, ny int) {
	ny = c.RanksPerNode
	if ny <= 0 {
		ny = 1
	}
	nx = c.Size / ny
	if nx*ny != c.Size {
		nx, ny = c.Size, 1
	}
	return nx, ny
}

// gridNeighbor returns the rank at offset (dx, dy) in the node-aware
// grid, or -1 outside the domain.
func gridNeighbor(c *mpi.Comm, nx, ny, dx, dy int) int {
	x, y := c.Rank/ny, c.Rank%ny
	x += dx
	y += dy
	if x < 0 || x >= nx || y < 0 || y >= ny {
		return -1
	}
	return x*ny + y
}

// dims2 factors n into the most square (nx, ny) grid with nx*ny == n.
func dims2(n int) (int, int) {
	best := 1
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			best = d
		}
	}
	return n / best, best
}

// dims3 factors n into a 3-D grid.
func dims3(n int) (int, int, int) {
	bestA := 1
	for a := 1; a*a*a <= n; a++ {
		if n%a == 0 {
			bestA = a
		}
	}
	bx, by := dims2(n / bestA)
	return bx, by, bestA
}

// LAMMPS is the molecular-dynamics skeleton: 64 ranks/node, 6-neighbor
// halo exchange with ~10 KB faces (PIO), thermo reduction every few
// steps, dominated by computation.
func LAMMPS() *App {
	return &App{
		Name:         "LAMMPS",
		RanksPerNode: 64,
		Steps:        6,
		Body: func(c *mpi.Comm, a *App) error {
			const face = 10 << 10
			nx, ny := nodeGrid(c)
			buf, err := c.MmapAnon(8 * face)
			if err != nil {
				return err
			}
			for step := 0; step < a.Steps; step++ {
				c.Compute(3 * time.Millisecond)
				// Halo exchange with up to 4 grid neighbors (the 2-D
				// projection of the 3-D stencil; z-neighbors are
				// node-local with 64 ranks/node).
				var reqs []reqHandle
				dirs := [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}
				for d, dir := range dirs {
					nb := gridNeighbor(c, nx, ny, dir[0], dir[1])
					if nb < 0 {
						continue
					}
					tag := uint64(1000 + step*8 + d)
					rr, err := c.Irecv(nb, tag^1, buf+uint64VA(uint64(d)*face), face)
					if err != nil {
						return err
					}
					sr, err := c.Isend(nb, tag, buf+uint64VA(uint64(4+d)*face), face)
					if err != nil {
						return err
					}
					reqs = append(reqs, reqHandle{rr}, reqHandle{sr})
				}
				if err := waitAll(c, reqs); err != nil {
					return err
				}
				if step%3 == 0 {
					if err := c.Allreduce(8); err != nil {
						return err
					}
				}
			}
			return nil
		},
	}
}

// LAMMPSRMA is the one-sided variant of the LAMMPS halo exchange: the
// same decomposition, faces and cadence, but neighbors deposit halo
// faces directly into each other's windows with MPI_Put between two
// fences instead of Isend/Irecv pairs. After window setup the exchange
// is pure RDMA — zero system calls per step on every OS configuration —
// so the remaining OS sensitivity isolates the *registration* path,
// which is exactly what the MLX PicoDriver ports (§6 future work).
func LAMMPSRMA() *App {
	return &App{
		Name:         "LAMMPS-RMA",
		RanksPerNode: 64,
		Steps:        6,
		Body: func(c *mpi.Comm, a *App) error {
			const face = 10 << 10
			nx, ny := nodeGrid(c)
			// Window layout mirrors the two-sided buffer: inbox slot d at
			// d*face, outgoing slot d at (4+d)*face.
			buf, err := c.MmapAnon(8 * face)
			if err != nil {
				return err
			}
			win, err := c.WinCreate(buf, 8*face)
			if err != nil {
				return err
			}
			dirs := [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}
			for step := 0; step < a.Steps; step++ {
				c.Compute(3 * time.Millisecond)
				if err := win.Fence(); err != nil { // open exposure epoch
					return err
				}
				for d, dir := range dirs {
					nb := gridNeighbor(c, nx, ny, dir[0], dir[1])
					if nb < 0 {
						continue
					}
					// My +x face lands in the neighbor's -x inbox: the
					// opposite direction of d is d^1.
					if err := win.Put(nb, uint64(4+d)*face, uint64(d^1)*face, face); err != nil {
						return err
					}
				}
				if err := win.Fence(); err != nil { // close epoch
					return err
				}
				if step%3 == 0 {
					if err := c.Allreduce(8); err != nil {
						return err
					}
				}
			}
			return win.Free()
		},
	}
}

// Nekbone is the CG-iteration skeleton: 32 ranks/node, four OpenMP
// threads folded into the compute time, two scalar allreduces plus a
// small halo per iteration.
func Nekbone() *App {
	return &App{
		Name:         "Nekbone",
		RanksPerNode: 32,
		Steps:        40,
		Body: func(c *mpi.Comm, a *App) error {
			const face = 6 << 10
			nx, ny := nodeGrid(c)
			buf, err := c.MmapAnon(4 * face)
			if err != nil {
				return err
			}
			for it := 0; it < a.Steps; it++ {
				c.Compute(500 * time.Microsecond)
				// Nearest-neighbor gather/scatter.
				for d, dir := range [][2]int{{1, 0}, {0, 1}} {
					nb := gridNeighbor(c, nx, ny, dir[0], dir[1])
					back := gridNeighbor(c, nx, ny, -dir[0], -dir[1])
					tag := uint64(2000 + it*4 + d)
					var reqs []reqHandle
					if back >= 0 {
						rr, err := c.Irecv(back, tag, buf, face)
						if err != nil {
							return err
						}
						reqs = append(reqs, reqHandle{rr})
					}
					if nb >= 0 {
						sr, err := c.Isend(nb, tag, buf+uint64VA(face), face)
						if err != nil {
							return err
						}
						reqs = append(reqs, reqHandle{sr})
					}
					if err := waitAll(c, reqs); err != nil {
						return err
					}
				}
				// CG dot products.
				if err := c.Allreduce(8); err != nil {
					return err
				}
				if err := c.Allreduce(8); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// UMT2013 is the radiation-transport skeleton: 32 ranks/node, angular
// pencil sweeps across the node dimension. Per sweep direction each rank
// receives eight ~512 KB pencil faces from upstream, computes briefly on
// each, and forwards downstream — a rendezvous transfer (TID ioctls +
// SDMA writev) every few tens of microseconds on every rank. On the
// original McKernel these offloaded calls from 32 ranks pile onto 4
// Linux CPUs and the sweep collapses (Figure 6a); at a single node all
// faces are node-local and every configuration is on par, exactly as the
// paper observes.
func UMT2013() *App {
	return &App{
		Name:         "UMT2013",
		RanksPerNode: 32,
		Steps:        2,
		Body: func(c *mpi.Comm, a *App) error {
			// Pencil faces sit just above the rendezvous threshold: the
			// full TID/writev system-call chain per transfer with modest
			// wire time — maximum offload pressure per byte.
			const face = 68 << 10
			const pencils = 24
			nx, ny := nodeGrid(c)
			_ = ny
			buf, err := c.MmapAnon(2 * face)
			if err != nil {
				return err
			}
			for step := 0; step < a.Steps; step++ {
				// Per-step angular workspace (visible as mmap/munmap in
				// the kernel profiles of Figure 8).
				work, err := c.MmapAnon(256 << 10)
				if err != nil {
					return err
				}
				for sd, sx := range []int{+1, -1} {
					up := gridNeighbor(c, nx, ny, -sx, 0)
					down := gridNeighbor(c, nx, ny, sx, 0)
					for pc := 0; pc < pencils; pc++ {
						tag := uint64(3000 + step*64 + sd*16 + pc)
						if up >= 0 {
							rr, err := c.Irecv(up, tag, buf, face)
							if err != nil {
								return err
							}
							if err := c.Wait(rr); err != nil {
								return err
							}
						}
						c.Compute(45 * time.Microsecond)
						if down >= 0 {
							if err := c.Send(down, tag, buf+uint64VA(face), face); err != nil {
								return err
							}
						}
					}
				}
				// Per-step convergence check and synchronization: the
				// Table 1 profile shows Barrier and Allreduce as the
				// dominant calls on Linux.
				if err := c.Allreduce(8); err != nil {
					return err
				}
				if err := c.Barrier(); err != nil {
					return err
				}
				if c.Rank == 0 {
					c.Misc("read", 2*time.Microsecond)
				}
				if err := c.Munmap(work); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// HACC is the cosmology skeleton: 32 ranks/node, a heavyweight
// Cart_create during setup (dominant in Table 1), then per step a 3-D
// exchange of ~MB particle/grid faces plus reductions.
func HACC() *App {
	return &App{
		Name:         "HACC",
		RanksPerNode: 32,
		Steps:        3,
		Body: func(c *mpi.Comm, a *App) error {
			const face = 128 << 10
			dx, dy, dz := dims3(c.Size)
			if err := c.CartCreate([]int{dx, dy, dz}); err != nil {
				return err
			}
			nx, ny := nodeGrid(c)
			buf, err := c.MmapAnon(8 * face)
			if err != nil {
				return err
			}
			for step := 0; step < a.Steps; step++ {
				c.Compute(800 * time.Microsecond)
				// Particle/grid exchange: three force phases, each
				// streaming several buffered chunks to the neighbors —
				// a sustained sequence of rendezvous transfers per rank.
				for phase := 0; phase < 2; phase++ {
					for chunk := 0; chunk < 2; chunk++ {
						c.Compute(500 * time.Microsecond)
						var reqs []reqHandle
						dirs := [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}
						for d, dir := range dirs {
							nb := gridNeighbor(c, nx, ny, dir[0], dir[1])
							if nb < 0 {
								continue
							}
							tag := uint64(4000 + step*256 + phase*64 + chunk*16 + d)
							rr, err := c.Irecv(nb, tag^1, buf+uint64VA(uint64(d)*face), face)
							if err != nil {
								return err
							}
							sr, err := c.Isend(nb, tag, buf+uint64VA(uint64(4+d)*face), face)
							if err != nil {
								return err
							}
							reqs = append(reqs, reqHandle{rr}, reqHandle{sr})
						}
						if err := waitAll(c, reqs); err != nil {
							return err
						}
					}
				}
				if err := c.Allreduce(64); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// QBOX is the first-principles MD skeleton: 32 ranks/node, broadcast and
// alltoallv over eager-SDMA-sized messages, frequent scratch allocation
// (munmap pressure on McKernel, Figure 9), reductions, and per-step
// computation.
func QBOX() *App {
	return &App{
		Name:         "QBOX",
		RanksPerNode: 32,
		Steps:        3,
		Body: func(c *mpi.Comm, a *App) error {
			const panel = 14 << 10 // PIO-sized row panels
			const block = 48 << 10 // eager-SDMA-sized wavefunction blocks
			for step := 0; step < a.Steps; step++ {
				// Per-step scratch working set.
				scratch, err := c.MmapAnon(2 << 20)
				if err != nil {
					return err
				}
				c.Compute(900 * time.Microsecond)
				// Wavefunction panel broadcasts from rotating roots: mostly
				// PIO-sized rows with periodic larger blocks whose writev
				// path exercises the driver; the fixed per-call costs
				// dominate over wire time at these sizes.
				for b := 0; b < 24; b++ {
					n := uint64(panel)
					if b%4 == 0 {
						n = block
					}
					if err := c.Bcast((step*4+b)%c.Size, n); err != nil {
						return err
					}
				}
				// Transpose-style exchange.
				if err := c.Alltoallv(func(peer int) uint64 { return 12 << 10 }); err != nil {
					return err
				}
				if err := c.Allreduce(8); err != nil {
					return err
				}
				if err := c.Scan(64); err != nil {
					return err
				}
				c.Compute(500 * time.Microsecond)
				if err := c.Munmap(scratch); err != nil {
					return err
				}
				c.Misc("nanosleep", 1*time.Microsecond)
			}
			return nil
		},
	}
}

// All returns every mini-app in paper order, then this repo's one-sided
// extension variant.
func All() []*App {
	return []*App{LAMMPS(), Nekbone(), UMT2013(), HACC(), QBOX(), LAMMPSRMA()}
}

// ByName looks an app up.
func ByName(name string) (*App, error) {
	for _, a := range All() {
		if a.Name == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("miniapps: unknown app %q", name)
}

// Small helpers over the mpi request API.

type reqHandle struct{ r *psm.Request }

func waitAll(c *mpi.Comm, rs []reqHandle) error {
	for _, h := range rs {
		if err := c.Wait(h.r); err != nil {
			return err
		}
	}
	return nil
}

// uint64VA converts a byte offset for address arithmetic.
func uint64VA(v uint64) uproc.VirtAddr { return uproc.VirtAddr(v) }
