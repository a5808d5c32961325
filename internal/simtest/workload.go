// Package simtest is a property-based, deterministic simulation-testing
// harness for the whole stack: randomized cluster workloads are driven
// through sim → fabric → hfi → psm under each of the paper's three OS
// configurations, with fault-injection hooks (RcvArray/TID scarcity,
// eager-ring and header-queue near-overflow, SDMA descriptor-ring
// backpressure, fabric latency jitter) and an invariant battery
// (byte-exact delivery against an in-memory reference, pin/TID balance
// at teardown, virtual-clock monotonicity, same-seed digest equality).
//
// Every workload is identified by a (base seed, cell name) pair; a
// failing run prints a one-line repro command carrying exactly those
// two values, and Shrink greedily minimizes the failing workload.
package simtest

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/hfi"
	"repro/internal/model"
	"repro/internal/runner"
)

// OrderMode selects how a rank interleaves its Isend/Irecv postings.
type OrderMode int

const (
	// OrderInOrder posts all receives, then all sends.
	OrderInOrder OrderMode = iota
	// OrderSendFirst posts sends before any receive is up, forcing the
	// unexpected-message path (bounce heap, pending RTS).
	OrderSendFirst
	// OrderReversed posts receive groups in reverse order (receives for
	// the same (src, tag) stay FIFO, as MPI matching requires).
	OrderReversed
	// OrderStaggered interleaves receives, sends and compute phases.
	OrderStaggered

	orderModes
)

func (m OrderMode) String() string {
	switch m {
	case OrderInOrder:
		return "in-order"
	case OrderSendFirst:
		return "send-first"
	case OrderReversed:
		return "reversed"
	case OrderStaggered:
		return "staggered"
	}
	return fmt.Sprintf("OrderMode(%d)", int(m))
}

// Msg is one point-to-point message of a workload.
type Msg struct {
	Src, Dst int
	Tag      uint64
	Size     uint64
}

// Workload is a fully-specified randomized scenario. Everything the
// execution depends on is derived from (Base, Cell), so the struct
// itself is reproducible from the repro command line.
type Workload struct {
	Cell string
	Base int64
	Seed int64

	OS           cluster.OSType
	Nodes        int
	RanksPerNode int
	Order        OrderMode
	// RMA routes every message through the verbs HCA as a one-sided
	// RDMA WRITE into the receiver's window instead of PSM send/recv.
	RMA bool
	// LargePages backs Linux ranks with contiguous large pages
	// (ignored by the McKernel configurations, whose LWK policy is
	// always contiguous).
	LargePages bool

	// Params are the model constants the cell's cluster is built with:
	// model.Default() with the cell's hardware perturbations applied
	// (ring and RcvArray scarcity, SDMA backpressure, link jitter, a
	// second rail, a smaller rendezvous window).
	Params model.Params
	// Faults is the fabric fault profile (loss, duplication,
	// reordering, outages, SDMA aborts); an active profile turns on
	// PSM's reliability protocol.
	Faults fabric.FaultProfile
	// Congestion is the fabric's credit/ECN profile; an active profile
	// also arms PSM's AIMD eager-window backoff.
	Congestion fabric.CongProfile

	// Shards > 0 marks a shard-aware cell: the cluster is split into
	// that many engine shards (1 = one standalone engine), and Check
	// additionally runs the cell at Shards=1 requiring an identical
	// digest. The ranks start and drain as on one engine: StartRanks'
	// ready barrier is at a quiescent point, and Ranks.Drain returns at
	// once on the loss-free, uncongested fabric a shard set requires.
	Shards int
	// Untraced disables the span recorder. Shard cells set it: span
	// interleaving across engines depends on the shard count, and the
	// digest must not.
	Untraced bool

	Msgs []Msg
}

// sizeClasses straddle every protocol threshold: the PIO limit (16K),
// the eager/rendezvous SDMA threshold (64K) and multi-window
// rendezvous lengths.
var sizeClasses = []uint64{
	1, 17, 1000, 4096,
	16<<10 - 1, 16 << 10, 16<<10 + 1, 40 << 10,
	64<<10 - 8, 64 << 10, 64<<10 + 8,
	96 << 10, 200 << 10, 520 << 10,
}

// rmaSizeClasses straddle the verbs DMA chunking boundaries: sub-MTU,
// exactly one MTU (4K), one byte over, multi-page, and large transfers
// spanning many chunks.
var rmaSizeClasses = []uint64{
	1, 1000, 4095, 4096, 4097, 12345,
	64 << 10, 200 << 10, 520 << 10,
}

// dupSafeSizes are the classes eligible for duplicate-tag injection:
// PIO and shared-memory sends deliver synchronously in posting order,
// so two in-flight messages with the same (src, tag) can never
// interleave chunk arrival. Eager-SDMA sizes are excluded — their
// chunks fan out over 16 engines and may interleave, which would make
// FIFO matching of identical tags schedule-dependent.
var dupSafeSizes = []uint64{1000, 4096, 16 << 10}

// cellKind is one kind of simtest cell: the path segment between the OS
// and the index that names it ("" for a plain cell) and the generator
// that expands it.
type cellKind struct {
	name string
	gen  func(w Workload, index int) Workload
	// fault marks a deliberate fault cell: it must fail, so Cells, the
	// soak grid, leaves it out.
	fault bool
}

// cellKinds is the cell catalogue, in soak-grid order. A cell is named
// OS/index (a plain cell) or OS/kind/index.
var cellKinds = []cellKind{
	{name: "", gen: generatePlain},
	{name: "rma", gen: generateRMA},
	{name: "lossy", gen: generateLossy},
	{name: "failover", gen: generateFailover},
	{name: "tenancy", gen: generateTenancy},
	{name: "shard", gen: generateShard},
	{name: "!tid", gen: generateTIDFault, fault: true},
}

// Cells is the soak grid: for each OS configuration, perOS plain cells
// and (perOS+2)/3 cells of every other non-fault kind. A cell's name
// seeds it, so the names never change.
func Cells(perOS int) []string {
	var cells []string
	for _, os := range cluster.AllOSTypes {
		for _, k := range cellKinds {
			if k.fault {
				continue
			}
			n, prefix := (perOS+2)/3, os.String()+"/"+k.name+"/"
			if k.name == "" {
				n, prefix = perOS, os.String()+"/"
			}
			for i := 0; i < n; i++ {
				cells = append(cells, prefix+strconv.Itoa(i))
			}
		}
	}
	return cells
}

// parseCell splits a cell name into its OS configuration, its kind and
// its index, refusing any name outside the catalogue.
func parseCell(cell string) (cluster.OSType, cellKind, int, error) {
	osName, rest, _ := strings.Cut(cell, "/")
	kind, idx, hasKind := strings.Cut(rest, "/")
	if !hasKind {
		kind, idx = "", rest
	}
	i := slices.IndexFunc(cluster.AllOSTypes, func(os cluster.OSType) bool { return os.String() == osName })
	k := slices.IndexFunc(cellKinds, func(k cellKind) bool { return k.name == kind })
	n, err := strconv.Atoi(idx)
	if i < 0 || k < 0 || (hasKind && kind == "") || err != nil || n < 0 || strconv.Itoa(n) != idx {
		var kinds []string
		for _, k := range cellKinds[1:] {
			kinds = append(kinds, k.name)
		}
		return 0, cellKind{}, 0, fmt.Errorf("simtest: cell %q is not OS/index or OS/kind/index (OS one of %v, kind one of %s)",
			cell, cluster.AllOSTypes, strings.Join(kinds, ", "))
	}
	return cluster.AllOSTypes[i], cellKinds[k], n, nil
}

// Generate expands a (base, cell) pair into a concrete workload. The
// per-cell seed comes from runner.DeriveSeed, so distinct cells explore
// distinct corners while any single cell is exactly reproducible.
//
// A fault kind's cells must fail: generateTIDFault shrinks the
// RcvArray far below what a rendezvous window needs, so the run fails
// with a TID-exhaustion error.
func Generate(base int64, cell string) (Workload, error) {
	osType, kind, index, err := parseCell(cell)
	if err != nil {
		return Workload{}, err
	}
	return kind.gen(Workload{
		Cell:   cell,
		Base:   base,
		Seed:   runner.DeriveSeed(base, "simtest/"+cell),
		OS:     osType,
		Params: model.Default(),
	}, index), nil
}

// generatePlain builds a plain cell: randomized loss-free point-to-point
// traffic, sometimes with a duplicate tag, link jitter, SDMA
// backpressure or rings sized at exactly the workload's occupancy.
func generatePlain(w Workload, _ int) Workload {
	rng := rand.New(rand.NewSource(w.Seed))
	w.Nodes = 1 + rng.Intn(3)
	w.RanksPerNode = 1 + rng.Intn(3)
	if w.Nodes*w.RanksPerNode < 2 {
		w.Nodes = 2
	}
	w.Order = OrderMode(rng.Intn(int(orderModes)))
	w.LargePages = rng.Intn(2) == 0
	if rng.Intn(2) == 0 {
		w.Params.RendezvousWindow = 128 << 10
	}
	if rng.Intn(3) == 0 {
		w.Params.LinkJitter = time.Duration(1+rng.Intn(2000)) * time.Nanosecond
	}
	if rng.Intn(3) == 0 {
		w.Params.SDMAQueueDepth = 1 + rng.Intn(4)
	}
	w.randomMsgs(rng, 4+rng.Intn(9), sizeClasses)
	if rng.Intn(3) == 0 {
		// Duplicate-tag injection: the last message reuses the first
		// message's (src, dst, tag, size). Payloads are keyed by (tag,
		// size), so both copies carry identical bytes and FIFO matching
		// is exercised without making delivery schedule-dependent.
		first := w.Msgs[0]
		first.Size = dupSafeSizes[rng.Intn(len(dupSafeSizes))]
		w.Msgs[0] = first
		w.Msgs[len(w.Msgs)-1] = first
	}
	if rng.Intn(3) == 0 {
		w.tightenRings()
	}
	return w
}

// generateRMA builds a one-sided workload: every message becomes an
// RDMA WRITE into a dedicated slot of the receiver's registered
// window, so delivery order cannot affect the bytes and the harness
// additionally exercises MR registration, QP wiring and the HCA
// teardown balance.
func generateRMA(w Workload, _ int) Workload {
	rng := rand.New(rand.NewSource(w.Seed))
	w.RMA = true
	w.Nodes = 2 + rng.Intn(2)
	w.RanksPerNode = 1 + rng.Intn(2)
	w.LargePages = rng.Intn(2) == 0
	if rng.Intn(3) == 0 {
		w.Params.LinkJitter = time.Duration(1+rng.Intn(2000)) * time.Nanosecond
	}
	w.randomMsgs(rng, 3+rng.Intn(6), rmaSizeClasses)
	return w
}

// generateLossy builds a lossy-fabric cell: the same randomized
// point-to-point traffic as a plain cell, but over a fabric that drops,
// corrupts, duplicates and reorders packets (and sometimes aborts SDMA
// transactions), so PSM's reliability protocol carries the workload.
// Ring tightening is skipped: a lossy rendezvous posts one header-queue
// entry per expected packet instead of one per window, so the plain
// cells' occupancy bound does not apply.
func generateLossy(w Workload, _ int) Workload {
	rng := rand.New(rand.NewSource(w.Seed))
	w.Nodes = 2 + rng.Intn(2)
	w.RanksPerNode = 1 + rng.Intn(2)
	w.Order = OrderMode(rng.Intn(int(orderModes)))
	w.LargePages = rng.Intn(2) == 0
	if rng.Intn(2) == 0 {
		w.Params.RendezvousWindow = 128 << 10
	}
	w.Faults = fabric.FaultProfile{
		LinkFaults: fabric.LinkFaults{
			Drop:         0.005 + 0.045*rng.Float64(),
			Corrupt:      0.02 * rng.Float64(),
			Dup:          0.05 * rng.Float64(),
			Reorder:      0.1 * rng.Float64(),
			ReorderDelay: time.Duration(1+rng.Intn(3000)) * time.Nanosecond,
		},
	}
	if rng.Intn(3) == 0 {
		w.Faults.SDMAErr = 0.3 * rng.Float64()
	}
	w.randomMsgs(rng, 4+rng.Intn(7), sizeClasses)
	return w
}

// generateFailover builds a live-failover cell. The cell's index selects
// a scenario, cycling through three:
//
//	0 — rail flap: dual-rail NICs, two finite rail-0 outage windows;
//	    the health machine must strike, switch to rail 1, and probe
//	    back to rail 0 after each window ends.
//	1 — mid-message fast→slow switch: hard SDMA error completions with
//	    degradation disabled force eager-SDMA sends through the health
//	    machine's PIO/slow-path reroute mid-stream. Rendezvous sizes
//	    are excluded — their SDMA errors are terminal by design.
//	2 — recovery fallback: dual-rail NICs with one short outage right
//	    at startup, so most of the traffic lands after the fall back
//	    to rail 0 (striping resumes once both rails are up).
//
// Ring tightening is skipped for the same reason as generateLossy.
func generateFailover(w Workload, index int) Workload {
	rng := rand.New(rand.NewSource(w.Seed))
	w.Nodes = 2
	w.RanksPerNode = 1 + rng.Intn(2)
	w.Order = OrderMode(rng.Intn(int(orderModes)))
	w.LargePages = rng.Intn(2) == 0

	sizes := sizeClasses
	switch variant := index % 3; variant {
	case 1:
		w.Faults.SDMAErr = 0.7 + 0.3*rng.Float64()
		w.Faults.SDMANoDegrade = true
		sizes = []uint64{4096, 16 << 10, 16<<10 + 1, 40 << 10, 64<<10 - 8, 64 << 10}
	default:
		w.Params.DualRail = true
		// Outage windows cover only the rail-0 links: the link IDs of
		// rail 0 are the plain node IDs, rail 1 lives at node+RailBase.
		down := func(from, until time.Duration) {
			w.Faults.Down = append(w.Faults.Down,
				fabric.DownWindow{Src: 0, Dst: 1, From: from, Until: until},
				fabric.DownWindow{Src: 1, Dst: 0, From: from, Until: until})
		}
		if variant == 2 {
			down(0, time.Duration(200+rng.Intn(600))*time.Microsecond)
		} else {
			end1 := time.Duration(300+rng.Intn(1200)) * time.Microsecond
			down(0, end1)
			start2 := end1 + time.Duration(500+rng.Intn(1000))*time.Microsecond
			down(start2, start2+time.Duration(300+rng.Intn(1000))*time.Microsecond)
		}
	}
	w.randomMsgs(rng, 4+rng.Intn(6), sizes)
	return w
}

// generateTenancy builds a multi-job congestion cell: two concurrent
// jobs (or an incast fan-in) share the fabric under an active
// credit/ECN congestion profile, so the AIMD backoff, CNP wiring, pace
// gaps and the congestion snapshot sections all ride the same 3×
// straight/snapshot/restore digest check as every other cell. The
// cell's index selects a scenario, cycling through three:
//
//	0 — packed contention: two jobs, each a rank pair straddling the
//	    same two nodes, so both streams contend for the shared links
//	    and the link budget throttles them;
//	1 — incast: every other node streams into node 0 and the ingress
//	    budget is the N→1 bottleneck;
//	2 — congestion under light loss: the packed-contention shape over
//	    a mildly lossy fabric, so AIMD backoff and the reliability
//	    protocol's retransmits are exercised together.
//
// Sizes stay at or below the eager-SDMA threshold: ECN marks surface
// through the eager header-queue path. Ring tightening is skipped for
// the same reason as generateLossy.
func generateTenancy(w Workload, index int) Workload {
	rng := rand.New(rand.NewSource(w.Seed))
	variant := index % 3
	w.Order = OrderMode(rng.Intn(int(orderModes)))
	w.LargePages = rng.Intn(2) == 0

	if variant == 1 {
		// Incast: ranks 1..N-1 each stream a few messages into rank 0;
		// the ingress budget sits below the aggregate so the fan-in
		// stalls and marks at node 0's ingress.
		w.Nodes = 3 + rng.Intn(2)
		w.RanksPerNode = 1
		w.Congestion = fabric.CongProfile{
			LinkBudget: 16 << 10, IngressBudget: 24 << 10, MarkFrac: 0.5,
		}
		sizes := []uint64{4096, 16 << 10, 16<<10 + 1, 40 << 10}
		tag := uint64(100)
		for src := 1; src < w.Nodes; src++ {
			n := 2 + rng.Intn(3)
			for i := 0; i < n; i++ {
				w.Msgs = append(w.Msgs, Msg{
					Src: src, Dst: 0,
					Tag:  tag,
					Size: sizes[rng.Intn(len(sizes))],
				})
				tag++
			}
		}
		return w
	}

	// Packed contention (variants 0 and 2): job A runs on ranks {0, 2},
	// job B on ranks {1, 3}; with two ranks per node each job straddles
	// nodes 0 and 1, so the two jobs' streams share both directed links
	// and the link budget arbitrates between them.
	w.Nodes = 2
	w.RanksPerNode = 2
	w.Congestion = fabric.CongProfile{
		LinkBudget: 16 << 10, IngressBudget: 48 << 10, MarkFrac: 0.5,
	}
	if variant == 2 {
		w.Faults = fabric.FaultProfile{
			LinkFaults: fabric.LinkFaults{Drop: 0.002 + 0.008*rng.Float64()},
		}
	}
	sizes := []uint64{4096, 16 << 10, 16<<10 + 1, 40 << 10, 64<<10 - 8}
	tag := uint64(100)
	for job := 0; job < 2; job++ {
		a, b := job, job+2 // rank a on node 0, rank b on node 1
		n := 3 + rng.Intn(4)
		for i := 0; i < n; i++ {
			m := Msg{Src: a, Dst: b, Tag: tag, Size: sizes[rng.Intn(len(sizes))]}
			if rng.Intn(2) == 0 {
				m.Src, m.Dst = m.Dst, m.Src
			}
			w.Msgs = append(w.Msgs, m)
			tag++
		}
	}
	return w
}

// generateShard builds a sharded-engine comparison cell: plain
// loss-free point-to-point traffic over enough nodes for a four-way
// partition. Check runs it at both Shards=4 and Shards=1 and requires
// the digests to match, which is the harness-level statement of the
// sharded engine's contract (the shard count is an execution strategy,
// never a model change). Tracing stays off — span interleaving across
// engines depends on the shard count — and so do jitter, faults and
// congestion, which cluster.New rejects for sharded runs.
func generateShard(w Workload, _ int) Workload {
	rng := rand.New(rand.NewSource(w.Seed))
	w.Shards = 4
	w.Untraced = true
	w.Nodes = 4 + rng.Intn(3)
	w.RanksPerNode = 1 + rng.Intn(2)
	w.Order = OrderMode(rng.Intn(int(orderModes)))
	w.LargePages = rng.Intn(2) == 0
	if rng.Intn(2) == 0 {
		w.Params.RendezvousWindow = 128 << 10
	}
	w.randomMsgs(rng, 4+rng.Intn(9), sizeClasses)
	return w
}

// generateTIDFault builds the deliberate RcvArray-exhaustion scenario:
// two nodes, one rank each, a rendezvous-sized message, and a context
// limited to 8 TIDs. On Linux (scattered 4K frames) a 300K window
// needs 75 RcvArray entries, so the receiver's TID-update ioctl must
// fail.
func generateTIDFault(w Workload, _ int) Workload {
	w.Nodes, w.RanksPerNode = 2, 1
	w.Order = OrderInOrder
	w.Params.TIDsPerContext = 8
	w.Msgs = []Msg{
		{Src: 0, Dst: 1, Tag: 100, Size: 4096},
		{Src: 0, Dst: 1, Tag: 101, Size: 300 << 10},
	}
	return w
}

// randomMsgs appends n messages between distinct ranks drawn from rng,
// tagged 100, 101, ... in order, each sized from sizes.
func (w *Workload) randomMsgs(rng *rand.Rand, n int, sizes []uint64) {
	ranks := w.Nodes * w.RanksPerNode
	for i := 0; i < n; i++ {
		src := rng.Intn(ranks)
		dst := rng.Intn(ranks - 1)
		if dst >= src {
			dst++
		}
		w.Msgs = append(w.Msgs, Msg{
			Src: src, Dst: dst,
			Tag:  uint64(100 + i),
			Size: sizes[rng.Intn(len(sizes))],
		})
	}
}

// tightenRings sizes the eager ring, header queue and completion queue
// at exactly this workload's worst-case occupancy, forcing the
// near-overflow paths without ever making a correct run fail. The
// bound assumes the slowest possible consumer: every inbound entry may
// be resident at once, so capacity must cover the per-context totals.
// An eager-SDMA message takes hfi.MaxEagerRequests slots, the bound of
// the drivers' request split; no slack is added, so a miscount fails.
func (w *Workload) tightenRings() {
	pr := &w.Params
	win := pr.RendezvousWindow
	chunk := pr.EagerChunk
	nodeOf := func(r int) int { return r / w.RanksPerNode }
	ranks := w.Nodes * w.RanksPerNode
	eager := make([]int, ranks)
	hdrq := make([]int, ranks)
	cq := make([]int, ranks)
	for _, m := range w.Msgs {
		switch {
		case nodeOf(m.Src) == nodeOf(m.Dst) || m.Size <= pr.PIOMaxSize:
			// Shared-memory and PIO delivery land one EagerChunk per slot.
			chunks := int((m.Size + chunk - 1) / chunk)
			eager[m.Dst] += chunks
			hdrq[m.Dst] += chunks
		case m.Size <= pr.SDMAThreshold:
			reqs := hfi.MaxEagerRequests(m.Size)
			eager[m.Dst] += reqs
			hdrq[m.Dst] += reqs
			cq[m.Src]++ // one writev completion
		default:
			wins := int((m.Size + win - 1) / win)
			eager[m.Dst]++          // RTS
			hdrq[m.Dst] += 1 + wins // RTS + per-window expected-done
			eager[m.Src] += wins    // one CTS per window
			hdrq[m.Src] += wins
			cq[m.Src] += wins // one writev completion per window
		}
	}
	pr.EagerSlots = max(slices.Max(eager), 1)
	pr.HdrqEntries = max(slices.Max(hdrq), 1)
	pr.CQEntries = max(slices.Max(cq), 1)
}

// Summary is the one-line human description used in failure reports.
func (w Workload) Summary() string {
	var bytes uint64
	for _, m := range w.Msgs {
		bytes += m.Size
	}
	s := fmt.Sprintf("cell=%s seed=%d os=%s nodes=%d ranks/node=%d order=%s msgs=%d bytes=%d",
		w.Cell, w.Base, w.OS, w.Nodes, w.RanksPerNode, w.Order, len(w.Msgs), bytes)
	if w.Faults.Active() {
		s += fmt.Sprintf(" lossy(drop=%.3f dup=%.3f reorder=%.3f sdmaerr=%.3f)",
			w.Faults.Drop, w.Faults.Dup, w.Faults.Reorder, w.Faults.SDMAErr)
	}
	if w.Params.DualRail {
		s += fmt.Sprintf(" dualrail(downwindows=%d)", len(w.Faults.Down))
	}
	if w.Congestion.Active() {
		s += fmt.Sprintf(" cong(link=%d ingress=%d mark=%.2f)",
			w.Congestion.LinkBudget, w.Congestion.IngressBudget, w.Congestion.MarkFrac)
	}
	if w.Shards > 0 {
		s += fmt.Sprintf(" shards=%d", w.Shards)
	}
	if pr := w.Params; pr.EagerSlots > 0 {
		s += fmt.Sprintf(" rings(eager=%d hdrq=%d cq=%d)", pr.EagerSlots, pr.HdrqEntries, pr.CQEntries)
	}
	return s
}
