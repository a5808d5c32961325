package cluster

import (
	"strconv"
	"time"

	"repro/internal/psm"
	"repro/internal/sim"
)

// Ranks is a set of PSM ranks started by StartRanks: their endpoints,
// the first error any of them hit, and their teardown.
type Ranks struct {
	FirstErr
	eps []*psm.Endpoint
	// settle is set when a peer can still owe a rank an ACK, NAK or CNP
	// after its own flows are idle: the fabric is lossy or congested.
	settle bool
	idle   int // ranks that have quiesced (Drain)
}

// FirstErr keeps, of the errors a set of ranks report, the earliest in
// virtual time, the lowest rank on a tie: the cause, not what it later
// did to a peer. Read Err after Run.
type FirstErr struct {
	err  error
	at   time.Duration
	rank int
}

// Record reports that rank failed with err at p's current time.
func (f *FirstErr) Record(p *sim.Proc, rank int, err error) {
	t := p.Now()
	if f.err == nil || t < f.at || (t == f.at && rank < f.rank) {
		f.err, f.at, f.rank = err, t, rank
	}
}

// Err returns the first error recorded, nil if none was.
func (f *FirstErr) Err() error { return f.err }

// StartRanks spawns one process per placement entry — rank r on node
// placement[r], named prefix+r — that opens a PSM endpoint, runs init
// (when not nil: a runtime's own startup, MPI_Init for mpi), publishes
// its address, waits until every rank has done so, and then runs body.
// The endpoints elide payload bytes exactly when Spec.Synthetic is set.
// It schedules but does not run: the caller drives the machine with
// Run, so a checkpoint or a recorder can still be put in between. An
// error from the endpoint, init or body ends that rank and is kept for
// Err.
func (c *Cluster) StartRanks(prefix string, placement []int,
	init, body func(p *sim.Proc, rank int, ep *psm.Endpoint) error) *Ranks {
	n := len(placement)
	rs := &Ranks{
		eps:    make([]*psm.Endpoint, n),
		settle: c.Cfg.Faults.Active() || c.Cfg.Congestion.Active(),
	}
	book := make(psm.MapBook, n)
	ready := c.NewRendezvous(n)
	for r, node := range placement {
		r := r
		osops := c.Nodes[node].NewRankOS(r)
		var name [32]byte // the name costs its string alone
		c.Go(node, string(strconv.AppendInt(append(name[:0], prefix...), int64(r), 10)), func(p *sim.Proc) {
			ep, err := psm.NewEndpoint(p, osops, r, book, c.Cfg.Synthetic)
			if err == nil {
				rs.eps[r] = ep
				if init != nil {
					err = init(p, r, ep)
				}
			}
			if err != nil {
				rs.Record(p, r, err)
				ready.Done(p)
				return
			}
			book[r] = psm.Addr{Node: osops.NodeID(), Ctx: ep.CtxID}
			ready.Done(p)
			ready.Wait(p)
			if err := body(p, r, ep); err != nil {
				rs.Record(p, r, err)
			}
		})
	}
	return rs
}

// Blocks is the block placement: ranks [n*ranksPerNode,
// (n+1)*ranksPerNode) on node n, for each of nodes nodes.
func Blocks(nodes, ranksPerNode int) []int {
	placement := make([]int, nodes*ranksPerNode)
	for r := range placement {
		placement[r] = r / ranksPerNode
	}
	return placement
}

// Endpoints returns the endpoints in rank order; an entry is nil until
// its rank has opened it.
func (rs *Ranks) Endpoints() []*psm.Endpoint { return rs.eps }

// Drain is how a rank body ends. On a lossy or congested fabric it
// quiesces ep, then keeps progressing until every rank has quiesced
// too: a quiesced rank still re-ACKs duplicate arrivals, a peer's final
// ACK may have been the packet that was dropped, and a CNP may still be
// in flight. It gives up once any rank has failed, since that rank will
// never quiesce. The count is polled on one clock, which is legal
// because both fabrics are single-engine (newShardSet). On any other
// fabric no peer sends a rank anything once its own operations have
// completed, so Drain returns at once, on one engine or on a shard set.
func (rs *Ranks) Drain(p *sim.Proc, ep *psm.Endpoint) error {
	if !rs.settle {
		return nil
	}
	if err := ep.Quiesce(p); err != nil {
		return err
	}
	rs.idle++
	for rs.idle < len(rs.eps) && rs.Err() == nil {
		if _, err := ep.Progress(p); err != nil {
			return err
		}
		p.Sleep(time.Microsecond)
	}
	return nil
}
