package cluster

import (
	"fmt"
	"time"

	"repro/internal/psm"
	"repro/internal/sim"
)

// Ranks is a set of PSM ranks started by StartRanks: their endpoints,
// the first error any of them hit, and the teardown protocol of a lossy
// fabric.
type Ranks struct {
	FirstErr
	eps  []*psm.Endpoint
	idle int // ranks that have quiesced (Drain)
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
// placement[r], named prefix+r — that opens a PSM endpoint, publishes
// its address, waits until every rank has done so, and then runs body.
// It schedules but does not run: the caller drives the machine with
// Run, so a checkpoint or a recorder can still be put in between. An
// error from the endpoint or from body ends that rank and is kept for
// Err.
func (c *Cluster) StartRanks(prefix string, placement []int, synthetic bool,
	body func(p *sim.Proc, rank int, ep *psm.Endpoint) error) *Ranks {
	n := len(placement)
	rs := &Ranks{eps: make([]*psm.Endpoint, n)}
	book := make(psm.MapBook, n)
	ready := c.NewRendezvous(n)
	for r, node := range placement {
		r := r
		osops := c.Nodes[node].NewRankOS(r)
		c.Go(node, fmt.Sprintf("%s%d", prefix, r), func(p *sim.Proc) {
			ep, err := psm.NewEndpoint(p, osops, r, book, synthetic)
			if err != nil {
				rs.Record(p, r, err)
				ready.Done(p)
				return
			}
			rs.eps[r] = ep
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

// Endpoints returns the endpoints in rank order; an entry is nil until
// its rank has opened it.
func (rs *Ranks) Endpoints() []*psm.Endpoint { return rs.eps }

// Drain is how a rank body ends on a lossy fabric: quiesce ep, then
// keep progressing until every rank has quiesced too. A quiesced rank
// still re-ACKs duplicate arrivals, and a peer's final ACK may have
// been the packet that was dropped. It gives up once any rank has
// failed, since that rank will never quiesce. The count is polled on
// one clock: fault injection is single-engine (newShardSet).
func (rs *Ranks) Drain(p *sim.Proc, ep *psm.Endpoint) error {
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
