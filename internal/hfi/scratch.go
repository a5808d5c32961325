package hfi

import (
	"fmt"

	"repro/internal/mem"
)

// Scratch is the host-side working storage of one receive context's
// fast-path system calls — writev and the TID ioctls, in the Linux
// driver and in the PicoDriver alike. Each buffer lives only inside one
// call and is reused by the next, so a call in steady state allocates
// nothing; what outlives a call (the SDMA transaction, its request list,
// the pages pinned for it) comes from free lists instead and is returned
// after its completion callback has run.
//
// There is one record per open context, not one per driver or per NIC:
// a call can suspend its caller (ctx.Spend, the TID spinlock), and
// another rank on the node can then enter the same driver. The record is
// host memory only; it is no simulated state, and no snapshot prints it.
type Scratch struct {
	held bool
	// TIDs holds a decoded TID list, or the pairs AllocAndProgramTIDs
	// programs; Wire is the list's byte encoding on its way to or from
	// user memory.
	TIDs []TIDPair
	Wire []byte
	// Bitmap is the call's copy of hfi1_ctxtdata.tid_map.
	Bitmap []byte
	// Exts holds a page list or a page-table extent walk; Segs the
	// PicoDriver's TID-entry segments cut from it.
	Exts []mem.Extent
	Segs []mem.Extent
}

// TakeScratch hands out context id's scratch record until Release.
// Taking a record that is already held panics: two calls sharing one
// context's buffers would overwrite each other's.
func (n *NIC) TakeScratch(id int) (*Scratch, error) {
	c, ok := n.contexts[id]
	if !ok {
		return nil, fmt.Errorf("hfi: no context %d", id)
	}
	if c.scratch.held {
		panic(fmt.Sprintf("hfi: node %d context %d scratch taken twice", n.Node, id))
	}
	c.scratch.held = true
	return &c.scratch, nil
}

// Release returns the record for the context's next call.
func (s *Scratch) Release() { s.held = false }
