package mpi

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/model"
)

// TestRMAPutFence runs a ring of one-sided exchanges on every OS
// configuration: each rank Puts a pattern into its right neighbor's
// window, fences, and verifies byte-for-byte what its left neighbor
// deposited.
func TestRMAPutFence(t *testing.T) {
	const slot = 12345 // straddles a page boundary
	for _, os := range cluster.AllOSTypes {
		t.Run(os.String(), func(t *testing.T) {
			cl, err := cluster.New(cluster.Spec{
				Nodes: 2, OS: os, Params: model.Default(), Seed: 5,
			})
			if err != nil {
				t.Fatal(err)
			}
			_, err = RunJob(cl, 2, func(c *Comm) error {
				// Window layout: [0,slot) outgoing, [slot,2*slot) inbox.
				base, err := c.MmapAnon(2 * slot)
				if err != nil {
					return err
				}
				win, err := c.WinCreate(base, 2*slot)
				if err != nil {
					return err
				}
				fill := func(salt byte) []byte {
					b := make([]byte, slot)
					for i := range b {
						b[i] = byte(i)*3 + salt
					}
					return b
				}
				mine := fill(byte(c.Rank))
				if err := c.EP.OS.Proc().WriteAt(base, mine); err != nil {
					return err
				}
				if err := win.Fence(); err != nil { // epoch open
					return err
				}
				right := (c.Rank + 1) % c.Size
				left := (c.Rank + c.Size - 1) % c.Size
				if err := win.Put(right, 0, slot, slot); err != nil {
					return err
				}
				if err := win.Fence(); err != nil {
					return err
				}
				got := make([]byte, slot)
				if err := c.EP.OS.Proc().ReadAt(base+slot, got); err != nil {
					return err
				}
				if !bytes.Equal(got, fill(byte(left))) {
					return fmt.Errorf("rank %d: inbox does not match rank %d's pattern", c.Rank, left)
				}
				return win.Free()
			})
			if err != nil {
				t.Fatal(err)
			}
			// Collective teardown left nothing behind on any HCA.
			for _, n := range cl.Nodes {
				if n.RNIC.LiveQPs() != 0 || n.RNIC.KeysLive() != 0 || n.Mlx.LiveMRs() != 0 {
					t.Errorf("node %d leaks: QPs=%d keys=%d MRs=%d",
						n.ID, n.RNIC.LiveQPs(), n.RNIC.KeysLive(), n.Mlx.LiveMRs())
				}
				if n.MlxPico != nil && n.MlxPico.LiveMRs() != 0 {
					t.Errorf("node %d: fast path leaks %d MRs", n.ID, n.MlxPico.LiveMRs())
				}
			}
		})
	}
}

// TestRMAOutsideJob: windows require the job-shared directory.
func TestRMAOutsideJob(t *testing.T) {
	c := &Comm{}
	if _, err := c.WinCreate(0, 4096); err == nil {
		t.Fatal("WinCreate without an RMA world succeeded")
	}
}
