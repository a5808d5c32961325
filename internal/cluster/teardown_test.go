package cluster

import (
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/psm"
	"repro/internal/sim"
	"repro/internal/verbs"
)

// TestCheckTeardownNamesTheLeak runs a two-rank ping-pong that closes
// its endpoints and passes the check, then leaves one thing behind per
// row and expects the check to name it: a rank that skips ep.Close
// keeps its node's driver context open, and a verbs QP never destroyed
// stays live on its HCA.
func TestCheckTeardownNamesTheLeak(t *testing.T) {
	for _, tc := range []struct {
		name string
		// leak runs on rank 1 before its endpoint would close; it
		// reports whether the endpoint is to stay open.
		leak func(p *sim.Proc, ep *psm.Endpoint) (keepOpen bool, err error)
		want string // "" passes
	}{
		{name: "clean", want: ""},
		{name: "endpoint-open", want: "node 1 leaks 1 open driver contexts",
			leak: func(*sim.Proc, *psm.Endpoint) (bool, error) { return true, nil }},
		{name: "qp", want: "node 1 leaks 1 verbs QPs",
			leak: func(p *sim.Proc, ep *psm.Endpoint) (bool, error) {
				u, err := verbs.Open(p, ep.OS.(*RankOS))
				if err != nil {
					return false, err
				}
				// Closing the device would destroy the QP.
				_, err = u.CreateQP(p, verbs.QPConfig{})
				return false, err
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(Spec{Nodes: 2, OS: OSLinux, Params: model.Default(), Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			bounce := pingPong(3, 64<<10)
			ranks := c.StartRanks("rank", []int{0, 1}, nil, func(p *sim.Proc, rank int, ep *psm.Endpoint) error {
				if err := bounce(p, rank, ep); err != nil {
					return err
				}
				if rank == 1 && tc.leak != nil {
					keepOpen, err := tc.leak(p, ep)
					if keepOpen || err != nil {
						return err
					}
				}
				return ep.Close(p)
			})
			if err := c.Run(0); err != nil {
				t.Fatal(err)
			}
			if err := ranks.Err(); err != nil {
				t.Fatal(err)
			}
			err = c.CheckTeardown(ranks.Endpoints())
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("CheckTeardown = %v on a clean teardown", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("CheckTeardown = %v, want it to name %q", err, tc.want)
			}
		})
	}
}
