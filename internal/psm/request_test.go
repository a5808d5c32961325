package psm

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestFreedRequestPanics: once Wait has handed a request back and
// nothing else holds it, its record is on the free list and poisoned.
// Completing it, failing it or waiting on it again panics with the
// record's name instead of corrupting the message that reuses it.
func TestFreedRequestPanics(t *testing.T) {
	ep := &Endpoint{}
	ep.initPools()
	sr := ep.newSend()
	sr.req.complete(nil)
	if err := ep.Wait(nil, &sr.req); err != nil {
		t.Fatal(err)
	}
	rr := ep.newRecv()
	ep.completeRecv(rr, 0)
	if err := ep.Wait(nil, &rr.req); err != nil {
		t.Fatal(err)
	}
	if s, r := ep.sendRecs.Stats(), ep.recvRecs.Stats(); s.Puts != 1 || r.Puts != 1 || s.Live() != 0 || r.Live() != 0 {
		t.Fatalf("pools after Wait: sends %+v, receives %+v; want both records back", s, r)
	}
	late := errors.New("late")
	for _, c := range []struct {
		name   string
		r      *Request
		use    func(*Request)
		record string
	}{
		{"complete send", &sr.req, func(r *Request) { r.complete(nil) }, "sendReq"},
		{"fail send", &sr.req, func(r *Request) { r.complete(late) }, "sendReq"},
		{"complete recv", &rr.req, func(r *Request) { r.complete(nil) }, "recvReq"},
		{"fail recv", &rr.req, func(r *Request) { r.complete(late) }, "recvReq"},
		{"wait twice", &sr.req, func(r *Request) { _ = ep.Wait(nil, r) }, "sendReq"},
	} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "psm: "+c.record+" used after put") {
					t.Errorf("%s: recovered %q, want a panic naming %s", c.name, msg, c.record)
				}
			}()
			c.use(c.r)
		}()
	}
	if sr.req.Done || sr.req.Err != nil || rr.req.Done || rr.req.Err != nil {
		t.Errorf("a poisoned record was written: send %+v, recv %+v", sr.req, rr.req)
	}
}

// TestRequestFreedByLastHolder: Wait frees a record only when the
// protocol has let go of it too. A send still in the send map (a
// rendezvous whose request failed, say) survives Wait and returns to the
// free list when the map drops it.
func TestRequestFreedByLastHolder(t *testing.T) {
	ep := &Endpoint{sends: make(map[uint64]*sendReq)}
	ep.initPools()
	sr := ep.newSend()
	sr.msgid = 7
	ep.trackSend(sr)
	sr.req.complete(errors.New("failed"))
	if err := ep.Wait(nil, &sr.req); err == nil {
		t.Fatal("Wait lost the request's error")
	}
	if ep.sendRecs.Stats().Puts != 0 {
		t.Fatal("Wait freed a send the send map still holds")
	}
	ep.untrackSend(sr)
	if ep.sendRecs.Stats().Puts != 1 {
		t.Fatal("the send map's drop did not free the record")
	}
	if again := ep.newSend(); again != sr || again.req.Done || again.msgid != 0 {
		t.Fatalf("reused record not cleared: %+v", again)
	}
}
