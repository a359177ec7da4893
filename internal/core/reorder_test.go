package core_test

import (
	"fmt"
	"testing"
	"time"

	"resilientdb/internal/config"
	"resilientdb/internal/core"
	"resilientdb/internal/detsim"
	"resilientdb/internal/ledger"
	"resilientdb/internal/pbft"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
)

// TestLinkReorderingIsSafe swaps every pair of consecutive messages on every
// link of a z=2, n=4 deployment — client links included — and requires the
// run to be indistinguishable from an ordered one: every client completes,
// the replicas' ledgers are equal and audit as prefixes, and no view change,
// local or remote, starts. The fabric's input stage relies on exactly this:
// its input goroutines hand two messages from one sender to the worker in
// either order. Jitter is off, so the swaps are the only reordering, and the
// run repeats exactly.
func TestLinkReorderingIsSafe(t *testing.T) {
	const total = 20
	d := deploy(t, 2, 4, total, detsim.Options{JitterFrac: -1})
	handlers := make(map[types.NodeID]detsim.Handler)
	for id, r := range d.reps {
		handlers[id] = r
	}
	for i, c := range d.clients {
		handlers[config.ClientID(i)] = c
	}

	// held is the message parked on each link, waiting for its successor.
	type parked struct{ msg types.Message }
	held := make(map[[2]types.NodeID]*parked)
	swapped, released := 0, 0
	d.net.Intercept = func(from, to types.NodeID, m types.Message) ([]transport.Delivery, bool) {
		link := [2]types.NodeID{from, to}
		if p := held[link]; p != nil {
			delete(held, link)
			swapped++
			return []transport.Delivery{{To: to, Msg: m}, {To: to, Msg: p.msg}}, true
		}
		p := &parked{m}
		held[link] = p
		// No successor within 1 ms: the message goes out alone.
		d.net.At(d.net.Now()+time.Millisecond, to, func() {
			if held[link] == p {
				delete(held, link)
				released++
				handlers[to].Receive(from, p.msg)
			}
		})
		return nil, true
	}
	viewChanges := 0
	d.net.TraceSend = func(_, _ types.NodeID, m types.Message, _ int, _ bool) {
		switch m.(type) {
		case *pbft.ViewChange, *pbft.NewView, *core.DRvc, *core.Rvc:
			viewChanges++
		}
	}

	d.net.RunUntil(120 * time.Second)
	for i, c := range d.clients {
		if c.Completed() != c.Total {
			t.Errorf("cluster %d client completed %d/%d", i, c.Completed(), c.Total)
		}
	}
	d.assertConvergence(t, nil)
	ledgers := make(map[string]*ledger.Ledger)
	for id, r := range d.reps {
		ledgers[fmt.Sprint(id)] = r.Ledger()
		if r.Local().View() != 0 || r.Local().InViewChange() {
			t.Errorf("%v: view %d, in view change %v", id, r.Local().View(), r.Local().InViewChange())
		}
	}
	if err := ledger.AuditPrefixes(ledgers); err != nil {
		t.Error(err)
	}
	if viewChanges != 0 {
		t.Errorf("%d view-change messages sent", viewChanges)
	}
	if swapped == 0 || released == 0 {
		t.Errorf("%d pairs swapped, %d messages released alone: the intercept did not reorder", swapped, released)
	}
	t.Logf("%d pairs swapped, %d messages released alone", swapped, released)
}
