package proto

import (
	"slices"
	"time"

	"resilientdb/internal/types"
)

// ClientRetry is how long a request may go unanswered before the client
// rebroadcasts it to its whole group, and again every ClientRetry until it
// completes. It is a constant, not a knob: a caller's per-call timeout is
// only the deadline at which it gives up.
const ClientRetry = 1500 * time.Millisecond

// LeaderOf returns the leader of view v in a replica group: leadership
// rotates through the members in order (PBFT's primary p = v mod n).
func LeaderOf(members []types.NodeID, v uint64) types.NodeID {
	return members[v%uint64(len(members))]
}

// Client is the one quorum client of the paper (Section 2.4): it sends each
// request to the leader of its group and completes the request once f+1
// members — f = (n−1)/3 — replied to it, so at least one reply is from a
// non-faulty replica. It has no goroutine: its owner calls Submit, Cancel and
// Receive from the one context that also runs the Env's timers (the
// simulator's event loop, or the fabric client's mutex).
//
// Every reply carries the view of the replica that sent it. The client keeps
// the highest view each member reported and sends new requests to the
// leader of the (f+1)-th highest of those views: f lying members can neither
// raise it nor hold it down, and it never goes backwards. A request
// unanswered for ClientRetry is rebroadcast to the whole group, so a crashed
// leader delays only the requests it already held; the backups forward them
// and, if it stays silent, elect a new leader that the replies then name.
type Client struct {
	env     Env
	group   []types.NodeID
	f       int
	views   []uint64 // highest view each member of group reported
	view    uint64   // the (f+1)-th highest of views
	pending map[uint64]*outstanding
}

type outstanding struct {
	req  types.Message
	acks map[types.NodeID]bool
	done func()
}

// NewClient returns a client core for the replica group, in the group's
// leader-rotation order, whose effects go out through env.
func NewClient(env Env, group []types.NodeID) *Client {
	return &Client{
		env: env, group: group, f: (len(group) - 1) / 3,
		views: make([]uint64, len(group)), pending: make(map[uint64]*outstanding),
	}
}

// Submit sends req, the client's signed request numbered seq, to the leader
// it currently knows and runs done once f+1 members replied to seq.
func (c *Client) Submit(seq uint64, req types.Message, done func()) {
	c.pending[seq] = &outstanding{req: req, acks: make(map[types.NodeID]bool), done: done}
	c.env.Send(LeaderOf(c.group, c.view), req)
	c.armRetry(seq)
}

func (c *Client) armRetry(seq uint64) {
	c.env.SetTimer(ClientRetry, func() {
		if p := c.pending[seq]; p != nil {
			Multicast(c.env, c.group, p.req)
			c.armRetry(seq)
		}
	})
}

// Cancel forgets request seq: its done never runs and it is not retried.
func (c *Client) Cancel(seq uint64) { delete(c.pending, seq) }

// Receive handles one inbound message. A Reply from a member of the group
// reports that member's view and counts towards its request; anything else
// is ignored.
func (c *Client) Receive(from types.NodeID, m types.Message) {
	rep, ok := m.(*Reply)
	if !ok {
		return
	}
	i := slices.Index(c.group, from)
	if i < 0 {
		return
	}
	if rep.View > c.views[i] {
		c.views[i] = rep.View
		vs := slices.Clone(c.views)
		slices.Sort(vs)
		c.view = vs[len(vs)-1-c.f]
	}
	p := c.pending[rep.ClientSeq]
	if p == nil || p.acks[from] {
		return
	}
	c.env.Suite().ChargeVerifyMAC()
	p.acks[from] = true
	if len(p.acks) > c.f {
		delete(c.pending, rep.ClientSeq)
		p.done()
	}
}
