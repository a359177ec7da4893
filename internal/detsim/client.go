package detsim

import (
	"time"

	"resilientdb/internal/pbft"
	"resilientdb/internal/proto"
	"resilientdb/internal/types"
	"resilientdb/internal/ycsb"
)

// Records is the size of the YCSB table the client's batches write to (the
// simulation's working set; the paper's 600k only affects memory, not
// behaviour).
const Records = 10_000

// clientRetry is how long a batch may go unanswered before the client
// rebroadcasts it to the whole group.
const clientRetry = 1500 * time.Millisecond

// Client is the closed-loop load generator of every simulated deployment,
// GeoBFT or PBFT. It keeps Window signed YCSB batches outstanding, submits
// each to Group[0] (the primary it expects), and completes a batch once f+1
// members of Group — f = (len(Group)−1)/3 — replied to it; replies from
// outside Group are ignored. A batch unanswered for 1.5 s is rebroadcast to
// the whole Group, and so is every later submission (the configured target
// may be a crashed primary; the replicas route to whoever leads now).
type Client struct {
	// Group is the replica group the client submits to: a GeoBFT client's
	// own cluster, or the whole PBFT group.
	Group []types.NodeID
	// Window is the number of batches kept outstanding. Zero submits only
	// when Submit is called.
	Window int
	// BatchSize is the number of transactions per batch.
	BatchSize int
	// Total bounds the batches submitted by refilling the window; zero is
	// unbounded.
	Total int
	// Think delays each refill after a completion; zero refills at once.
	Think time.Duration
	// OnComplete, if set, observes each completed batch: when it was
	// submitted and how many transactions it carried.
	OnComplete func(now, submitted time.Duration, txns int)

	env       proto.Env
	wl        *ycsb.Workload
	members   map[types.NodeID]bool
	nextSeq   uint64
	pending   map[uint64]*pendingEntry
	broadcast bool // after a timeout: submit to the whole group
	done      int
}

type pendingEntry struct {
	req       *pbft.Request
	submitted time.Duration
	acks      map[types.NodeID]bool
}

// InitEnv implements Handler: it fills the window.
func (c *Client) InitEnv(env proto.Env) {
	c.env = env
	c.wl = ycsb.NewWorkload(Records, ycsb.DefaultTheta, int64(env.ID())*7919)
	c.pending = make(map[uint64]*pendingEntry)
	c.members = make(map[types.NodeID]bool, len(c.Group))
	for _, m := range c.Group {
		c.members[m] = true
	}
	for i := 0; i < c.Window && (c.Total == 0 || int(c.nextSeq) < c.Total); i++ {
		c.Submit()
	}
}

// ID returns the client's node identifier (valid once the network started).
func (c *Client) ID() types.NodeID { return c.env.ID() }

// Completed returns how many batches completed.
func (c *Client) Completed() int { return c.done }

// Submit signs and sends the client's next batch. It must run in the
// client's own context: from its handlers, or through Network.At.
func (c *Client) Submit() {
	c.nextSeq++
	seq := c.nextSeq
	b := c.wl.MakeBatch(c.env.ID(), seq, c.BatchSize)
	req := &pbft.Request{Batch: b, Sig: c.env.Suite().Sign(pbft.RequestPayload(&b))}
	c.pending[seq] = &pendingEntry{
		req: req, submitted: c.env.Now(), acks: make(map[types.NodeID]bool),
	}
	if c.broadcast {
		proto.Multicast(c.env, c.Group, req)
	} else {
		c.env.Send(c.Group[0], req)
	}
	c.armRetry(seq)
}

func (c *Client) armRetry(seq uint64) {
	c.env.SetTimer(clientRetry, func() {
		p := c.pending[seq]
		if p == nil {
			return
		}
		c.broadcast = true
		proto.Multicast(c.env, c.Group, p.req)
		c.armRetry(seq)
	})
}

// Receive implements Handler: it counts replies and refills the window.
func (c *Client) Receive(from types.NodeID, msg types.Message) {
	rep, ok := msg.(*proto.Reply)
	if !ok {
		return
	}
	p := c.pending[rep.ClientSeq]
	if p == nil || p.acks[from] || !c.members[from] {
		return
	}
	c.env.Suite().ChargeVerifyMAC()
	p.acks[from] = true
	if len(p.acks) <= (len(c.Group)-1)/3 { // f+1 replies complete it
		return
	}
	delete(c.pending, rep.ClientSeq)
	c.done++
	if c.OnComplete != nil {
		c.OnComplete(c.env.Now(), p.submitted, p.req.Batch.Len())
	}
	if len(c.pending) >= c.Window || (c.Total > 0 && int(c.nextSeq) >= c.Total) {
		return
	}
	if c.Think == 0 {
		c.Submit()
		return
	}
	c.env.SetTimer(c.Think, c.Submit)
}
