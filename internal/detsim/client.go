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

// Client is the closed-loop load generator of every simulated deployment,
// GeoBFT or PBFT. It keeps Window signed YCSB batches outstanding; sending
// them, counting the f+1 replies that complete one, following the leader
// and retrying are proto.Client's, over the replicas of Group.
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

	env     proto.Env
	wl      *ycsb.Workload
	core    *proto.Client
	nextSeq uint64
	done    int
}

// InitEnv implements Handler: it fills the window.
func (c *Client) InitEnv(env proto.Env) {
	c.env = env
	c.wl = ycsb.NewWorkload(Records, ycsb.DefaultTheta, int64(env.ID())*7919)
	c.core = proto.NewClient(env, c.Group)
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
	b := c.wl.MakeBatch(c.env.ID(), c.nextSeq, c.BatchSize)
	req := &pbft.Request{Batch: b, Sig: c.env.Suite().Sign(pbft.RequestPayload(&b))}
	submitted := c.env.Now()
	c.core.Submit(c.nextSeq, req, func() { c.complete(submitted, b.Len()) })
}

// Receive implements Handler.
func (c *Client) Receive(from types.NodeID, msg types.Message) { c.core.Receive(from, msg) }

// complete records a completed batch and refills the window.
func (c *Client) complete(submitted time.Duration, txns int) {
	c.done++
	if c.OnComplete != nil {
		c.OnComplete(c.env.Now(), submitted, txns)
	}
	if int(c.nextSeq)-c.done >= c.Window || (c.Total > 0 && int(c.nextSeq) >= c.Total) {
		return
	}
	if c.Think == 0 {
		c.Submit()
		return
	}
	c.env.SetTimer(c.Think, c.Submit)
}
