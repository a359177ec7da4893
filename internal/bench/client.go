package bench

import (
	"time"

	"resilientdb/internal/metrics"
	"resilientdb/internal/pbft"
	"resilientdb/internal/proto"
	"resilientdb/internal/simnet"
	"resilientdb/internal/types"
	"resilientdb/internal/ycsb"
)

// quorumClient is the closed-loop load generator of the PBFT and GeoBFT
// benchmarks. It keeps `window` batches outstanding, completes a batch on
// quorum matching replies, rebroadcasts on timeout, and reports completions
// to the collector.
type quorumClient struct {
	target       types.NodeID
	retryTargets []types.NodeID
	quorum       int
	acceptFrom   func(types.NodeID) bool // nil: accept from anyone
	window       int
	batchSize    int
	retryAfter   time.Duration
	collector    *metrics.Collector
	records      int

	env       *simnet.Env
	wl        *ycsb.Workload
	nextSeq   uint64
	pending   map[uint64]*pendingEntry
	broadcast bool // after a timeout: submit to the whole group (the
	// configured target may be a crashed primary)
}

type pendingEntry struct {
	req       *pbft.Request
	submitted time.Duration
	acks      map[types.NodeID]bool
}

func (c *quorumClient) Init(env *simnet.Env) {
	c.env = env
	c.wl = ycsb.NewWorkload(c.records, ycsb.DefaultTheta, int64(env.ID())*7919)
	c.pending = make(map[uint64]*pendingEntry)
	if c.retryAfter == 0 {
		c.retryAfter = 1500 * time.Millisecond
	}
	for i := 0; i < c.window; i++ {
		c.submit()
	}
}

func (c *quorumClient) submit() {
	c.nextSeq++
	seq := c.nextSeq
	b := c.wl.MakeBatch(c.env.ID(), seq, c.batchSize)
	req := &pbft.Request{Batch: b, Sig: c.env.Suite().Sign(pbft.RequestPayload(&b))}
	c.pending[seq] = &pendingEntry{
		req: req, submitted: c.env.Now(), acks: make(map[types.NodeID]bool),
	}
	if c.broadcast {
		for _, m := range c.retryTargets {
			c.env.Send(m, req)
		}
	} else {
		c.env.Send(c.target, req)
	}
	c.armRetry(seq)
}

func (c *quorumClient) armRetry(seq uint64) {
	c.env.SetTimer(c.retryAfter, func() {
		p := c.pending[seq]
		if p == nil {
			return
		}
		// The configured target did not answer in time (for example a
		// crashed primary): broadcast this and all future submissions; the
		// replicas route to whoever currently leads.
		c.broadcast = true
		for _, m := range c.retryTargets {
			c.env.Send(m, p.req)
		}
		c.armRetry(seq)
	})
}

func (c *quorumClient) Receive(from types.NodeID, msg types.Message) {
	rep, ok := msg.(*proto.Reply)
	if !ok {
		return
	}
	p := c.pending[rep.ClientSeq]
	if p == nil || p.acks[from] {
		return
	}
	if c.acceptFrom != nil && !c.acceptFrom(from) {
		return
	}
	c.env.Suite().ChargeVerifyMAC()
	p.acks[from] = true
	if len(p.acks) >= c.quorum {
		delete(c.pending, rep.ClientSeq)
		c.collector.RecordCompletion(c.env.Now(), p.submitted, p.req.Batch.Len())
		c.submit()
	}
}
