package fabric

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"resilientdb/internal/config"
	"resilientdb/internal/pbft"
	"resilientdb/internal/proto"
	"resilientdb/internal/types"
)

// Client is a networked fabric client: it submits transaction batches to
// its local cluster and waits for replies from f+1 of its members, like the
// paper's clients (Section 2.4). Every request is signed with the client's
// provisioned key; replicas verify the signature before admission. Whom a
// batch goes to, when it is retried and when it is complete are the rules
// of proto.Client, which runs under the client's mutex.
type Client struct {
	env *nodeEnv

	mu      sync.Mutex
	nextSeq uint64
	core    *proto.Client

	quit      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// NewClient registers client index i (home cluster i mod z) on the fabric.
// The index must be below Config.Clients: only provisioned identities have
// signing keys, and replicas reject unauthenticated requests.
func (f *Fabric) NewClient(i int) *Client {
	if i < 0 || i >= f.cfg.Clients {
		panic(fmt.Sprintf("fabric: client index %d outside provisioned range [0,%d)", i, f.cfg.Clients))
	}
	c := &Client{quit: make(chan struct{})}
	c.env = newEnv(f, config.ClientID(i), c.locked)
	c.core = proto.NewClient(c.env, f.cfg.Topo.ClusterMembers(i%f.cfg.Topo.Clusters))
	inbox := f.tr.Register(c.env.id)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			select {
			case env, ok := <-inbox:
				if !ok {
					return
				}
				c.locked(func() { c.core.Receive(env.From, env.Msg) })
			case <-c.quit:
				return
			}
		}
	}()
	return c
}

// locked runs fn under the client's mutex: the one context of its core.
func (c *Client) locked(fn func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fn()
}

// ErrTimeout is returned when a submission is not confirmed in time.
var ErrTimeout = errors.New("fabric: submission timed out")

// Submit sends one batch of transactions to the client's local cluster and
// blocks until f+1 replicas confirm execution or timeout elapses.
func (c *Client) Submit(txns []types.Transaction, timeout time.Duration) error {
	b := types.Batch{Client: c.env.id, Txns: txns}
	c.locked(func() { c.nextSeq++; b.Seq = c.nextSeq })
	b.PrimeDigest() // cache before the batch is shared with replica pipelines
	req := &pbft.Request{Batch: b, Sig: c.env.suite.Sign(pbft.RequestPayload(&b))}
	done := make(chan struct{})
	c.locked(func() { c.core.Submit(b.Seq, req, func() { close(done) }) })

	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	err := ErrTimeout
	select {
	case <-done:
		return nil
	case <-deadline.C:
	case <-c.quit:
		err = errors.New("fabric: client closed")
	}
	c.locked(func() { c.core.Cancel(b.Seq) })
	return err
}

// Close stops the client. It is idempotent: concurrent and repeated calls
// are safe, and any blocked Submit returns with an error.
func (c *Client) Close() {
	c.closeOnce.Do(func() { close(c.quit) })
	c.wg.Wait()
}
