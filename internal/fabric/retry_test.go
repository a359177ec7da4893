package fabric_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"resilientdb/internal/config"
	"resilientdb/internal/crypto"
	"resilientdb/internal/fabric"
	"resilientdb/internal/pbft"
	"resilientdb/internal/proto"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
)

// TestRetryStormExactlyOnce is the at-most-once reproducer: a client whose
// retry interval is shorter than commit latency must not get its batch
// executed twice.
//
// The scenario forces the paper's client retry path (Section 2.4) through a
// view change: all pbft.Commit messages are dropped for a window, so the
// first proposal prepares but never commits, progress timers fire, and the
// cluster runs view changes while the client's retries populate every
// backup's forwarded-request buffer. Each new primary then both re-proposes
// the prepared batch from the view-change proofs and adopts the forwarded
// retry copy as fresh work — the same batch at two (or more) sequence
// numbers. When the network heals, every live sequence commits and the batch
// executes once per copy.
func TestRetryStormExactlyOnce(t *testing.T) {
	net := transport.NewFaulty(transport.NewMem(), 1)
	var healed atomic.Bool
	net.SetDrop(func(_, _ types.NodeID, msg types.Message) bool {
		if healed.Load() {
			return false
		}
		_, isCommit := msg.(*pbft.Commit)
		return isCommit
	})

	type execKey struct {
		replica types.NodeID
		client  types.NodeID
		seq     uint64
	}
	var mu sync.Mutex
	execs := make(map[execKey]int)
	f := fabric.New(fabric.Config{
		Topo:          config.NewTopology(1, 4),
		Records:       64,
		LocalTimeout:  400 * time.Millisecond,
		RemoteTimeout: 700 * time.Millisecond,
		Transport:     net,
		OnExecute: func(replica types.NodeID, _ uint64, _ types.ClusterID, batch types.Batch) {
			if batch.NoOp {
				return
			}
			mu.Lock()
			execs[execKey{replica, batch.Client, batch.Seq}]++
			mu.Unlock()
		},
	})
	defer f.Stop()

	cl := f.NewClient(0)
	defer cl.Close()

	// Heal only after the retries have reached every backup and at least two
	// view changes have had the chance to re-adopt the forwarded copy.
	go func() {
		time.Sleep(2500 * time.Millisecond)
		healed.Store(true)
	}()

	// timeout/10 = 800ms retry interval: well below the >2.5s commit latency
	// imposed by the drop window, so the request is retried while in flight.
	if err := cl.Submit([]types.Transaction{{Key: 1, Value: 1}}, 8*time.Second); err != nil {
		t.Fatalf("submit: %v", err)
	}

	// Let stragglers (other replicas, late copies) execute, then freeze.
	time.Sleep(700 * time.Millisecond)
	f.Stop()

	mu.Lock()
	defer mu.Unlock()
	if len(execs) == 0 {
		t.Fatal("batch never executed")
	}
	for k, count := range execs {
		if count > 1 {
			t.Errorf("replica %v executed (%v, seq %d) %d times; want exactly once",
				k.replica, k.client, k.seq, count)
		}
	}

	// The storm must be visible in the admission accounting: the request was
	// admitted once per replica, and every further copy was shed as a
	// duplicate (in flight) or a replay (after execution).
	mp := f.Stats().Mempool
	if mp.Admitted == 0 {
		t.Error("no admissions counted")
	}
	if mp.Duplicate+mp.Replayed == 0 {
		t.Errorf("retry storm left no duplicate/replayed trace: %+v", mp)
	}
}

// TestExecutedRequestReReplies drives a client by hand to isolate the
// re-reply path: a request retried after its execution must be answered from
// the certified ledger (fresh f+1 replies) without executing again — the
// convergence a real client needs when its first round of replies was lost.
func TestExecutedRequestReReplies(t *testing.T) {
	tr := transport.NewMem()
	var mu sync.Mutex
	execs := make(map[types.NodeID]int)
	f := fabric.New(fabric.Config{
		Topo:      config.NewTopology(1, 4),
		Records:   64,
		Transport: tr,
		OnExecute: func(replica types.NodeID, _ uint64, _ types.ClusterID, batch types.Batch) {
			if !batch.NoOp {
				mu.Lock()
				execs[replica]++
				mu.Unlock()
			}
		},
	})
	defer f.Stop()

	// The fabric derives client keys deterministically, so an out-of-process
	// client can provision the same identity on its own.
	topo := config.NewTopology(1, 4)
	clientID := config.ClientID(0)
	inbox := tr.Register(clientID)
	suite := crypto.NewSuite(crypto.NewDirectory(crypto.Real, []types.NodeID{clientID}),
		clientID, crypto.FreeCosts(), nil)

	b := types.Batch{Client: clientID, Seq: 1, Txns: []types.Transaction{{Key: 1, Value: 9}}}
	b.PrimeDigest()
	req := &pbft.Request{Batch: b, Sig: suite.Sign(pbft.RequestPayload(&b))}
	broadcast := func() {
		for _, m := range topo.ClusterMembers(0) {
			tr.Send(clientID, m, req)
		}
	}
	awaitReplies := func(phase string) {
		t.Helper()
		acks := make(map[types.NodeID]bool)
		deadline := time.After(10 * time.Second)
		for len(acks) < topo.F()+1 {
			select {
			case env := <-inbox:
				if rep, ok := env.Msg.(*proto.Reply); ok && rep.ClientSeq == 1 {
					acks[env.From] = true
				}
			case <-deadline:
				t.Fatalf("%s: %d replies, want %d", phase, len(acks), topo.F()+1)
			}
		}
	}

	broadcast()
	awaitReplies("initial submission")
	time.Sleep(500 * time.Millisecond) // let every replica execute and settle

	// Discard buffered first-round replies so the second round can only be
	// satisfied by fresh ones, i.e. by the ledger re-reply path.
	for {
		select {
		case <-inbox:
			continue
		default:
		}
		break
	}

	broadcast()
	awaitReplies("retry after execution")

	mu.Lock()
	for id, n := range execs {
		if n != 1 {
			t.Errorf("replica %v executed %d batches; the retry must not re-execute", id, n)
		}
	}
	mu.Unlock()
	if mp := f.Stats().Mempool; mp.Replayed == 0 {
		t.Errorf("re-replies not accounted as replayed: %+v", mp)
	}
}
