package main

import (
	"fmt"
	"math/rand"
	"time"

	"resilientdb/internal/config"
	"resilientdb/internal/core"
	"resilientdb/internal/crypto"
	"resilientdb/internal/pbft"
	"resilientdb/internal/proto"
	"resilientdb/internal/types"
)

// The inline driver runs a whole deployment's core.Replicas on one goroutine:
// a benchmark-owned proto.Env whose Send appends to one FIFO queue, no
// transport, no pipeline, no timers firing. What a round costs here is the
// bare state machine plus its cryptography; what the same round costs in the
// mem-sat fabric, minus this, is what the goroutine pipeline adds.

type inlineMsg struct {
	from, to types.NodeID
	msg      types.Message
}

type inlineNet struct {
	replicas map[types.NodeID]*core.Replica
	suites   map[types.NodeID]*crypto.Suite
	queue    []inlineMsg
	deferred []func()
	msgs     int // replica-to-replica and replica-to-client messages delivered
}

type inlineEnv struct {
	net   *inlineNet
	id    types.NodeID
	suite *crypto.Suite
	rng   *rand.Rand
}

type inertTimer struct{}

func (inertTimer) Stop() {}

func (e *inlineEnv) ID() types.NodeID   { return e.id }
func (e *inlineEnv) Now() time.Duration { return 0 }
func (e *inlineEnv) Send(to types.NodeID, m types.Message) {
	e.net.queue = append(e.net.queue, inlineMsg{e.id, to, m})
}

// SetTimer never fires: the driver injects no faults, so no timeout is due.
func (e *inlineEnv) SetTimer(time.Duration, func()) proto.Timer { return inertTimer{} }
func (e *inlineEnv) Defer(fn func())                            { e.net.deferred = append(e.net.deferred, fn) }
func (e *inlineEnv) Charge(time.Duration)                       {}
func (e *inlineEnv) Suite() *crypto.Suite                       { return e.suite }
func (e *inlineEnv) Rand() *rand.Rand                           { return e.rng }

// deliver hands one message to its replica the way the fabric's serial input
// path does (the path auto-sizing picks for an in-process deployment on a
// small host): client requests are signature-checked first and enter verified,
// everything else verifies inline in Receive.
func (n *inlineNet) deliver(m inlineMsg) {
	r := n.replicas[m.to]
	if r == nil {
		return // a reply to a client
	}
	if req, isReq := m.msg.(*pbft.Request); isReq {
		if r.PreVerify(n.suites[m.to], m.from, req) != proto.VerdictVerified {
			return
		}
		r.ReceiveVerified(m.from, req)
	} else {
		r.Receive(m.from, m.msg)
	}
	for len(n.deferred) > 0 {
		fn := n.deferred[0]
		n.deferred = n.deferred[1:]
		fn()
	}
}

func (n *inlineNet) drain() {
	for len(n.queue) > 0 {
		m := n.queue[0]
		n.queue = n.queue[1:]
		n.msgs++
		n.deliver(m)
	}
}

// inlineRounds drives rounds full rounds (one client batch per cluster each)
// through a fresh z×n deployment and returns the median wall time of a round
// in µs and the messages per round, which must repeat exactly from run to run.
func inlineRounds(topo config.Topology, rounds int, seed int64) (roundUS, msgsPerRound float64, err error) {
	z := topo.Clusters
	ids := topo.AllReplicas()
	for c := 0; c < z; c++ {
		ids = append(ids, config.ClientID(c))
	}
	dir := crypto.NewDirectory(crypto.Real, ids)
	net := &inlineNet{replicas: map[types.NodeID]*core.Replica{}, suites: map[types.NodeID]*crypto.Suite{}}
	for _, id := range topo.AllReplicas() {
		r := core.NewReplica(core.Config{Topo: topo, Self: id, Records: records})
		suite := crypto.NewSuite(dir, id, crypto.FreeCosts(), nil)
		net.replicas[id], net.suites[id] = r, suite
		r.InitEnv(&inlineEnv{net: net, id: id, suite: suite, rng: rand.New(rand.NewSource(int64(id) + 1))})
	}
	src := newTxnSource(seed)
	clients := make([]*crypto.Suite, z)
	for c := range clients {
		clients[c] = crypto.NewSuite(dir, config.ClientID(c), crypto.FreeCosts(), nil)
	}
	var times []float64
	for k := 1; k <= rounds; k++ {
		// Batches are built outside the timed region; signing is inside, as a client pays it per request.
		batches := make([]types.Batch, z)
		for c := range batches {
			batches[c] = types.Batch{Client: config.ClientID(c), Seq: uint64(k), Txns: src.next()}
			batches[c].PrimeDigest()
		}
		t0 := time.Now()
		for c := range batches {
			req := &pbft.Request{Batch: batches[c], Sig: clients[c].Sign(pbft.RequestPayload(&batches[c]))}
			net.deliver(inlineMsg{from: config.ClientID(c), to: topo.ReplicaID(c, 0), msg: req})
		}
		net.drain()
		times = append(times, us(time.Since(t0)))
		for id, r := range net.replicas {
			if r.ExecutedRound() != uint64(k) {
				return 0, 0, fmt.Errorf("inline driver: replica %v executed round %d after round %d drained", id, r.ExecutedRound(), k)
			}
		}
	}
	return median(times), float64(net.msgs) / float64(rounds), nil
}
