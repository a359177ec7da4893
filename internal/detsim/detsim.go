// Package detsim is the one deterministic simulator of the protocol cores: a
// single-goroutine discrete-event loop that runs any node with
// InitEnv(proto.Env) + Receive — core.Replica, pbft.Standalone, Client — with
// *Env as its proto.Env. Every simulated experiment runs on it, and so does
// every test that needs an exact, repeatable interleaving of a deployment.
// Links follow the paper's Table 1 latency and bandwidth, or are
// instantaneous without a profile; each node owns a virtual CPU that crypto
// and execution work is charged to; an Intercept hook of transport.Tap's
// shape rewrites, suppresses or holds sends.
//
// Three properties matter for reproducing the paper's evaluation:
//
//   - Link asymmetry. Global messages pay one-way latency plus a
//     serialization delay on a per-flow bottleneck (Table 1 bandwidth), and
//     every byte a node sends also occupies its NIC egress. A centralized
//     primary broadcasting large batches to sixty geo-distributed replicas
//     therefore saturates exactly as in the paper (Section 4.4).
//   - CPU accounting. A node handles one event at a time; signature and MAC
//     costs delay its subsequent sends and receives, so a node saturates on
//     the signature work the paper's cost model assigns it.
//   - Determinism. All randomness derives from a seed; runs are
//     reproducible bit for bit.
package detsim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"

	"resilientdb/internal/config"
	"resilientdb/internal/crypto"
	"resilientdb/internal/proto"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
)

// Handler is an event-driven node: a consensus replica, a client, or any
// other participant.
type Handler interface {
	// InitEnv is called once, when the network starts, with the node's *Env.
	InitEnv(env proto.Env)
	// Receive is invoked for each message delivered to the node.
	Receive(from types.NodeID, msg types.Message)
}

// maxEvents guards against runaway simulations.
const maxEvents = 2e9

// Options configures a Network.
type Options struct {
	// Profile supplies latency/bandwidth between regions. Nil makes every
	// link instantaneous: a message arrives at the moment it is sent, with
	// no jitter, whatever the regions of its endpoints.
	Profile *config.Profile
	// Seed for all randomness (jitter). Runs with equal seeds are identical.
	Seed int64
	// Mode selects real or fast (cost-charged) cryptography.
	Mode crypto.Mode
	// Costs is the CPU cost model; zero values disable CPU accounting.
	Costs crypto.Costs
	// JitterFrac adds a uniform random delay in [0, JitterFrac·latency) to
	// each delivery, so quorum waits see realistic arrival spread. Zero
	// selects the default of 0.05; a negative value disables jitter.
	JitterFrac float64
}

// Network is a discrete-event simulation of a set of nodes.
type Network struct {
	opt      Options
	now      time.Duration
	pq       eventHeap
	seq      uint64
	nodes    map[types.NodeID]*node
	order    []types.NodeID
	dir      *crypto.Directory
	events   int64
	started  bool
	flowFree map[[2]types.NodeID]time.Duration

	// TraceSend, if set, observes every message accepted for transmission
	// (after Intercept).
	TraceSend func(from, to types.NodeID, msg types.Message, size int, sameRegion bool)
	// Intercept, if set, is offered every send first, exactly as
	// transport.Tap offers it (byzantine.Fleet.Intercept plugs in
	// unchanged): it returns the deliveries to make instead and true, or
	// false to let the message through. Each delivery still passes the crash
	// checks and the link model. A test holds a message by returning
	// (nil, true) and re-injects it later through At.
	Intercept transport.InterceptFn
}

type node struct {
	id         types.NodeID
	region     int
	handler    Handler
	env        *Env
	crashed    bool
	busyUntil  time.Duration
	uplinkFree time.Duration
	rng        *rand.Rand

	// backlog holds events that arrived while the node's virtual CPU was
	// busy; a single scheduled drain event works it off FIFO, keeping the
	// global heap small under saturation.
	backlog        []*event
	drainScheduled bool
}

type event struct {
	at    time.Duration
	seq   uint64
	node  types.NodeID
	drain bool
	fire  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// New creates an empty network.
func New(opt Options) *Network {
	if opt.JitterFrac == 0 {
		opt.JitterFrac = 0.05
	} else if opt.JitterFrac < 0 {
		opt.JitterFrac = 0
	}
	return &Network{
		opt:      opt,
		nodes:    make(map[types.NodeID]*node),
		flowFree: make(map[[2]types.NodeID]time.Duration),
	}
}

// AddNode registers a handler as node id living in the given region index of
// the profile (any region when the profile is nil). Must be called before
// Start.
func (n *Network) AddNode(id types.NodeID, region int, h Handler) {
	if n.started {
		panic("detsim: AddNode after Start")
	}
	if _, dup := n.nodes[id]; dup {
		panic(fmt.Sprintf("detsim: duplicate node %v", id))
	}
	if p := n.opt.Profile; p != nil && (region < 0 || region >= len(p.Names)) {
		panic(fmt.Sprintf("detsim: node %v region %d out of profile range", id, region))
	}
	nd := &node{
		id:      id,
		region:  region,
		handler: h,
		rng:     rand.New(rand.NewSource(n.opt.Seed*1_000_003 + int64(id) + 7)),
	}
	nd.env = &Env{net: n, node: nd}
	n.nodes[id] = nd
	n.order = append(n.order, id)
}

// Start provisions key material and runs every handler's InitEnv.
// Idempotent.
func (n *Network) Start() {
	if n.started {
		return
	}
	n.started = true
	n.dir = crypto.NewDirectory(n.opt.Mode, n.order)
	for _, id := range n.order {
		nd := n.nodes[id]
		nd.env.suite = crypto.NewSuite(n.dir, id, n.opt.Costs, nd.env.Charge)
		nd.handler.InitEnv(nd.env)
	}
}

// Now returns the current virtual time.
func (n *Network) Now() time.Duration { return n.now }

// Crash makes a node silently drop all future events, messages in flight to
// it, and timers — a crash fault.
func (n *Network) Crash(id types.NodeID) {
	nd := n.nodes[id]
	nd.crashed = true
	nd.backlog = nil
}

// schedule inserts an event at absolute virtual time at.
func (n *Network) schedule(at time.Duration, nid types.NodeID, fire func()) {
	n.seq++
	heap.Push(&n.pq, &event{at: at, seq: n.seq, node: nid, fire: fire})
}

// At schedules fn to run in the context of node id at absolute time at — an
// external fault-injection hook used by experiments (e.g. "crash the Oregon
// primary after 900 transactions") and by tests that inject or re-inject a
// message.
func (n *Network) At(at time.Duration, id types.NodeID, fn func()) {
	n.schedule(at, id, fn)
}

// RunFor advances the simulation by d of virtual time; RunFor(0) runs
// everything due now, such as the whole exchange a send over instantaneous
// links sets off.
func (n *Network) RunFor(d time.Duration) { n.RunUntil(n.now + d) }

// RunUntil processes events until virtual time t (inclusive) or until the
// event queue drains.
func (n *Network) RunUntil(t time.Duration) {
	n.Start()
	for n.pq.Len() > 0 && n.pq[0].at <= t {
		ev := heap.Pop(&n.pq).(*event)
		nd := n.nodes[ev.node]
		if nd == nil || nd.crashed {
			continue
		}
		if ev.drain {
			nd.drainScheduled = false
			if len(nd.backlog) == 0 {
				continue
			}
			next := nd.backlog[0]
			nd.backlog = nd.backlog[1:]
			n.runEvent(nd, next, ev.at)
			continue
		}
		// If the node's virtual CPU is busy (or older work is backlogged),
		// append FIFO and let the drain event work it off — one heap entry
		// per pending item instead of repeated reinsertion.
		if nd.busyUntil > ev.at || len(nd.backlog) > 0 || nd.drainScheduled {
			nd.backlog = append(nd.backlog, ev)
			n.scheduleDrain(nd, ev.at)
			continue
		}
		n.runEvent(nd, ev, ev.at)
	}
	if t > n.now {
		n.now = t
	}
}

// runEvent executes ev in node nd's context at virtual time at.
func (n *Network) runEvent(nd *node, ev *event, at time.Duration) {
	n.events++
	if n.events > maxEvents {
		panic(fmt.Sprintf("detsim: exceeded %d events at t=%v (runaway protocol?)", int64(maxEvents), n.now))
	}
	n.now = at
	nd.env.charged = 0
	ev.fire()
	if nd.env.charged > 0 {
		nd.busyUntil = at + nd.env.charged
	}
	if len(nd.backlog) > 0 {
		n.scheduleDrain(nd, at)
	}
}

// scheduleDrain arms the node's single drain event for the moment its CPU
// frees up.
func (n *Network) scheduleDrain(nd *node, at time.Duration) {
	if nd.drainScheduled {
		return
	}
	nd.drainScheduled = true
	when := nd.busyUntil
	if when < at {
		when = at
	}
	n.seq++
	heap.Push(&n.pq, &event{at: when, seq: n.seq, node: nd.id, drain: true})
}

// Events returns the number of events processed so far.
func (n *Network) Events() int64 { return n.events }

// send offers one message to Intercept, then transmits what it returns.
func (n *Network) send(from *node, to types.NodeID, msg types.Message) {
	if n.Intercept != nil {
		if deliveries, intercepted := n.Intercept(from.id, to, msg); intercepted {
			for _, d := range deliveries {
				n.transmit(from, d.To, d.Msg)
			}
			return
		}
	}
	n.transmit(from, to, msg)
}

// transmit models the full transmission path of one message.
func (n *Network) transmit(from *node, to types.NodeID, msg types.Message) {
	dst, ok := n.nodes[to]
	if !ok {
		return // unknown destination: silently dropped, like a dead address
	}
	if from.crashed || dst.crashed {
		return
	}
	size := msg.WireSize()
	sameRegion := from.region == dst.region
	if n.TraceSend != nil {
		n.TraceSend(from.id, to, msg, size, sameRegion)
	}
	// The message begins transmission once both the sender NIC and the
	// region-pair flow are free, unless links are instantaneous.
	arrival := n.now + from.env.charged
	if p := n.opt.Profile; p != nil {
		key := [2]types.NodeID{from.id, to}
		start := arrival
		if from.uplinkFree > start {
			start = from.uplinkFree
		}
		if ff := n.flowFree[key]; ff > start {
			start = ff
		}
		txUp := bytesDelay(size, p.Uplink[from.region])
		txFlow := bytesDelay(size, p.Bandwidth[from.region][dst.region])
		from.uplinkFree = start + txUp
		n.flowFree[key] = start + txFlow

		lat := p.OneWay(from.region, dst.region)
		jitter := time.Duration(0)
		if n.opt.JitterFrac > 0 {
			span := float64(lat)*n.opt.JitterFrac + float64(100*time.Microsecond)
			jitter = time.Duration(from.rng.Float64() * span)
		}
		arrival = start + txFlow + lat + jitter
	}
	src := from.id
	n.schedule(arrival, to, func() {
		d := n.nodes[to]
		if d.crashed {
			return
		}
		d.handler.Receive(src, msg)
	})
}

func bytesDelay(size int, bytesPerSec float64) time.Duration {
	if bytesPerSec <= 0 {
		return 0
	}
	return time.Duration(float64(size) / bytesPerSec * float64(time.Second))
}

// Env is a node's interface to the simulation — identity, clock, messaging,
// timers, CPU charging and cryptography — and implements proto.Env. Exactly
// one Env exists per node; it must only be used from within that node's
// event handlers.
type Env struct {
	net     *Network
	node    *node
	suite   *crypto.Suite
	charged time.Duration
}

// ID returns the node's identifier.
func (e *Env) ID() types.NodeID { return e.node.id }

// Now returns the node-local virtual time, including CPU time already
// charged during the current event.
func (e *Env) Now() time.Duration { return e.net.now + e.charged }

// Send transmits msg to node to. Messages sent later in the same event (or
// after more CPU has been charged) depart later.
func (e *Env) Send(to types.NodeID, msg types.Message) {
	e.net.send(e.node, to, msg)
}

// Charge advances this node's virtual CPU by d. All subsequent work in this
// event, and all future events, are delayed accordingly.
func (e *Env) Charge(d time.Duration) {
	if d > 0 {
		e.charged += d
	}
}

// Suite returns the node's cryptographic suite. All operations automatically
// charge CPU time.
func (e *Env) Suite() *crypto.Suite { return e.suite }

// Rand returns the node's deterministic random source.
func (e *Env) Rand() *rand.Rand { return e.node.rng }

// timer is a cancellable one-shot timer.
type timer struct {
	stopped bool
}

// Stop cancels the timer; a stopped timer's function never runs.
func (t *timer) Stop() { t.stopped = true }

// SetTimer schedules fn to run on this node after delay d of virtual time.
func (e *Env) SetTimer(d time.Duration, fn func()) proto.Timer {
	t := &timer{}
	at := e.Now() + d
	e.net.schedule(at, e.node.id, func() {
		if !t.stopped {
			fn()
		}
	})
	return t
}
