// Package transport provides the message transports used by the real-time
// ResilientDB fabric (package fabric): an in-process transport connecting
// node mailboxes, and a real TCP transport with a length-prefixed wire format so a deployment can span
// separate OS processes and machines. Both share UDP-like semantics: sends
// never block, and a full mailbox or disconnected peer drops the message
// (consensus protocols tolerate loss; timers recover).
package transport

import (
	"sync"

	"resilientdb/internal/metrics"
	"resilientdb/internal/types"
)

// Envelope is a routed message.
type Envelope struct {
	// From is the sending node.
	From types.NodeID
	// Msg is the message itself.
	Msg types.Message
}

// FrameAuth authenticates TCP wire frames. An implementation holds the
// deployment's pairwise key material (crypto.NewFrameMAC): Tag computes the
// authentication tag a sender appends to a frame payload, and Verify checks
// a received frame's tag against the (from, to) pair the payload claims —
// binding the claimed sender identity to the pair key instead of trusting
// the wire bytes. Implementations must be safe for concurrent use; every
// process of a deployment must install the same authenticator (or none).
type FrameAuth interface {
	// TagSize returns the fixed tag length in bytes.
	TagSize() int
	// Tag computes the tag authenticating payload on the (from, to) channel.
	Tag(from, to types.NodeID, payload []byte) []byte
	// Verify reports whether tag authenticates payload on the (from, to)
	// channel.
	Verify(from, to types.NodeID, payload, tag []byte) bool
}

// Transport delivers messages between registered nodes.
type Transport interface {
	// Register creates the mailbox for a node and returns its receive
	// channel. A node may be registered at most once at a time; after
	// Unregister the same id may register again (a restarted node).
	Register(id types.NodeID) <-chan Envelope
	// Unregister removes and closes a node's mailbox: traffic to it is
	// silently dropped from then on, like a crashed machine's. Unknown ids
	// are a no-op.
	Unregister(id types.NodeID)
	// Send delivers msg from one node to another. Sends to unknown nodes
	// are dropped.
	Send(from, to types.NodeID, msg types.Message)
	// Stats returns a snapshot of the transport's loss counters, so runs
	// can report drops (full mailboxes, full send queues, codec failures)
	// instead of mystery throughput dips.
	Stats() metrics.DropStats
	// Close shuts the transport down; all mailboxes are closed.
	Close()
}

// mailboxDepth is the per-node receive buffer shared by all transports.
const mailboxDepth = 4096

// mailbox is one node's receive queue. Its own lock makes the close/send
// race explicit: put checks the closed flag under the same lock close sets
// it, so a racing Close can never provoke a send on a closed channel.
type mailbox struct {
	mu     sync.Mutex
	ch     chan Envelope
	closed bool
	drops  *metrics.Drops // owning transport's counters
}

func newMailbox(drops *metrics.Drops) *mailbox {
	return &mailbox{ch: make(chan Envelope, mailboxDepth), drops: drops}
}

// put delivers e without blocking; full or closed mailboxes drop it (full
// ones are counted).
func (b *mailbox) put(e Envelope) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	select {
	case b.ch <- e:
	default:
		b.drops.Mailbox.Add(1)
	}
}

// close closes the receive channel exactly once.
func (b *mailbox) close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.closed {
		b.closed = true
		close(b.ch)
	}
}

// Mem is an in-memory transport: a send puts the message straight into the
// destination's mailbox (wrap it in a Faulty to inject one-way delay).
type Mem struct {
	mu     sync.RWMutex
	boxes  map[types.NodeID]*mailbox
	closed bool
	drops  metrics.Drops
}

// NewMem returns an in-memory transport.
func NewMem() *Mem {
	return &Mem{boxes: make(map[types.NodeID]*mailbox)}
}

// Register implements Transport.
func (m *Mem) Register(id types.NodeID) <-chan Envelope {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.boxes[id]; dup {
		panic("transport: duplicate registration")
	}
	box := newMailbox(&m.drops)
	m.boxes[id] = box
	return box.ch
}

// Unregister implements Transport.
func (m *Mem) Unregister(id types.NodeID) {
	m.mu.Lock()
	box := m.boxes[id]
	delete(m.boxes, id)
	m.mu.Unlock()
	if box != nil {
		box.close()
	}
}

// Stats implements Transport.
func (m *Mem) Stats() metrics.DropStats { return m.drops.Snapshot() }

// Send implements Transport. When the destination mailbox is full the
// message is dropped, which keeps the pipeline non-blocking like a
// UDP-style transport.
func (m *Mem) Send(from, to types.NodeID, msg types.Message) {
	m.mu.RLock()
	box := m.boxes[to]
	closed := m.closed
	m.mu.RUnlock()
	if box == nil {
		if !closed {
			m.drops.NoRoute.Add(1)
		}
		return
	}
	box.put(Envelope{From: from, Msg: msg})
}

// Close implements Transport.
func (m *Mem) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	boxes := m.boxes
	m.boxes = map[types.NodeID]*mailbox{}
	m.mu.Unlock()
	for _, box := range boxes {
		box.close()
	}
}
