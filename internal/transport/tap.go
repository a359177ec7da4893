package transport

import (
	"resilientdb/internal/metrics"
	"resilientdb/internal/types"
)

// Delivery is one message an intercepted send turns into: the byzantine
// adversary harness (internal/byzantine) rewrites a single outbound message
// into zero or more deliveries — suppression, tampering, equivocation to
// different recipients, or injected extras riding along.
type Delivery struct {
	// To is the destination node.
	To types.NodeID
	// Msg is the message to deliver (possibly forged or tampered).
	Msg types.Message
}

// InterceptFn inspects one send before it reaches the wrapped transport. It
// returns the deliveries to perform instead and true to intercept, or false
// to let the original message through untouched. Returning (nil, true)
// suppresses the message entirely. The function is called concurrently from
// every sender's worker, input and persister goroutines and must be safe for
// concurrent use.
type InterceptFn func(from, to types.NodeID, msg types.Message) ([]Delivery, bool)

// Tap wraps any Transport with a send-side interception hook: the scripted
// tap/inject point of the byzantine adversary harness. Every Send is offered
// to the intercept function first; honest traffic (and everything when fn is
// nil) passes through unchanged. Register, Unregister, Stats and Close pass
// through, so a Tap composes with Faulty and with the Mem and TCP transports
// alike — the same attack script runs in-process or across sockets.
//
// Faults and taps compose outside-in: a Tap wrapping a Faulty rewrites the
// message first and then subjects each resulting delivery to the injector's
// drop/delay/partition decisions, exactly as a compromised process's traffic
// would experience the same network as everyone else's. The delay a
// deployment's Latency injects (fabric.Config) is a Faulty the fabric puts
// outside whatever transport it is given, so an adversary's Tap sits inside
// that delay: it sees a message once the delay has elapsed, and every
// delivery it makes of it, one rewritten to another node included, arrives
// after the delay of the link the message was sent on.
type Tap struct {
	inner Transport
	fn    InterceptFn
}

// NewTap wraps inner with the given intercept hook (nil passes everything
// through).
func NewTap(inner Transport, fn InterceptFn) *Tap {
	return &Tap{inner: inner, fn: fn}
}

// Register implements Transport.
func (t *Tap) Register(id types.NodeID) <-chan Envelope { return t.inner.Register(id) }

// Unregister implements Transport.
func (t *Tap) Unregister(id types.NodeID) { t.inner.Unregister(id) }

// Stats implements Transport (the inner transport's counters; interception
// is intentional and observed through the adversary's own statistics).
func (t *Tap) Stats() metrics.DropStats { return t.inner.Stats() }

// Send implements Transport, applying the intercept hook.
func (t *Tap) Send(from, to types.NodeID, msg types.Message) {
	if t.fn != nil {
		if deliveries, intercepted := t.fn(from, to, msg); intercepted {
			for _, d := range deliveries {
				t.inner.Send(from, d.To, d.Msg)
			}
			return
		}
	}
	t.inner.Send(from, to, msg)
}

// Close implements Transport.
func (t *Tap) Close() { t.inner.Close() }
