package transport

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"resilientdb/internal/pbft"
	"resilientdb/internal/types"
)

type msg struct{ n int }

func (*msg) MsgType() string { return "test" }
func (*msg) WireSize() int   { return 8 }

// conformance runs the Transport contract against one implementation. Both
// Mem and TCP must pass it unchanged: register/send/close semantics,
// drop-on-full, and delay injection by a Faulty composed over the
// implementation are part of the interface.
func conformance(t *testing.T, name string, mk func(t *testing.T) Transport) {
	t.Run(name+"/Delivery", func(t *testing.T) {
		tr := mk(t)
		defer tr.Close()
		a := tr.Register(1)
		_ = tr.Register(2)
		tr.Send(2, 1, &msg{n: 7})
		select {
		case env := <-a:
			if env.From != 2 || env.Msg.(*msg).n != 7 {
				t.Errorf("got %+v", env)
			}
		case <-time.After(time.Second):
			t.Fatal("no delivery")
		}
	})

	t.Run(name+"/UnknownDestinationDropped", func(t *testing.T) {
		tr := mk(t)
		defer tr.Close()
		tr.Register(1)
		tr.Send(1, 99, &msg{}) // must not panic or block
	})

	t.Run(name+"/InjectedLatency", func(t *testing.T) {
		tr := mk(t)
		delay := func(from, to types.NodeID) time.Duration { return 50 * time.Millisecond }
		if !setLatency(tr, delay) {
			// Only a Faulty injects delay: compose one over the transport.
			f := NewFaulty(tr, 1)
			f.SetDelay(delay)
			tr = f
		}
		defer tr.Close()
		a := tr.Register(1)
		tr.Register(2)
		start := time.Now()
		tr.Send(2, 1, &msg{})
		select {
		case <-a:
			if d := time.Since(start); d < 40*time.Millisecond {
				t.Errorf("delivered after %v, want ≥ ~50ms", d)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("no delivery")
		}
	})

	t.Run(name+"/DropOnFullMailbox", func(t *testing.T) {
		tr := mk(t)
		defer tr.Close()
		box := tr.Register(1)
		tr.Register(2)
		// Overflow the undrained mailbox; every send must return without
		// blocking and the surplus must be dropped.
		for i := 0; i < mailboxDepth+100; i++ {
			tr.Send(2, 1, &msg{n: i})
		}
		drained := 0
		for {
			select {
			case <-box:
				drained++
				continue
			default:
			}
			break
		}
		if drained != mailboxDepth {
			t.Errorf("drained %d messages, want exactly %d buffered", drained, mailboxDepth)
		}
	})

	t.Run(name+"/CloseIsIdempotentAndSafe", func(t *testing.T) {
		tr := mk(t)
		tr.Register(1)
		tr.Send(1, 1, &msg{})
		tr.Close()
		tr.Close()
		tr.Send(1, 1, &msg{}) // after close: dropped, no panic
	})

	t.Run(name+"/MailboxClosedOnClose", func(t *testing.T) {
		tr := mk(t)
		box := tr.Register(1)
		tr.Close()
		select {
		case _, ok := <-box:
			if ok {
				t.Error("unexpected message")
			}
		case <-time.After(time.Second):
			t.Error("mailbox not closed")
		}
	})

	t.Run(name+"/UnregisterDropsThenReRegisters", func(t *testing.T) {
		tr := mk(t)
		defer tr.Close()
		box1 := tr.Register(1)
		tr.Register(2)
		tr.Unregister(1)
		if _, ok := <-box1; ok {
			t.Error("unregistered mailbox delivered a message")
		}
		tr.Send(2, 1, &msg{n: 1}) // dropped, no panic
		tr.Unregister(1)          // idempotent
		tr.Unregister(99)         // unknown: no-op
		box2 := tr.Register(1)    // a restarted node re-registers
		tr.Send(2, 1, &msg{n: 9})
		select {
		case env := <-box2:
			if env.Msg.(*msg).n != 9 {
				t.Errorf("got %+v", env)
			}
		case <-time.After(time.Second):
			t.Fatal("no delivery after re-registration")
		}
	})

	t.Run(name+"/DuplicateRegistrationPanics", func(t *testing.T) {
		tr := mk(t)
		defer tr.Close()
		tr.Register(1)
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		tr.Register(1)
	})

	t.Run(name+"/SendCloseRace", func(t *testing.T) {
		// Hammer Send from several goroutines while Close runs: must be free
		// of send-on-closed-channel panics and data races (run with -race).
		for round := 0; round < 20; round++ {
			tr := mk(t)
			setLatency(tr, func(from, to types.NodeID) time.Duration {
				if from == 3 {
					return time.Millisecond
				}
				return 0
			})
			tr.Register(1)
			var wg sync.WaitGroup
			for g := types.NodeID(2); g <= 4; g++ {
				wg.Add(1)
				go func(from types.NodeID) {
					defer wg.Done()
					for i := 0; i < 200; i++ {
						tr.Send(from, 1, &msg{n: i})
					}
				}(g)
			}
			tr.Close()
			wg.Wait()
		}
	})
}

// setLatency installs fn as the one-way delay of the Faulty in tr, if tr is
// one or a Tap over one, and reports whether it found one.
func setLatency(tr Transport, fn func(from, to types.NodeID) time.Duration) bool {
	switch impl := tr.(type) {
	case *Tap:
		return setLatency(impl.inner, fn)
	case *Faulty:
		impl.SetDelay(fn)
		return true
	}
	return false
}

func TestConformance(t *testing.T) {
	conformance(t, "Mem", func(t *testing.T) Transport { return NewMem() })
	conformance(t, "TCP", func(t *testing.T) Transport {
		tr, err := NewTCP("127.0.0.1:0", func(types.NodeID) string { return "" })
		if err != nil {
			t.Fatal(err)
		}
		return tr
	})
	// A fault injector with no faults configured must be a transparent
	// Transport: the whole contract holds through the wrapper.
	conformance(t, "FaultyMem", func(t *testing.T) Transport { return NewFaulty(NewMem(), 42) })
	conformance(t, "FaultyTCP", func(t *testing.T) Transport {
		tr, err := NewTCP("127.0.0.1:0", func(types.NodeID) string { return "" })
		if err != nil {
			t.Fatal(err)
		}
		return NewFaulty(tr, 42)
	})
}

// newTCPPair builds two TCP transports whose address books point node 1 at
// a and node 2 at b.
func newTCPPair(t *testing.T) (a, b *TCP, book func(types.NodeID) string) {
	t.Helper()
	var addrs sync.Map
	book = func(id types.NodeID) string {
		if v, ok := addrs.Load(id); ok {
			return v.(string)
		}
		return ""
	}
	a, err := NewTCP("127.0.0.1:0", book)
	if err != nil {
		t.Fatal(err)
	}
	b, err = NewTCP("127.0.0.1:0", book)
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	addrs.Store(types.NodeID(1), a.Addr())
	addrs.Store(types.NodeID(2), b.Addr())
	return a, b, book
}

// TestTCPCrossProcessDelivery sends a real protocol message between two TCP
// transports and checks it arrives decoded and intact.
func TestTCPCrossProcessDelivery(t *testing.T) {
	a, b, _ := newTCPPair(t)
	defer a.Close()
	defer b.Close()
	a.Register(1)
	box := b.Register(2)

	want := &pbft.Prepare{View: 3, Seq: 9, Digest: types.Hash([]byte("d")), Replica: 1, Sig: []byte{1, 2, 3}}
	a.Send(1, 2, want)
	select {
	case env := <-box:
		got, ok := env.Msg.(*pbft.Prepare)
		if !ok {
			t.Fatalf("got %T", env.Msg)
		}
		if env.From != 1 || got.View != 3 || got.Seq != 9 || got.Digest != want.Digest ||
			got.Replica != 1 || string(got.Sig) != string(want.Sig) {
			t.Errorf("message mangled in transit: %+v", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery across TCP")
	}
}

// TestTCPUnregisteredMessageDropped checks that a message type without a
// wire codec is dropped at the sender rather than crashing the transport.
func TestTCPUnregisteredMessageDropped(t *testing.T) {
	a, b, _ := newTCPPair(t)
	defer a.Close()
	defer b.Close()
	var logged atomic.Bool
	a.Logf = func(string, ...any) { logged.Store(true) }
	a.Register(1)
	box := b.Register(2)
	a.Send(1, 2, &msg{n: 1}) // unregistered: dropped with a diagnostic
	a.Send(1, 2, &pbft.CatchupRequest{FromSeq: 5})
	select {
	case env := <-box:
		if _, ok := env.Msg.(*pbft.CatchupRequest); !ok {
			t.Fatalf("got %T, want CatchupRequest", env.Msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("transport wedged after unregistered message")
	}
	if !logged.Load() {
		t.Error("unregistered message dropped silently")
	}
}

// TestTCPReconnect kills the receiving transport and brings a new one up on
// a different port; the sender must redial (with backoff) once the address
// book is updated and deliver again.
func TestTCPReconnect(t *testing.T) {
	var addrs sync.Map
	book := func(id types.NodeID) string {
		if v, ok := addrs.Load(id); ok {
			return v.(string)
		}
		return ""
	}
	a, err := NewTCP("127.0.0.1:0", book)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Register(1)

	b1, err := NewTCP("127.0.0.1:0", book)
	if err != nil {
		t.Fatal(err)
	}
	listenAddr := b1.Addr()
	addrs.Store(types.NodeID(2), listenAddr)
	box1 := b1.Register(2)
	a.Send(1, 2, &pbft.CatchupRequest{FromSeq: 1})
	select {
	case <-box1:
	case <-time.After(5 * time.Second):
		t.Fatal("initial delivery failed")
	}
	b1.Close()

	// Same listen address, new transport: the sender's pooled connection
	// died with b1 and must redial.
	var b2 *TCP
	deadline := time.Now().Add(5 * time.Second)
	for {
		b2, err = NewTCP(listenAddr, book)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", listenAddr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	defer b2.Close()
	box2 := b2.Register(2)

	got := make(chan struct{})
	go func() {
		for range box2 {
			close(got)
			return
		}
	}()
	// Keep sending: frames sent while disconnected may be dropped, exactly
	// like datagrams; the redial must eventually land one.
	for i := 0; i < 200; i++ {
		a.Send(1, 2, &pbft.CatchupRequest{FromSeq: uint64(i)})
		select {
		case <-got:
			return
		case <-time.After(50 * time.Millisecond):
		}
	}
	t.Fatal("no delivery after reconnect")
}

// TestStatsCountDrops checks that silent drops surface in Stats: full
// mailboxes on Mem, unroutable destinations and encode failures on TCP.
func TestStatsCountDrops(t *testing.T) {
	t.Run("MemMailboxFull", func(t *testing.T) {
		tr := NewMem()
		defer tr.Close()
		_ = tr.Register(1)
		_ = tr.Register(2)
		const extra = 50
		for i := 0; i < mailboxDepth+extra; i++ {
			tr.Send(2, 1, &msg{n: i})
		}
		if st := tr.Stats(); st.Mailbox != extra {
			t.Errorf("mailbox drops = %d, want %d", st.Mailbox, extra)
		}
	})
	t.Run("MemNoRoute", func(t *testing.T) {
		tr := NewMem()
		defer tr.Close()
		_ = tr.Register(1)
		tr.Send(1, 99, &msg{n: 1})
		if st := tr.Stats(); st.NoRoute != 1 {
			t.Errorf("no-route drops = %d, want 1", st.NoRoute)
		}
	})
	t.Run("TCP", func(t *testing.T) {
		a, b, _ := newTCPPair(t)
		defer a.Close()
		defer b.Close()
		a.Register(1)
		_ = b.Register(2)
		a.Logf = func(string, ...any) {}
		a.Send(1, 99, &pbft.CatchupRequest{FromSeq: 1}) // no address book entry
		a.Send(1, 2, &msg{n: 1})                        // no wire codec
		st := a.Stats()
		if st.NoRoute != 1 || st.Encode != 1 {
			t.Errorf("stats = %+v, want NoRoute=1 Encode=1", st)
		}
	})
}

// TestTCPBurstCoalesced pushes a large burst of frames through one
// connection; the coalescing writer must deliver every frame intact and in
// order.
func TestTCPBurstCoalesced(t *testing.T) {
	a, b, _ := newTCPPair(t)
	defer a.Close()
	defer b.Close()
	a.Register(1)
	box := b.Register(2)

	const burst = 1000
	for i := 0; i < burst; i++ {
		a.Send(1, 2, &pbft.CatchupRequest{FromSeq: uint64(i)})
	}
	next := uint64(0)
	deadline := time.After(10 * time.Second)
	for next < burst {
		select {
		case env := <-box:
			m, ok := env.Msg.(*pbft.CatchupRequest)
			if !ok {
				t.Fatalf("got %T", env.Msg)
			}
			if m.FromSeq != next {
				t.Fatalf("out of order: got %d, want %d", m.FromSeq, next)
			}
			next++
		case <-deadline:
			st := a.Stats()
			t.Fatalf("received %d/%d (sender drops: %+v)", next, burst, st)
		}
	}
}
