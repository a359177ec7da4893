package ledger

// The durability stage. The paper's Figure 9 pipeline keeps the execute
// thread free of anything that blocks; an fsync per block on that thread was
// the one thing that did. With a persister running, the appending goroutine
// (the replica's worker) only adds blocks to the in-memory chain and, once
// per round, hands them over; a single persister goroutine loops
//
//	take everything queued → one store write, one fsync → publish DurableHeight → run callbacks
//
// so a lone block is fsynced immediately, and under load one fsync covers
// every block that arrived while the previous one was in flight. There is no
// timer. What a replica may tell a client is unchanged — a batch is
// acknowledged only after the block holding it is fsynced here — because
// acknowledgements are AfterDurable callbacks, released by the persister
// when the durable height covers them.

// persistQueue bounds how many hand-offs (rounds, or catch-up ranges) may
// wait for the store. Under load the queue holds what arrives during one
// fsync — a round or two — so the bound only bites when the disk stalls:
// then Handoff blocks the worker (back-pressure) instead of letting held
// acknowledgements pile up without limit. 64 rounds is past the 48-round
// consensus pipeline, so a stall shorter than the pipeline is absorbed.
const persistQueue = 64

// handoff is one unit of work for the persister: blocks to make durable, in
// height order, and callbacks to run once they — and everything handed off
// before them — are.
type handoff struct {
	blocks []*Block
	done   []func()
}

// persister is the goroutine side of the stage: ch carries hand-offs in
// order; done closes when the goroutine has drained ch and exited.
type persister struct {
	ch   chan handoff
	done chan struct{}
}

// StartPersister attaches s like SetStore and starts the durability stage:
// from here on appends and imports return without touching the store, the
// caller delimits units of work with Handoff, and DurableHeight trails
// Height by whatever is queued or in flight. The caller owns the stage's
// lifetime and must end it with StopPersister. It panics if a persister is
// already running.
func (l *Ledger) StartPersister(s Store) {
	p := &persister{ch: make(chan handoff, persistQueue), done: make(chan struct{})}
	l.SetStore(s)
	if !l.persister.CompareAndSwap(nil, p) {
		panic("ledger: persister already running")
	}
	go l.persist(p)
}

// Persisting reports whether a persister is running, i.e. whether
// AfterDurable defers its callback. Callers on a hot path use it to skip
// building a closure when there is nothing to wait for.
func (l *Ledger) Persisting() bool { return l.persister.Load() != nil }

// DurableHeight returns the height through which the attached store has
// confirmed the chain durable. Write-through (SetStore) it equals Height
// after every operation; with a persister it trails Height by the blocks
// queued or being written. It stops advancing when the store detaches
// (StoreErr) and means nothing without a store.
func (l *Ledger) DurableHeight() uint64 { return l.durable.Load() }

// PersistQueue returns how many blocks have been handed off but not yet
// written — the persister's backlog.
func (l *Ledger) PersistQueue() int { return int(l.queued.Load()) }

// AfterDurable runs fn once every block accepted so far is durable on this
// replica. With a persister running fn joins the hand-off being assembled
// and runs on the persister goroutine, after the fsync covering those blocks
// and after every callback registered before it; if the store has failed and
// detached there is nothing left to wait for and fn runs as soon as the
// persister reaches it, so a dead disk delays nothing. A deferred fn must be
// safe to run off the appending goroutine and must not itself append to or
// hand off on this ledger. Without a persister — no store, or a
// write-through one — everything accepted is already as durable as it will
// get and fn runs before AfterDurable returns.
func (l *Ledger) AfterDurable(fn func()) {
	l.mu.Lock()
	if l.persister.Load() != nil {
		l.staged.done = append(l.staged.done, fn)
		l.mu.Unlock()
		return
	}
	l.mu.Unlock()
	fn()
}

// Handoff gives the persister everything staged since the last hand-off —
// the blocks accepted and the AfterDurable callbacks registered — as one
// unit. The worker calls it once per executed round, so a round's z blocks
// share a wake-up and, with luck, an fsync. It blocks only when persistQueue
// hand-offs are already waiting. A no-op without a persister or with nothing
// staged. Like appends, it must come from the one appending goroutine.
func (l *Ledger) Handoff() {
	p := l.persister.Load()
	if p == nil {
		return
	}
	l.mu.Lock()
	h := l.staged
	l.staged = handoff{}
	l.mu.Unlock()
	if len(h.blocks) == 0 && len(h.done) == 0 {
		return
	}
	l.queued.Add(int64(len(h.blocks)))
	p.ch <- h
}

// flush blocks until everything accepted so far has been written (or the
// store has detached). Operations that rewrite the store's history
// (AnchorSnapshot) order themselves behind the queue with it.
func (l *Ledger) flush() {
	if !l.Persisting() {
		return
	}
	done := make(chan struct{})
	l.AfterDurable(func() { close(done) })
	l.Handoff()
	<-done
}

// StopPersister hands off whatever is staged, waits for the persister to
// write out its queue and exit, and detaches the store, which the caller may
// then close: after a clean stop the store holds exactly the chain. Call it
// from the appending goroutine or after that goroutine has exited. A no-op
// when no persister is running.
func (l *Ledger) StopPersister() {
	p := l.persister.Load()
	if p == nil {
		return
	}
	l.Handoff()
	l.persister.Store(nil)
	close(p.ch)
	<-p.done
	l.mu.Lock()
	l.store = nil
	l.mu.Unlock()
}

// persist is the persister goroutine. Each turn takes every hand-off that is
// queued — that is the coalescing — writes their blocks with one store call,
// then releases their callbacks in order. A store failure (or a store
// already detached) skips the write and releases the callbacks all the same:
// the queue keeps draining, so the worker can never wedge on a full queue
// behind a dead disk.
func (l *Ledger) persist(p *persister) {
	defer close(p.done)
	var turn []handoff
	var blocks []*Block
	for h := range p.ch {
		turn = append(turn[:0], h)
	drain:
		for {
			select {
			case h, ok := <-p.ch:
				if !ok {
					break drain
				}
				turn = append(turn, h)
			default:
				break drain
			}
		}
		blocks = blocks[:0]
		for _, h := range turn {
			blocks = append(blocks, h.blocks...)
		}
		l.write(blocks)
		l.queued.Add(-int64(len(blocks)))
		for _, h := range turn {
			for _, fn := range h.done {
				fn()
			}
		}
		clear(turn) // drop the references: blocks and closures stay with the chain, not the queue
	}
}
