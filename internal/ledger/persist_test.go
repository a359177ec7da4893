package ledger

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"resilientdb/internal/types"
)

// gateStore is a BatchStore whose writes can be held at a gate (a disk
// mid-fsync) and made to fail from a chosen height on (a disk that fills).
type gateStore struct {
	mu     sync.Mutex
	gate   chan struct{} // non-nil: every write waits for a receive on it
	failAt uint64        // non-zero: writes reaching this height fail
	calls  [][]uint64    // heights per store call, in order
	inCall atomic.Int32  // 1 while a write is parked at the gate
}

var errDiskFull = errors.New("disk full")

func (s *gateStore) Append(b *Block) error { return s.AppendBatch([]*Block{b}) }

func (s *gateStore) AppendBatch(blocks []*Block) error {
	s.mu.Lock()
	gate := s.gate
	s.mu.Unlock()
	if gate != nil {
		s.inCall.Store(1)
		<-gate
		s.inCall.Store(0)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	hs := make([]uint64, len(blocks))
	for i, b := range blocks {
		if s.failAt != 0 && b.Height >= s.failAt {
			return errDiskFull
		}
		hs[i] = b.Height
	}
	s.calls = append(s.calls, hs)
	return nil
}

func (s *gateStore) snapshot() [][]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([][]uint64(nil), s.calls...)
}

// appendRound executes one z-block round the way core.tryExecute does: z
// certified appends, one callback per block, one hand-off.
func appendRound(l *Ledger, round uint64, z int, released *[]uint64, mu *sync.Mutex) {
	for c := 0; c < z; c++ {
		b := batch(c, round, 2)
		blk := l.AppendCertified(round, types.ClusterID(c), b, fakeCert{d: b.Digest()})
		l.AfterDurable(func() {
			mu.Lock()
			*released = append(*released, blk.Height)
			mu.Unlock()
		})
	}
	l.Handoff()
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPersisterCoalesces pins the stage's whole contract on the happy path:
// appends return while the store is busy, readers are not blocked by it, one
// store call covers every round that queued up behind the previous one,
// DurableHeight and the callbacks trail exactly the store's confirmations,
// and a stop leaves store and chain equal.
func TestPersisterCoalesces(t *testing.T) {
	const z = 2
	st := &gateStore{gate: make(chan struct{})}
	l := New()
	l.StartPersister(st)
	var mu sync.Mutex
	var released []uint64

	appendRound(l, 1, z, &released, &mu) // parks the persister at the gate
	waitFor(t, "the first write to start", func() bool { return st.inCall.Load() == 1 })
	for r := uint64(2); r <= 5; r++ {
		appendRound(l, r, z, &released, &mu) // returns: the worker never waits for the disk
	}
	if h, d := l.Height(), l.DurableHeight(); h != 5*z || d != 0 {
		t.Fatalf("mid-write: height %d durable %d, want %d and 0", h, d, 5*z)
	}
	if q := l.PersistQueue(); q != 5*z {
		t.Fatalf("persist queue %d, want %d (first round counts until its write returns)", q, 5*z)
	}
	if b := l.Block(3); b == nil || b.Height != 3 {
		t.Fatal("Block() unavailable while the store is busy")
	}
	mu.Lock()
	if len(released) != 0 {
		t.Fatalf("callbacks %v ran before their blocks were durable", released)
	}
	mu.Unlock()

	st.gate <- struct{}{} // first fsync returns
	waitFor(t, "round 1 durable", func() bool { return l.DurableHeight() == z })
	waitFor(t, "the coalesced write to start", func() bool { return st.inCall.Load() == 1 })
	st.gate <- struct{}{} // second fsync returns: rounds 2–5 in one call
	l.flush()
	if d := l.DurableHeight(); d != 5*z {
		t.Fatalf("durable height %d after flush, want %d", d, 5*z)
	}
	calls := st.snapshot()
	if len(calls) != 2 || len(calls[0]) != z || len(calls[1]) != 4*z {
		t.Fatalf("store calls %v, want one of %d blocks then one of %d", calls, z, 4*z)
	}
	mu.Lock()
	for i, h := range released {
		if h != uint64(i+1) {
			t.Fatalf("callbacks released out of order: %v", released)
		}
	}
	if len(released) != 5*z {
		t.Fatalf("%d callbacks released, want %d", len(released), 5*z)
	}
	mu.Unlock()

	st.mu.Lock()
	st.gate = nil
	st.mu.Unlock()
	appendRound(l, 6, z, &released, &mu)
	l.StopPersister() // drains: the store ends at the ledger's height
	calls = st.snapshot()
	if last := calls[len(calls)-1]; last[len(last)-1] != l.Height() {
		t.Fatalf("store ends at %d after stop, ledger at %d", last[len(last)-1], l.Height())
	}
	if l.Persisting() || l.StoreErr() != nil {
		t.Fatalf("after stop: persisting=%v storeErr=%v", l.Persisting(), l.StoreErr())
	}
}

// TestPersisterBackPressure: with the disk stalled the worker is allowed
// persistQueue hand-offs of slack (beyond those already inside the stalled
// write) and then blocks, rather than holding an unbounded number of
// acknowledgements; it resumes when the disk does.
func TestPersisterBackPressure(t *testing.T) {
	const total = 4 * persistQueue
	st := &gateStore{gate: make(chan struct{})}
	l := New()
	l.StartPersister(st)
	var mu sync.Mutex
	var released []uint64
	var handed atomic.Uint64
	go func() {
		for r := uint64(1); r <= total; r++ {
			appendRound(l, r, 1, &released, &mu)
			handed.Store(r)
		}
	}()
	// The worker is parked once the count of completed hand-offs stops moving.
	var parked uint64
	waitFor(t, "the worker to park on the full queue", func() bool {
		n := handed.Load()
		time.Sleep(30 * time.Millisecond)
		parked = n
		return st.inCall.Load() == 1 && n > persistQueue && handed.Load() == n
	})
	if parked >= total {
		t.Fatalf("all %d hand-offs went through a stalled disk", parked)
	}
	if q := l.PersistQueue(); q != int(parked)+1 { // the parked round counts: it is executed and not written
		t.Fatalf("persist queue %d with %d rounds handed off, one parked and none written", q, parked)
	}
	close(st.gate)
	waitFor(t, "the worker to resume", func() bool { return handed.Load() == total })
	l.StopPersister()
	if d := l.DurableHeight(); d != total {
		t.Fatalf("durable height %d, want %d", d, total)
	}
}

// TestPersisterStoreFailureMidQueue is the failure path: the store starts
// failing with rounds queued behind it. StoreErr is set once and keeps the
// first error, nothing more reaches the store, every held callback is
// released, the worker can keep handing off far past the queue bound, and
// StopPersister returns with the goroutine gone.
func TestPersisterStoreFailureMidQueue(t *testing.T) {
	const z = 2
	st := &gateStore{gate: make(chan struct{}), failAt: 2*z + 1} // round 3 onwards fails
	l := New()
	l.StartPersister(st)
	var mu sync.Mutex
	var released []uint64

	appendRound(l, 1, z, &released, &mu)
	waitFor(t, "the first write to start", func() bool { return st.inCall.Load() == 1 })
	for r := uint64(2); r <= 6; r++ {
		appendRound(l, r, z, &released, &mu)
	}
	st.gate <- struct{}{} // round 1 lands
	waitFor(t, "the failing write to start", func() bool { return st.inCall.Load() == 1 })
	st.gate <- struct{}{} // rounds 2–6 in one call: fails at round 3
	l.flush()
	err := l.StoreErr()
	if !errors.Is(err, errDiskFull) {
		t.Fatalf("StoreErr = %v, want the store's failure", err)
	}
	if d := l.DurableHeight(); d != z {
		t.Fatalf("durable height %d after the failure, want %d (only round 1 was confirmed)", d, z)
	}
	// The dead disk must not slow the worker: many more rounds than the
	// queue holds, with the gate still armed — a write would hang the test.
	total := uint64(6 + 3*persistQueue)
	for r := uint64(7); r <= total; r++ {
		appendRound(l, r, z, &released, &mu)
	}
	l.NoteStoreFailure(fmt.Errorf("a later failure")) // must not replace the first
	l.StopPersister()
	if got := l.StoreErr(); got != err {
		t.Fatalf("StoreErr changed from %v to %v", err, got)
	}
	if calls := st.snapshot(); len(calls) != 1 {
		t.Fatalf("store calls after the failure: %v, want only round 1", calls)
	}
	mu.Lock()
	if uint64(len(released)) != total*z {
		t.Fatalf("%d callbacks released, want all %d", len(released), total*z)
	}
	mu.Unlock()
	if h := l.Height(); h != total*z {
		t.Fatalf("ledger height %d, want %d: consensus must not halt on a full disk", h, total*z)
	}
	if q := l.PersistQueue(); q != 0 {
		t.Fatalf("persist queue %d after stop, want 0", q)
	}
	buf := make([]byte, 1<<20)
	if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "(*Ledger).persist(") {
		t.Fatalf("persister goroutine still running after StopPersister:\n%s", stacks)
	}
}

// reanchorStore records the order of writes and re-bases.
type reanchorStore struct {
	gateStore
	ops []string
}

func (s *reanchorStore) AppendBatch(blocks []*Block) error {
	err := s.gateStore.AppendBatch(blocks)
	s.mu.Lock()
	s.ops = append(s.ops, fmt.Sprintf("append@%d", blocks[len(blocks)-1].Height))
	s.mu.Unlock()
	return err
}

func (s *reanchorStore) Append(b *Block) error { return s.AppendBatch([]*Block{b}) }

func (s *reanchorStore) Reanchor(base uint64) error {
	s.mu.Lock()
	s.ops = append(s.ops, fmt.Sprintf("reanchor@%d", base))
	s.mu.Unlock()
	return nil
}

// TestAnchorSnapshotOrdersBehindQueue: a snapshot install re-bases the store
// only after every queued block of the old chain has been written, and the
// suffix appended afterwards lands on the new base.
func TestAnchorSnapshotOrdersBehindQueue(t *testing.T) {
	st := &reanchorStore{gateStore: gateStore{gate: make(chan struct{})}}
	l := New()
	l.StartPersister(st)
	var mu sync.Mutex
	var released []uint64
	appendRound(l, 1, 2, &released, &mu)
	appendRound(l, 2, 2, &released, &mu)
	go func() {
		st.gate <- struct{}{}
		st.gate <- struct{}{}
		close(st.gate)
	}()
	if err := l.AnchorSnapshot(100, types.Hash([]byte("tip"))); err != nil {
		t.Fatal(err)
	}
	if d := l.DurableHeight(); d != 100 {
		t.Fatalf("durable height %d after anchoring at 100", d)
	}
	appendRound(l, 51, 2, &released, &mu)
	l.StopPersister()
	st.mu.Lock()
	defer st.mu.Unlock()
	got := strings.Join(st.ops, " ")
	if got != "append@2 append@4 reanchor@100 append@102" && got != "append@4 reanchor@100 append@102" {
		t.Fatalf("store saw %q: the re-base must follow the queued blocks and precede the new suffix", got)
	}
}

// TestWriteThroughReadersDoNotWaitForDisk pins the lock-scope fix on the
// SetStore path too: while an append sits in the store's fsync, Height,
// Block, Head and StoreErr answer.
func TestWriteThroughReadersDoNotWaitForDisk(t *testing.T) {
	st := &gateStore{gate: make(chan struct{})}
	l := New()
	l.SetStore(st)
	done := make(chan struct{})
	go func() {
		defer close(done)
		b := batch(0, 1, 2)
		l.AppendCertified(1, 0, b, fakeCert{d: b.Digest()})
	}()
	waitFor(t, "the append to reach the store", func() bool { return st.inCall.Load() == 1 })
	answered := make(chan struct{})
	go func() {
		defer close(answered)
		if l.Height() != 1 || l.Block(1) == nil || l.Head() == (types.Digest{}) || l.StoreErr() != nil {
			t.Error("reader saw an inconsistent chain during the write")
		}
	}()
	select {
	case <-answered:
	case <-time.After(5 * time.Second):
		t.Fatal("ledger readers blocked behind an in-flight store write")
	}
	if d := l.DurableHeight(); d != 0 {
		t.Fatalf("durable height %d before the store confirmed", d)
	}
	close(st.gate)
	<-done
	if d := l.DurableHeight(); d != 1 {
		t.Fatalf("durable height %d after the write-through append, want 1", d)
	}
}

// TestPersisterReadersRace hammers every reader while rounds stream through
// the stage (run under -race).
func TestPersisterReadersRace(t *testing.T) {
	st := &gateStore{}
	l := New()
	l.StartPersister(st)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				h := l.Height()
				if d := l.DurableHeight(); d > l.Height() {
					t.Errorf("durable height %d past height", d)
					return
				}
				if h > 0 && l.Block(h) == nil {
					t.Errorf("Block(%d) missing below Height", h)
					return
				}
				_, _, _ = l.PersistQueue(), l.StoreErr(), l.Head()
			}
		}()
	}
	var mu sync.Mutex
	var released []uint64
	for r := uint64(1); r <= 2000; r++ {
		appendRound(l, r, 2, &released, &mu)
	}
	l.StopPersister()
	close(stop)
	wg.Wait()
	if d := l.DurableHeight(); d != 4000 {
		t.Fatalf("durable height %d, want 4000", d)
	}
}
