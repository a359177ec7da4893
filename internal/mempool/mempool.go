// Package mempool is the replica-side client admission layer: a bounded
// buffer in front of consensus that makes request submission at-most-once.
//
// The paper's client protocol (Section 2.4) retries a request until f+1
// replicas confirm execution, and assumes each (client, seq) batch executes
// at most once; the admission layer is where that assumption is enforced.
// Every client request — first copy, retry, or a backup's re-forward —
// passes through Admit, which classifies it:
//
//   - Admitted: first sighting of a live (client, seq); consensus should
//     process it.
//   - Duplicate: the pair is already pending in consensus (a retry racing
//     the in-flight original, or an equivocating client re-binding the seq
//     to different contents — first writer wins either way); drop it.
//   - Replayed: the pair already executed; drop it, and when the executed
//     entry is still inside the replay window, re-reply from the certified
//     ledger so a client that missed its f+1 replies converges instead of
//     timing out.
//   - RateLimited: the client exceeded its admission token bucket; drop
//     without mutating any state, so a spamming client cannot grow the pool.
//
// Capacity is bounded in the style of neo-go's pkg/core/mempool: when a new
// admission would exceed the configured capacity, the oldest pending request
// is evicted (its client will retry it after the backlog drains). Per-client
// replay windows are fixed-size rings, so memory stays proportional to
// capacity plus (clients × window) even under saturation.
//
// The pool tracks consensus, it does not gate it: callers feed executions
// back via MarkExecuted, and dedup is advisory in the sense that consensus
// keeps its own duplicate-proposal guards — the pool exists to shed the
// redundant work (and the duplicate-execution hazard) before it reaches the
// state machine.
package mempool

import (
	"sync"
	"time"

	"resilientdb/internal/metrics"
	"resilientdb/internal/types"
)

// Verdict classifies one request's admission outcome.
type Verdict int

// Admission outcomes (see the package comment for semantics).
const (
	Admitted Verdict = iota
	Duplicate
	Replayed
	RateLimited
)

// String returns the verdict's stable lower-case name.
func (v Verdict) String() string {
	switch v {
	case Admitted:
		return "admitted"
	case Duplicate:
		return "duplicate"
	case Replayed:
		return "replayed"
	case RateLimited:
		return "rate-limited"
	}
	return "unknown"
}

// Executed records one executed (client, seq) inside the replay window:
// enough to reconstruct the client reply without consulting the ledger.
type Executed struct {
	// Seq is the client-assigned batch sequence number.
	Seq uint64
	// Digest is the executed batch's canonical digest (equals the commit
	// certificate's digest, which is what a reply carries as Result).
	Digest types.Digest
	// TxnCount is the number of transactions the batch carried.
	TxnCount int
}

// Config tunes one replica's pool. The zero value selects the defaults. It
// is also the cluster spec's "mempool" block (internal/config), under the
// JSON keys below.
type Config struct {
	// Capacity bounds the number of pending (admitted, not yet executed)
	// requests across all clients; an admission beyond it evicts the oldest
	// pending request. 0 selects DefaultCapacity.
	Capacity int `json:"capacity,omitempty"`
	// PerClientRate is the sustained number of new admissions per second one
	// client identity may consume (token-bucket refill rate). 0 selects
	// DefaultPerClientRate; negative disables rate limiting.
	PerClientRate float64 `json:"client_rate,omitempty"`
	// PerClientBurst is the token-bucket depth: how many admissions a client
	// may burst above the sustained rate. 0 selects DefaultPerClientBurst.
	PerClientBurst int `json:"client_burst,omitempty"`
	// ReplayWindow is how many executed (seq, digest) entries are remembered
	// per client for ledger re-replies. 0 selects DefaultReplayWindow.
	ReplayWindow int `json:"replay_window,omitempty"`
	// Now overrides the clock used by the rate limiter (deterministic
	// tests). Nil selects time.Now. It has no spec key.
	Now func() time.Time `json:"-"`
}

// Default tuning (see the README's Operations section for the tuning table).
const (
	// DefaultCapacity bounds pending requests per replica.
	DefaultCapacity = 4096
	// DefaultPerClientRate sustains 512 new admissions per second per
	// client — far above an honest client's retry cadence, far below a
	// spammer's.
	DefaultPerClientRate = 512
	// DefaultPerClientBurst is the default token-bucket depth.
	DefaultPerClientBurst = 512
	// DefaultReplayWindow remembers the last 32 executed batches per client.
	DefaultReplayWindow = 32
)

// Pool is one replica's admission buffer. All methods are safe for
// concurrent use: the fabric calls Admit from its verify pool (many
// goroutines) and MarkExecuted from the worker.
type Pool struct {
	mu      sync.Mutex
	cfg     Config
	clients map[types.NodeID]*clientState
	pending int
	fifo    []fifoRef // admission order, lazily pruned (see evict)
	head    int       // first live index into fifo
	stats   metrics.MempoolStats
}

// fifoRef points at one admitted request in admission order. A ref goes
// stale when its request executes or is evicted; stale refs are skipped (and
// discarded) by the eviction scan and the periodic compaction.
type fifoRef struct {
	client types.NodeID
	seq    uint64
}

// clientState is the per-client slice of the pool. hwm is the highest
// executed seq; executed is a fixed-size ring of the most recent executions
// (the replay window); tokens/refill implement the admission rate limit.
type clientState struct {
	pending  map[uint64]types.Digest
	hwm      uint64
	executed []Executed // ring buffer, next is the write cursor
	next     int
	tokens   float64
	refill   time.Time
}

// New builds a pool, applying defaults for unset Config fields.
func New(cfg Config) *Pool {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	if cfg.PerClientRate == 0 {
		cfg.PerClientRate = DefaultPerClientRate
	}
	if cfg.PerClientBurst <= 0 {
		cfg.PerClientBurst = DefaultPerClientBurst
	}
	if cfg.ReplayWindow <= 0 {
		cfg.ReplayWindow = DefaultReplayWindow
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Pool{cfg: cfg, clients: make(map[types.NodeID]*clientState)}
}

// Admit classifies one inbound request. The digest must be the batch's
// canonical digest; callers authenticate the client (signature verification)
// before admitting, so a spoofed Client field cannot poison another client's
// dedup state. For Replayed, the returned entry is non-nil when the
// execution is still inside the replay window — the caller should re-reply
// from it.
func (p *Pool) Admit(client types.NodeID, seq uint64, digest types.Digest) (Verdict, *Executed) {
	p.mu.Lock()
	defer p.mu.Unlock()

	st := p.clients[client]
	if st == nil {
		st = &clientState{
			pending:  make(map[uint64]types.Digest),
			executed: make([]Executed, 0, p.cfg.ReplayWindow),
			tokens:   float64(p.cfg.PerClientBurst),
			refill:   p.cfg.Now(),
		}
		p.clients[client] = st
	}

	// Already executed: re-reply if the window still remembers the outcome.
	if e := st.lookup(seq); e != nil {
		p.stats.Replayed++
		cp := *e
		return Replayed, &cp
	}
	if seq <= st.hwm {
		// Older than the window tracks; it (or a successor) executed, and
		// consensus would discard it anyway. No reply data survives.
		p.stats.Replayed++
		return Replayed, nil
	}

	// Already pending: a retry of the in-flight original, or an equivocating
	// client re-binding the seq to a different batch. First writer wins.
	if _, ok := st.pending[seq]; ok {
		p.stats.Duplicate++
		return Duplicate, nil
	}

	// Only genuinely new work charges tokens, so an honest client's retry
	// storm (same seq) never starves its own admissions.
	if p.cfg.PerClientRate > 0 {
		now := p.cfg.Now()
		st.tokens += now.Sub(st.refill).Seconds() * p.cfg.PerClientRate
		if burst := float64(p.cfg.PerClientBurst); st.tokens > burst {
			st.tokens = burst
		}
		st.refill = now
		if st.tokens < 1 {
			p.stats.RateLimited++
			return RateLimited, nil
		}
		st.tokens--
	}

	if p.pending >= p.cfg.Capacity {
		p.evict()
	}
	st.pending[seq] = digest
	p.pending++
	p.fifo = append(p.fifo, fifoRef{client, seq})
	p.compact()
	p.stats.Admitted++
	return Admitted, nil
}

// Precheck consults the pool read-only, BEFORE signature verification: it
// classifies requests that are decidable from already-authenticated state —
// duplicates of a pending verified original, and replays of executed work —
// so callers can shed a retry storm at digest-comparison cost instead of
// paying an ed25519 verification per copy. It never creates or mutates
// per-client state, so a spoofed Client field can neither grow the pool nor
// drain a victim's tokens. Undecided requests (decided == false) must be
// signature-verified and then offered to Admit, which re-checks under the
// lock (a copy that loses the race between Precheck and Admit is simply
// classified there).
//
// Dropping an unverified copy that matches verified state is safe: the
// state it matches was authenticated when written, and the protocol owes no
// processing to redundant copies. The re-reply entry is returned only when
// the digest matches the executed batch — a forged (client, seq) probe with
// different contents is dropped without a reply, so unauthenticated traffic
// cannot use the replay window to bounce replies at a victim client.
// Counters are updated for decided requests, so shed storms stay visible in
// Stats.
func (p *Pool) Precheck(client types.NodeID, seq uint64, digest types.Digest) (verdict Verdict, exec *Executed, decided bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.clients[client]
	if st == nil {
		return Admitted, nil, false
	}
	if e := st.lookup(seq); e != nil {
		p.stats.Replayed++
		if e.Digest == digest {
			cp := *e
			return Replayed, &cp, true
		}
		return Replayed, nil, true
	}
	if seq <= st.hwm {
		p.stats.Replayed++
		return Replayed, nil, true
	}
	if _, ok := st.pending[seq]; ok {
		p.stats.Duplicate++
		return Duplicate, nil, true
	}
	return Admitted, nil, false
}

// RequestStatus classifies what the pool knows about one (client, seq) when
// queried out of band — the RPC front door's status endpoint, where a client
// polls for the fate of a submit instead of waiting on a transport reply.
type RequestStatus int

// Lookup outcomes.
const (
	// StatusUnknown means the pool has no record: never admitted, or
	// admitted so long ago that both the pending set and the replay window
	// have forgotten it.
	StatusUnknown RequestStatus = iota
	// StatusPending means the request was admitted and is in flight through
	// consensus.
	StatusPending
	// StatusExecuted means the request (or a successor with a higher seq)
	// has executed.
	StatusExecuted
)

// String returns the status's stable lower-case name.
func (s RequestStatus) String() string {
	switch s {
	case StatusUnknown:
		return "unknown"
	case StatusPending:
		return "pending"
	case StatusExecuted:
		return "executed"
	}
	return "invalid"
}

// Lookup reports what the pool knows about one (client, seq), without
// mutating any state: no token charge, no per-client state creation, no
// counter updates — so it is safe to expose to unauthenticated pollers. The
// returned entry is non-nil only when the execution is still inside the
// replay window (it is a copy; callers may retain it).
func (p *Pool) Lookup(client types.NodeID, seq uint64) (RequestStatus, *Executed) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.clients[client]
	if st == nil {
		return StatusUnknown, nil
	}
	if e := st.lookup(seq); e != nil {
		cp := *e
		return StatusExecuted, &cp
	}
	if seq <= st.hwm {
		return StatusExecuted, nil
	}
	if _, ok := st.pending[seq]; ok {
		return StatusPending, nil
	}
	return StatusUnknown, nil
}

// MarkExecuted feeds one execution back into the pool: the pending entry (if
// any) is released and the outcome is remembered in the client's replay
// window. Safe to call for batches the pool never admitted (bootstrap
// replays, catch-up imports): the window is updated regardless, so later
// retries still resolve as Replayed.
func (p *Pool) MarkExecuted(client types.NodeID, seq uint64, digest types.Digest, txnCount int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.clients[client]
	if st == nil {
		st = &clientState{
			pending:  make(map[uint64]types.Digest),
			executed: make([]Executed, 0, p.cfg.ReplayWindow),
			tokens:   float64(p.cfg.PerClientBurst),
			refill:   p.cfg.Now(),
		}
		p.clients[client] = st
	}
	if _, ok := st.pending[seq]; ok {
		delete(st.pending, seq)
		p.pending--
	}
	if st.lookup(seq) != nil {
		return // already recorded (duplicate execution feeds, e.g. re-imports)
	}
	e := Executed{Seq: seq, Digest: digest, TxnCount: txnCount}
	if len(st.executed) < p.cfg.ReplayWindow {
		st.executed = append(st.executed, e)
	} else {
		st.executed[st.next] = e
		st.next = (st.next + 1) % p.cfg.ReplayWindow
	}
	if seq > st.hwm {
		st.hwm = seq
	}
}

// lookup returns the replay-window entry for seq, or nil.
func (st *clientState) lookup(seq uint64) *Executed {
	for i := range st.executed {
		if st.executed[i].Seq == seq {
			return &st.executed[i]
		}
	}
	return nil
}

// evict drops the oldest pending request (FIFO, as admission order is the
// only fair priority among equally-paying clients), skipping refs gone stale
// since admission. Called with p.mu held and p.pending > 0.
func (p *Pool) evict() {
	for p.head < len(p.fifo) {
		ref := p.fifo[p.head]
		p.head++
		st := p.clients[ref.client]
		if st == nil {
			continue
		}
		if _, ok := st.pending[ref.seq]; !ok {
			continue // stale: executed or already evicted
		}
		delete(st.pending, ref.seq)
		p.pending--
		p.stats.Evicted++
		return
	}
}

// compact bounds the fifo slice: executed requests leave stale refs behind,
// and without eviction pressure those would accumulate forever. Rebuilding
// once the slice is 4× the live set keeps amortized cost O(1) per admission.
func (p *Pool) compact() {
	if len(p.fifo)-p.head <= 4*p.cfg.Capacity && p.head <= len(p.fifo)/2 {
		return
	}
	live := p.fifo[p.head:]
	out := p.fifo[:0]
	for _, ref := range live {
		if st := p.clients[ref.client]; st != nil {
			if _, ok := st.pending[ref.seq]; ok {
				out = append(out, ref)
			}
		}
	}
	p.fifo, p.head = out, 0
}

// Len returns the number of pending (admitted, not yet executed) requests.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pending
}

// Clients returns how many client identities the pool currently tracks.
func (p *Pool) Clients() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.clients)
}

// Stats returns a snapshot of the admission counters.
func (p *Pool) Stats() metrics.MempoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}
