package pbft

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"resilientdb/internal/proto"
	"resilientdb/internal/types"
)

// Config parameterizes one PBFT replica.
type Config struct {
	// Members lists the participating replicas in local-index order; the
	// primary of view v is Members[v mod n].
	Members []types.NodeID
	// Self is this replica's identifier (must appear in Members).
	Self types.NodeID
	// F is the maximum number of Byzantine members; len(Members) > 3F.
	F int
	// CheckpointInterval is the number of sequence numbers between
	// checkpoints (the paper's experiments use 600 transactions = 6 batches
	// at batch size 100).
	CheckpointInterval uint64
	// HighWaterMark bounds how far past the last stable checkpoint the
	// primary may propose (log window).
	HighWaterMark uint64
	// ViewChangeTimeout is the base progress timeout; it doubles on each
	// consecutive failed view (exponential back-off).
	ViewChangeTimeout time.Duration
	// RetainCerts is how many recent commit certificates are kept for
	// catch-up after their entries are garbage collected.
	RetainCerts uint64
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.CheckpointInterval == 0 {
		out.CheckpointInterval = 6
	}
	if out.HighWaterMark == 0 {
		out.HighWaterMark = 4 * out.CheckpointInterval
	}
	if out.ViewChangeTimeout == 0 {
		out.ViewChangeTimeout = 2 * time.Second
	}
	if out.RetainCerts == 0 {
		out.RetainCerts = 1024
	}
	return out
}

// Hooks are the replica's upcalls. Committed fires exactly once per
// sequence number, in order.
type Hooks struct {
	// Committed delivers the decision for seq; decisions arrive in strictly
	// increasing seq order with no gaps. cert lists the n−f commit votes the
	// decision was counted on, authenticated by their channels; their
	// signatures have not been checked. It is good for ordering and
	// executing the batch. Before it is shown to anyone who cannot rely on
	// this replica's channels, get the proven form from Prove.
	Committed func(seq uint64, cert *Certificate)
	// ViewChanged fires after a new view is installed.
	ViewChanged func(view uint64, primary types.NodeID)
	// Behind fires when f+1 members checkpoint a sequence this replica has
	// not reached — evidence it fell behind its cluster. A composing protocol
	// (GeoBFT) uses it to trigger ledger catch-up; the replica's own
	// window-bounded certificate catch-up runs regardless.
	Behind func(seq uint64)
	// Rejected fires when an inbound message is discarded because a
	// cryptographic check failed or it is provably forged (bad signature,
	// digest/batch mismatch, spoofed sender identity, malformed view-change
	// or new-view content) — never for merely stale or duplicate traffic.
	// The fabric counts these into its drop statistics so forged messages
	// land in Fabric.Stats as verify-rejects instead of vanishing uncounted.
	Rejected func()
	// Checkpointed fires when a checkpoint becomes stable at seq — 2f+1
	// members attested to the same execution history, so state below seq is
	// durable cluster-wide. The fabric publishes its pending state snapshot
	// and garbage-collects ledger segments on this signal, never earlier: a
	// snapshot must not outrun the proof that its prefix is common.
	Checkpointed func(seq uint64)
	// Proven fires when a Prove that came up short of n−f valid signatures
	// succeeds after all, because a further commit vote arrived: whoever was
	// waiting to show seq's certificate can show it now.
	Proven func(seq uint64, cert *Certificate)
	// BadVoteSig fires once for every retained vote — commit, prepare or
	// checkpoint — whose signature failed when a proof was assembled. The
	// vote had been counted on its channel's authentication; it is dropped
	// from the proof, never shown.
	BadVoteSig func()
	// Unprovable fires when this replica declines to show something because
	// the votes it retains do not hold n−f valid signatures: a certificate
	// left out of a catch-up reply, a view-change claim sent short.
	Unprovable func()
}

// voteKey identifies the proposal a prepare/commit vote supports. Votes are
// bucketed by (view, digest) so that messages racing ahead of their
// preprepare — or spanning a view change — are never lost; this matters
// when f replicas have crashed and the quorum needs every remaining vote.
type voteKey struct {
	view   uint64
	digest types.Digest
}

// entry is the per-sequence protocol state.
type entry struct {
	view          uint64
	digest        types.Digest
	batch         types.Batch
	hasPrePrepare bool
	prepares      map[voteKey]map[types.NodeID][]byte
	commits       map[voteKey]map[types.NodeID][]byte
	prepared      bool
	sentCommit    bool
	committed     bool
	dec           *decided // set with committed; shared with certLog
}

// decided is what the replica keeps about a committed sequence, in the entry
// while that lives and in certLog after. cert starts as the n−f votes the
// decision was counted on — authenticated by their channels, signatures
// unchecked — and votes holds every commit vote received for the decided
// proposal, those n−f and any that arrive later (onCommit adds to it even
// after the entry is collected): the spares a proof draws on when a counted
// signature turns out bad. proven records that this replica has itself
// verified every signature in cert (Prove, or AdoptCertificate's full check);
// the spares are dropped then. The memo sits here and never on the
// Certificate: the in-process transport hands messages over by pointer, so a
// flag on the object would let one replica's check stand in for another's.
type decided struct {
	cert   *Certificate
	votes  map[types.NodeID][]byte
	proven bool
	// wanted marks a Prove that came up short of n−f valid signatures; the
	// next spare retries it and reports through Hooks.Proven.
	wanted bool
}

func (e *entry) votes(m map[voteKey]map[types.NodeID][]byte, k voteKey) map[types.NodeID][]byte {
	set := m[k]
	if set == nil {
		set = make(map[types.NodeID][]byte)
		m[k] = set
	}
	return set
}

func (e *entry) key() voteKey { return voteKey{view: e.view, digest: e.digest} }

// Replica is a PBFT participant. It is a single-threaded state machine:
// all entry points (HandleMessage, SubmitLocal) must be invoked from the
// owning event loop.
type Replica struct {
	env   proto.Env
	cfg   Config
	hooks Hooks
	n     int

	view          uint64
	inViewChange  bool
	nextSeq       uint64 // primary: last assigned sequence
	entries       map[uint64]*entry
	committedUpTo uint64
	lowWater      uint64 // last stable checkpoint

	queue     []signedBatch // primary-side pending client batches
	clientHWM map[types.NodeID]uint64
	inFlight  map[types.Digest]bool        // primary: proposed, not yet committed
	forwarded map[types.Digest]signedBatch // backup: awaiting execution

	history     map[uint64]types.Digest // digest chain over committed batches
	checkpoints map[uint64]map[types.NodeID]*Checkpoint
	// stable holds every matching checkpoint vote received for lowWater,
	// late ones included, until a view change needs the proof; stableProof is
	// the n−f of them whose signatures verified (see provenStable).
	stable       map[types.NodeID]*Checkpoint
	stableProof  []*Checkpoint
	certLog      map[uint64]*decided
	catchupAsked time.Duration

	progressTimer proto.Timer
	vcAttempts    uint
	vcStore       map[uint64]map[types.NodeID]*ViewChange
	targetView    uint64
	// futurePP buffers preprepares for views not yet installed here; the new
	// primary starts proposing the moment it builds the NewView, racing the
	// install at other replicas.
	futurePP []*PrePrepare
}

// NewReplica constructs a replica bound to env.
func NewReplica(env proto.Env, cfg Config, hooks Hooks) *Replica {
	c := cfg.withDefaults()
	if len(c.Members) <= 3*c.F {
		panic(fmt.Sprintf("pbft: need n > 3f, got n=%d f=%d", len(c.Members), c.F))
	}
	r := &Replica{
		env:         env,
		cfg:         c,
		hooks:       hooks,
		n:           len(c.Members),
		entries:     make(map[uint64]*entry),
		clientHWM:   make(map[types.NodeID]uint64),
		inFlight:    make(map[types.Digest]bool),
		forwarded:   make(map[types.Digest]signedBatch),
		history:     map[uint64]types.Digest{0: {}},
		checkpoints: make(map[uint64]map[types.NodeID]*Checkpoint),
		certLog:     make(map[uint64]*decided),
		vcStore:     make(map[uint64]map[types.NodeID]*ViewChange),
	}
	return r
}

// quorum is the paper's n−f acceptance threshold.
func (r *Replica) quorum() int { return r.n - r.cfg.F }

// reject reports one forged or cryptographically invalid inbound message to
// the composing layer (see Hooks.Rejected).
func (r *Replica) reject() {
	if r.hooks.Rejected != nil {
		r.hooks.Rejected()
	}
}

// unprovable reports one declined show (see Hooks.Unprovable).
func (r *Replica) unprovable() {
	if r.hooks.Unprovable != nil {
		r.hooks.Unprovable()
	}
}

// PrimaryOf returns the primary of view v.
func (r *Replica) PrimaryOf(v uint64) types.NodeID { return proto.LeaderOf(r.cfg.Members, v) }

// Primary returns the current primary.
func (r *Replica) Primary() types.NodeID { return r.PrimaryOf(r.view) }

// IsPrimary reports whether this replica currently leads.
func (r *Replica) IsPrimary() bool { return r.Primary() == r.env.ID() }

// View returns the current view number.
func (r *Replica) View() uint64 { return r.view }

// InViewChange reports whether a view-change is in progress.
func (r *Replica) InViewChange() bool { return r.inViewChange }

// CommittedUpTo returns the highest sequence delivered in order.
func (r *Replica) CommittedUpTo() uint64 { return r.committedUpTo }

// StableSeq returns the last stable checkpoint sequence.
func (r *Replica) StableSeq() uint64 { return r.lowWater }

// QueueLen returns the primary's pending batch count (for flow control).
func (r *Replica) QueueLen() int { return len(r.queue) }

// NextSeq returns the highest sequence number this replica has assigned as
// primary (composing protocols use it for round accounting).
func (r *Replica) NextSeq() uint64 { return r.nextSeq }

func (r *Replica) entryAt(seq uint64) *entry {
	e := r.entries[seq]
	if e == nil {
		e = &entry{
			view:     r.view,
			prepares: make(map[voteKey]map[types.NodeID][]byte),
			commits:  make(map[voteKey]map[types.NodeID][]byte),
		}
		r.entries[seq] = e
	}
	return e
}

func (r *Replica) broadcast(m types.Message) {
	// Point-to-point channels are MAC-authenticated; charge the MAC cost
	// once per recipient, as the paper's implementation does.
	for range r.cfg.Members {
		r.env.Suite().ChargeMAC()
	}
	proto.Multicast(r.env, r.cfg.Members, m)
}

// signedBatch couples a buffered client batch with the client signature that
// authenticated it, so a later forward (or new-view re-forward) carries the
// proof along instead of asking the receiver to trust this replica.
type signedBatch struct {
	b   types.Batch
	sig []byte
}

// SubmitLocal hands a client batch to this replica; sig is the client's
// signature over RequestPayload (nil for a no-op). verified is false only
// where nothing checked sig (the standalone PBFT baseline). The primary
// enqueues and proposes the batch; a backup forwards it to the primary and
// supervises progress (the standard PBFT anti-censorship mechanism).
func (r *Replica) SubmitLocal(b types.Batch, sig []byte, verified bool) {
	if !verified {
		// Client batches are signed; charge verification (the baseline's
		// simulated clients are honest, so the check is modelled as cost).
		r.env.Suite().ChargeVerify()
	}
	if !b.NoOp && b.Seq <= r.clientHWM[b.Client] {
		return // duplicate
	}
	if r.IsPrimary() && !r.inViewChange {
		r.queue = append(r.queue, signedBatch{b, sig})
		r.tryPropose()
		return
	}
	// Backup (or mid-view-change): supervise the request. It is forwarded
	// to the primary, and re-routed when a new view installs.
	d := b.Digest()
	if _, dup := r.forwarded[d]; dup {
		return
	}
	r.forwarded[d] = signedBatch{b, sig}
	if !r.inViewChange {
		r.env.Suite().ChargeMAC()
		r.env.Send(r.Primary(), &Request{Batch: b, Sig: sig, Forwarded: true})
	}
	r.armProgressTimer()
}

func (r *Replica) tryPropose() {
	if !r.IsPrimary() || r.inViewChange {
		return
	}
	for len(r.queue) > 0 && r.nextSeq < r.lowWater+r.cfg.HighWaterMark {
		b := r.queue[0].b
		r.queue = r.queue[1:]
		if !b.NoOp && b.Seq <= r.clientHWM[b.Client] {
			continue // executed while queued
		}
		d := b.Digest()
		if r.inFlight[d] || r.digestLive(d) {
			continue // a retransmission of a batch already being ordered
		}
		r.inFlight[d] = true
		r.nextSeq++
		dbg("%v PROPOSE view=%d seq=%d", r.env.ID(), r.view, r.nextSeq)
		pp := &PrePrepare{View: r.view, Seq: r.nextSeq, Digest: d, Batch: b}
		r.broadcast(pp)
		r.onPrePrepare(r.env.ID(), pp)
	}
}

// digestLive reports whether d is already bound to an uncommitted-or-
// unexecuted proposal in the log. inFlight only remembers what THIS replica
// proposed; after a view change the new primary holds proposals it adopted
// from new-view proofs (installed via onPrePrepare, which never marks
// inFlight) while the same batch sits in its queue as an adopted forwarded
// request — proposing it again would execute the batch twice, the classic
// client-retry duplication. The scan is bounded by the water-mark window.
func (r *Replica) digestLive(d types.Digest) bool {
	for seq, e := range r.entries {
		if seq > r.committedUpTo && e.hasPrePrepare && e.digest == d {
			return true
		}
	}
	return false
}

// HandleMessage checks a PBFT message with PreVerify on this replica's suite
// and applies it with HandleVerified; a rejected message is counted
// (Hooks.Rejected) and dropped. It returns false if msg is not a PBFT message
// (so composing protocols can try their own handlers).
func (r *Replica) HandleMessage(from types.NodeID, msg types.Message) bool {
	if PreVerify(r.env.Suite(), from, msg) == proto.VerdictReject {
		r.reject()
		return true
	}
	return r.HandleVerified(from, msg)
}

// HandleVerified applies a PBFT message that PreVerify did not reject: the
// state-dependent guards run here, the state-independent checks do not run
// again. It returns false if msg is not a PBFT message.
func (r *Replica) HandleVerified(from types.NodeID, msg types.Message) bool {
	switch m := msg.(type) {
	case *Request:
		// A forwarded client request: route it by our current role (the
		// composing layer checked the carried client signature:
		// core.Replica.PreVerify).
		r.env.Suite().ChargeVerifyMAC()
		r.SubmitLocal(m.Batch, m.Sig, true)
		return true
	case *PrePrepare:
		r.env.Suite().ChargeVerifyMAC()
		r.onPrePrepare(from, m)
		return true
	case *Prepare:
		r.env.Suite().ChargeVerifyMAC()
		if r.isMember(from) {
			r.onPrepare(from, m)
		}
		return true
	case *Commit:
		r.env.Suite().ChargeVerifyMAC()
		if r.isMember(from) {
			r.onCommit(from, m)
		}
		return true
	case *Checkpoint:
		r.env.Suite().ChargeVerifyMAC()
		if r.isMember(from) {
			r.onCheckpoint(from, m)
		}
		return true
	case *ViewChange:
		r.onViewChange(from, m)
		return true
	case *NewView:
		r.onNewView(from, m)
		return true
	case *CatchupRequest:
		r.onCatchupRequest(from, m)
		return true
	case *CatchupReply:
		r.onCatchupReply(from, m)
		return true
	}
	return false
}

// isMember gates the votes: they are counted on the channel's word for who
// sent them, so the sender must be someone whose vote counts. Anything else
// is rejected.
func (r *Replica) isMember(id types.NodeID) bool {
	for _, m := range r.cfg.Members {
		if m == id {
			return true
		}
	}
	r.reject()
	return false
}

func (r *Replica) inWindow(seq uint64) bool {
	return seq > r.lowWater && seq <= r.lowWater+2*r.cfg.HighWaterMark
}

// onPrePrepare applies a proposal whose batch/digest binding holds: checked
// by PreVerify, or true by construction where the proposal was made here.
func (r *Replica) onPrePrepare(from types.NodeID, m *PrePrepare) {
	if from != r.PrimaryOf(m.View) {
		return
	}
	if m.View > r.view {
		// Proposal from a view we have not installed yet: buffer and replay
		// after the NewView arrives.
		if len(r.futurePP) < 4096 {
			r.futurePP = append(r.futurePP, m)
		}
		return
	}
	if m.View != r.view || r.inViewChange {
		return
	}
	if !r.inWindow(m.Seq) {
		return
	}
	e := r.entryAt(m.Seq)
	if e.hasPrePrepare && e.view == m.View {
		if e.digest != m.Digest {
			// Equivocation by the primary: provable misbehaviour.
			r.startViewChange(r.view + 1)
		}
		return
	}
	if e.committed {
		return // decided; a re-proposal cannot change it
	}
	// Accept (possibly re-proposed in a newer view); votes for the new
	// (view, digest) live in their own bucket, so stale state is harmless.
	e.view = m.View
	e.digest = m.Digest
	e.batch = m.Batch
	e.hasPrePrepare = true
	e.prepared, e.sentCommit = false, false
	r.armProgressTimer()

	// Phase one: broadcast a prepare in support.
	sig := r.env.Suite().Sign(PreparePayload(m.View, m.Seq, m.Digest))
	p := &Prepare{View: m.View, Seq: m.Seq, Digest: m.Digest, Replica: r.env.ID(), Sig: sig}
	r.broadcast(p)
	e.votes(e.prepares, e.key())[r.env.ID()] = sig
	r.maybePrepared(m.Seq, e)
}

func (r *Replica) onPrepare(from types.NodeID, m *Prepare) {
	// Votes for the current or any future view are bucketed; only stale
	// views are discarded. This keeps votes that raced ahead of their
	// preprepare or of our view-change installation.
	if m.View < r.view || !r.inWindow(m.Seq) {
		return
	}
	e := r.entryAt(m.Seq)
	set := e.votes(e.prepares, voteKey{view: m.View, digest: m.Digest})
	if _, dup := set[from]; dup {
		return
	}
	// Counted on the channel's authentication of its sender; the signature
	// is retained and checked only if a view-change proof shows it
	// (provenVotes).
	set[from] = m.Sig
	r.maybePrepared(m.Seq, e)
}

func (r *Replica) maybePrepared(seq uint64, e *entry) {
	if e.prepared || !e.hasPrePrepare || len(e.prepares[e.key()]) < r.quorum() {
		return
	}
	e.prepared = true
	dbg("%v PREPARED seq=%d view=%d", r.env.ID(), seq, e.view)
	r.sendCommit(seq, e)
}

func (r *Replica) sendCommit(seq uint64, e *entry) {
	if e.sentCommit {
		return
	}
	e.sentCommit = true
	// Commit messages are digitally signed: they form the forwardable
	// commit certificate (paper Section 2.2).
	sig := r.env.Suite().Sign(CommitPayload(e.view, seq, e.digest))
	c := &Commit{View: e.view, Seq: seq, Digest: e.digest, Replica: r.env.ID(), Sig: sig}
	r.broadcast(c)
	e.votes(e.commits, e.key())[r.env.ID()] = sig
	r.maybeCommitted(seq, e)
}

// onCommit counts a commit vote. What authenticates it is the channel it
// arrived on — the frame MAC over TCP, the in-process endpoint on Mem — plus
// the checks that the vote names its sender (PreVerify) and the sender is a
// member; the ed25519 signature is kept and verified only when a certificate
// built from it is about to be shown (Prove).
func (r *Replica) onCommit(from types.NodeID, m *Commit) {
	if !r.inWindow(m.Seq) {
		// The entry is collected (or never existed); a sequence decided here
		// still takes the vote as a spare. A checkpoint can stabilize before
		// the last commit vote of its own sequence arrives.
		if d := r.certLog[m.Seq]; d != nil {
			r.spareVote(d, from, m)
		}
		return
	}
	e := r.entryAt(m.Seq)
	if e.committed {
		r.spareVote(e.dec, from, m)
		return
	}
	set := e.votes(e.commits, voteKey{view: m.View, digest: m.Digest})
	if _, dup := set[from]; dup {
		return
	}
	set[from] = m.Sig
	r.maybeCommitted(m.Seq, e)
}

// spareVote keeps a commit vote for a proposal that is already decided, and
// retries the proof that was waiting for one.
func (r *Replica) spareVote(d *decided, from types.NodeID, m *Commit) {
	if d.proven || m.View != d.cert.View || m.Digest != d.cert.Digest {
		return // n−f verified signatures are in hand, or not a vote for the decision
	}
	if _, dup := d.votes[from]; dup {
		return
	}
	d.votes[from] = m.Sig
	if d.wanted {
		d.wanted = false
		if cert, _ := r.Prove(m.Seq); cert != nil && r.hooks.Proven != nil {
			r.hooks.Proven(m.Seq, cert)
		}
	}
}

func (r *Replica) maybeCommitted(seq uint64, e *entry) {
	set := e.commits[e.key()]
	if e.committed || !e.prepared || len(set) < r.quorum() {
		return
	}
	e.committed = true
	dbg("%v COMMITTED seq=%d view=%d", r.env.ID(), seq, e.view)
	signers, sigs := sortedVotes(set, r.quorum())
	e.dec = &decided{votes: set, cert: &Certificate{
		View: e.view, Seq: seq, Digest: e.digest, Batch: e.batch,
		Signers: signers, Sigs: sigs,
	}}
	r.certLog[seq] = e.dec
	r.advanceCommitted()
}

// sortedVotes lists up to limit of the votes not marked bad, in signer order.
func sortedVotes(set map[types.NodeID][]byte, limit int) ([]types.NodeID, [][]byte) {
	signers := make([]types.NodeID, 0, len(set))
	for id, sig := range set {
		if sig != nil {
			signers = append(signers, id)
		}
	}
	sort.Slice(signers, func(i, j int) bool { return signers[i] < signers[j] })
	if len(signers) > limit {
		signers = signers[:limit]
	}
	sigs := make([][]byte, len(signers))
	for i, id := range signers {
		sigs[i] = set[id]
	}
	return signers, sigs
}

// provenVotes picks n−f votes from set whose signatures over payload verify,
// in signer order, running ed25519 over each until it has them (this
// replica's own vote is taken on trust: it made that signature). A vote that
// fails is marked bad in set — it keeps its slot, so its sender cannot refill
// it, and is never looked at again — and counted. ok is false when fewer
// than n−f verify; the valid ones found are returned all the same.
func (r *Replica) provenVotes(set map[types.NodeID][]byte, payload []byte) (signers []types.NodeID, sigs [][]byte, ok bool) {
	ids, all := sortedVotes(set, len(set))
	signers, sigs = make([]types.NodeID, 0, r.quorum()), make([][]byte, 0, r.quorum())
	for i, id := range ids {
		if len(signers) == r.quorum() {
			break
		}
		if id != r.env.ID() && !r.env.Suite().Verify(id, payload, all[i]) {
			set[id] = nil
			if r.hooks.BadVoteSig != nil {
				r.hooks.BadVoteSig()
			}
			continue
		}
		signers, sigs = append(signers, id), append(sigs, all[i])
	}
	return signers, sigs, len(signers) == r.quorum()
}

// Prove returns seq's commit certificate in the only form that may leave
// this replica: exactly n−f commit signatures from distinct members, every
// one verified here. The first call for a sequence runs ed25519 over the
// retained votes (quorum−1 checks when all are good, since the replica's own
// needs none); later calls return the same certificate at no cost. known is
// false when the replica holds no record of seq — never decided here, or the
// record collected — and the caller must look elsewhere. A nil certificate
// with known set means fewer than n−f retained votes verify: the next commit
// vote for seq retries, and Hooks.Proven reports success.
func (r *Replica) Prove(seq uint64) (cert *Certificate, known bool) {
	d := r.certLog[seq]
	switch {
	case d == nil:
		return nil, false
	case d.proven:
		return d.cert, true
	case d.wanted:
		return nil, true // came up short already and no vote has arrived since
	}
	c := d.cert
	signers, sigs, ok := r.provenVotes(d.votes, CommitPayload(c.View, seq, c.Digest))
	if !ok {
		d.wanted = true
		return nil, true
	}
	if !slices.Equal(signers, c.Signers) {
		d.cert = &Certificate{View: c.View, Seq: seq, Digest: c.Digest, Batch: c.Batch, Signers: signers, Sigs: sigs}
	}
	d.proven, d.votes = true, nil
	return d.cert, true
}

func (r *Replica) advanceCommitted() {
	progressed := false
	for {
		e := r.entries[r.committedUpTo+1]
		if e == nil || !e.committed {
			break
		}
		r.committedUpTo++
		progressed = true
		if !e.batch.NoOp && e.batch.Seq > r.clientHWM[e.batch.Client] {
			r.clientHWM[e.batch.Client] = e.batch.Seq
		}
		delete(r.forwarded, e.digest)
		delete(r.inFlight, e.digest)

		// Extend the history digest chain used by checkpoints.
		enc := types.NewEncoder(72)
		enc.Digest(r.history[r.committedUpTo-1])
		enc.Digest(e.digest)
		r.history[r.committedUpTo] = types.Hash(enc.Bytes())

		if r.hooks.Committed != nil {
			r.hooks.Committed(r.committedUpTo, e.dec.cert)
		}
		if r.committedUpTo%r.cfg.CheckpointInterval == 0 {
			r.emitCheckpoint(r.committedUpTo)
		}
	}
	if progressed {
		r.vcAttempts = 0
		r.rearmProgressTimer()
		r.tryPropose()
	}
}

// emitCheckpoint broadcasts this replica's signed checkpoint at seq.
func (r *Replica) emitCheckpoint(seq uint64) {
	d := r.history[seq]
	sig := r.env.Suite().Sign(checkpointPayload(seq, d))
	cp := &Checkpoint{Seq: seq, Digest: d, Replica: r.env.ID(), Sig: sig}
	r.broadcast(cp)
	r.onCheckpoint(r.env.ID(), cp)
}

func (r *Replica) onCheckpoint(from types.NodeID, m *Checkpoint) {
	if m.Replica != from || len(m.Sig) == 0 {
		return
	}
	if m.Seq == r.lowWater && r.stable != nil && m.Digest == r.history[m.Seq] {
		// Late vote for the checkpoint that is already stable: a spare for
		// the proof a view change may have to show.
		if _, dup := r.stable[from]; !dup {
			r.stable[from] = m
		}
		return
	}
	if m.Seq <= r.lowWater {
		return
	}
	set := r.checkpoints[m.Seq]
	if set == nil {
		set = make(map[types.NodeID]*Checkpoint)
		r.checkpoints[m.Seq] = set
	}
	if _, dup := set[from]; dup {
		return
	}
	set[from] = m

	// Count matching digests.
	matching := make([]*Checkpoint, 0, len(set))
	for _, cp := range set {
		if cp.Digest == m.Digest {
			matching = append(matching, cp)
		}
	}
	if len(matching) >= r.quorum() {
		r.stabilize(m.Seq, matching)
	} else if m.Seq > r.committedUpTo+r.cfg.CheckpointInterval && len(set) >= r.cfg.F+1 {
		// f+1 replicas are checkpointing ahead of us: we fell behind.
		r.noteBehind(m.Seq)
		r.requestCatchup()
	}
}

// noteBehind reports evidence of lagging to the composing protocol.
func (r *Replica) noteBehind(seq uint64) {
	if r.hooks.Behind != nil {
		r.hooks.Behind(seq)
	}
}

// stabilize installs a stable checkpoint at seq and garbage collects.
func (r *Replica) stabilize(seq uint64, proof []*Checkpoint) {
	if seq <= r.lowWater {
		return
	}
	if seq > r.committedUpTo {
		// Quorum is ahead of us; remember the proof after catch-up.
		r.noteBehind(seq)
		r.requestCatchup()
		return
	}
	r.lowWater = seq
	// Stability is counted like a commit: on the channels' word for who
	// voted. The votes are kept; provenStable checks their signatures if a
	// view change ever has to show them.
	r.stable, r.stableProof = make(map[types.NodeID]*Checkpoint, r.n), nil
	for _, cp := range proof {
		r.stable[cp.Replica] = cp
	}
	for s := range r.entries {
		if s <= seq {
			delete(r.entries, s)
		}
	}
	for s := range r.checkpoints {
		if s <= seq {
			delete(r.checkpoints, s)
		}
	}
	for s := range r.history {
		if s < seq {
			delete(r.history, s)
		}
	}
	if seq > r.cfg.RetainCerts {
		for s := range r.certLog {
			if s < seq-r.cfg.RetainCerts {
				delete(r.certLog, s)
			}
		}
	}
	if r.nextSeq < seq {
		r.nextSeq = seq
	}
	if r.hooks.Checkpointed != nil {
		r.hooks.Checkpointed(seq)
	}
	r.tryPropose()
}

// requestCatchup asks a random peer for the certificates we are missing.
func (r *Replica) requestCatchup() {
	if now := r.env.Now(); now-r.catchupAsked < 200*time.Millisecond {
		return
	}
	r.catchupAsked = r.env.Now()
	peer := r.cfg.Members[r.env.Rand().Intn(r.n)]
	for peer == r.env.ID() {
		peer = r.cfg.Members[r.env.Rand().Intn(r.n)]
	}
	r.env.Suite().ChargeMAC()
	r.env.Send(peer, &CatchupRequest{FromSeq: r.committedUpTo + 1})
}

func (r *Replica) onCatchupRequest(from types.NodeID, m *CatchupRequest) {
	const maxCerts = 16
	var certs []*Certificate
	for s := m.FromSeq; s <= r.committedUpTo && len(certs) < maxCerts; s++ {
		c, known := r.Prove(s)
		if c == nil {
			if known {
				r.unprovable() // the reply is cut here; the requester asks someone else
			}
			break
		}
		certs = append(certs, c)
	}
	if len(certs) > 0 {
		r.env.Suite().ChargeMAC()
		r.env.Send(from, &CatchupReply{Certs: certs})
	}
}

func (r *Replica) onCatchupReply(from types.NodeID, m *CatchupReply) {
	for _, cert := range m.Certs {
		r.AdoptCertificate(cert)
	}
}

// AdoptCertificate installs an externally obtained commit certificate after
// full verification. It is used by catch-up and by recovery.
func (r *Replica) AdoptCertificate(cert *Certificate) {
	if cert.Seq <= r.committedUpTo || !r.inWindow(cert.Seq) {
		return
	}
	if !cert.Verify(r.env.Suite(), r.cfg.Members, r.quorum()) {
		r.reject()
		return
	}
	e := r.entryAt(cert.Seq)
	if e.committed {
		return
	}
	e.view, e.digest, e.batch = cert.View, cert.Digest, cert.Batch
	e.hasPrePrepare, e.prepared, e.sentCommit, e.committed = true, true, true, true
	e.dec = &decided{cert: cert, proven: true} // every signature verified just above
	r.certLog[cert.Seq] = e.dec
	r.advanceCommitted()
}

// FastForward installs externally verified state into a recovering replica:
// the caller (GeoBFT's ledger catch-up) has already validated, through commit
// certificates, that every sequence up to seq is decided, with the history
// digest chain ending at hist and view proven installed by a certificate. The
// replica jumps past the decided prefix — committedUpTo, nextSeq and the
// stable low-water mark all move to seq — and resumes normal operation from
// there. The stable-checkpoint proof is cleared (this replica never collected
// one for seq); it regains a provable checkpoint at the next checkpoint
// interval, and until then its view-change messages will not validate at
// peers — the standard recovery window.
func (r *Replica) FastForward(seq, view uint64, hist types.Digest) {
	if seq <= r.committedUpTo {
		return
	}
	r.committedUpTo = seq
	if r.nextSeq < seq {
		r.nextSeq = seq
	}
	if r.lowWater < seq {
		r.lowWater = seq
		r.stable, r.stableProof = nil, nil
	}
	r.history = map[uint64]types.Digest{seq: hist}
	for s := range r.entries {
		if s <= seq {
			delete(r.entries, s)
		}
	}
	for s := range r.checkpoints {
		if s <= seq {
			delete(r.checkpoints, s)
		}
	}
	if view > r.view {
		// A commit certificate at this view proves n−f replicas installed it,
		// so adopting it cannot fork; without this the recovering replica
		// would wait forever for a NewView that was sent before it rejoined.
		r.view = view
		r.targetView = view
		r.inViewChange = false
	}
	r.vcAttempts = 0
	r.rearmProgressTimer()
}

// NoteExecuted raises the duplicate-suppression high-water mark for a client
// whose batch was observed committed through catch-up, so a recovered
// primary does not re-propose a retransmission of an already-executed batch.
func (r *Replica) NoteExecuted(client types.NodeID, seq uint64) {
	if seq > r.clientHWM[client] {
		r.clientHWM[client] = seq
	}
}

// --- progress timer -------------------------------------------------------

func (r *Replica) pendingWork() bool {
	if len(r.forwarded) > 0 || len(r.queue) > 0 {
		return true
	}
	for s, e := range r.entries {
		if s > r.committedUpTo && e.hasPrePrepare && !e.committed {
			return true
		}
	}
	return false
}

func (r *Replica) timeout() time.Duration {
	d := r.cfg.ViewChangeTimeout
	for i := uint(0); i < r.vcAttempts && i < 6; i++ {
		d *= 2
	}
	return d
}

func (r *Replica) armProgressTimer() {
	if r.progressTimer != nil || r.inViewChange {
		return
	}
	r.progressTimer = r.env.SetTimer(r.timeout(), r.onProgressTimeout)
}

func (r *Replica) rearmProgressTimer() {
	if r.progressTimer != nil {
		r.progressTimer.Stop()
		r.progressTimer = nil
	}
	if r.pendingWork() {
		r.armProgressTimer()
	}
}

func (r *Replica) onProgressTimeout() {
	r.progressTimer = nil
	if r.inViewChange {
		return
	}
	if !r.pendingWork() {
		return
	}
	if r.IsPrimary() {
		// The primary cannot depose itself; it simply retries proposing.
		r.tryPropose()
		r.armProgressTimer()
		return
	}
	dbg("%v TIMEOUT view=%d committed=%d fwd=%d", r.env.ID(), r.view, r.committedUpTo, len(r.forwarded))
	r.startViewChange(r.view + 1)
}
