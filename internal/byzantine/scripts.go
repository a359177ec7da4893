package byzantine

import (
	"fmt"
	"strings"
	"sync"

	"resilientdb/internal/config"
	"resilientdb/internal/core"
	"resilientdb/internal/ledger"
	"resilientdb/internal/pbft"
	"resilientdb/internal/snapshot"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
)

// The built-in attack scripts. Each models one class of Byzantine behaviour
// from the BFT literature that crash-fault testing cannot exercise:
//
//   - EquivocatingPrimary: conflicting proposals to disjoint subsets of the
//     cluster (the canonical safety attack on a primary-backup protocol).
//   - DoubleVoter: a coalition member that countersigns the primary's
//     equivocation — only meaningful with > f attackers, which is exactly
//     what the harness's teeth tests use to prove the invariant checks can
//     fail.
//   - ShareForger: garbled commit certificates sent cross-cluster (GeoBFT's
//     global sharing step), forcing the remote view-change path; or, keyed on
//     local recipients, garbled forwards inside the forger's own cluster,
//     where copies are counted rather than verified one by one.
//   - VoteForger: prepare, commit and checkpoint votes with valid routing and
//     garbage signatures — the attack on counting votes by channel
//     authentication and verifying signatures only where a proof is shown.
//   - ViewChangeSpammer: stale and far-future view-change campaigns plus
//     forged remote view-change requests, probing the spam defenses.
//   - CatchupTamperer: tampered and fabricated catch-up responses aimed at a
//     recovering replica (the state-transfer attack surface).
//   - SnapshotTamperer: corrupted checkpoint manifests and state chunks
//     served to a snapshot-bootstrapping replica (the bounded-history attack
//     surface).
//   - Suppressor: selective per-victim message suppression (a "gray"
//     failure: the attacker is alive but starves chosen peers).

// twinBatch derives the deterministic equivocated twin of a batch: same
// client and sequence, different content — so its digest differs and two
// quorums could be driven to conflicting decisions.
func twinBatch(b types.Batch) types.Batch {
	twin := types.Batch{Client: b.Client, Seq: b.Seq, NoOp: b.NoOp}
	if len(b.Txns) == 0 {
		twin.Txns = []types.Transaction{{Key: 0xb1a5ed, Value: b.Seq}}
	} else {
		twin.Txns = make([]types.Transaction, len(b.Txns))
		for i, t := range b.Txns {
			twin.Txns[i] = types.Transaction{Key: t.Key, Value: t.Value ^ 0x5a5a5a5a}
		}
	}
	twin.PrimeDigest()
	return twin
}

// doubleVote rewrites an outbound prepare or commit vote for a forked
// sequence into its twin supporting the fork's digest, signed with the
// adversary's own key. It is shared by EquivocatingPrimary (the forker) and
// DoubleVoter (the coalition member).
func doubleVote(a *Adversary, to types.NodeID, msg types.Message) ([]transport.Delivery, bool) {
	switch m := msg.(type) {
	case *pbft.Prepare:
		fk := a.fleet.fork(forkKey{cluster: a.Cluster(), view: m.View, seq: m.Seq})
		if fk == nil || to != a.DefaultVictim() {
			return nil, false
		}
		a.tampered.Add(1)
		return []transport.Delivery{{To: to, Msg: &pbft.Prepare{
			View: m.View, Seq: m.Seq, Digest: fk.digest, Replica: a.id,
			Sig: a.suite.Sign(pbft.PreparePayload(m.View, m.Seq, fk.digest)),
		}}}, true
	case *pbft.Commit:
		fk := a.fleet.fork(forkKey{cluster: a.Cluster(), view: m.View, seq: m.Seq})
		if fk == nil || to != a.DefaultVictim() {
			return nil, false
		}
		a.tampered.Add(1)
		return []transport.Delivery{{To: to, Msg: &pbft.Commit{
			View: m.View, Seq: m.Seq, Digest: fk.digest, Replica: a.id,
			Sig: a.suite.Sign(pbft.CommitPayload(m.View, m.Seq, fk.digest)),
		}}}, true
	}
	return nil, false
}

// EquivocatingPrimary forks the primary's own proposals: the default victim
// receives a conflicting twin proposal (and twin votes), everyone else the
// real one. With Detector set, one honest replica is deliberately shown both
// proposals — provable equivocation that makes it campaign for a view change,
// so the cluster routes around the attacker (the liveness half of the
// scenario). With exactly f attackers the twin can never gather a quorum and
// safety holds; a coalition of this script plus DoubleVoter on >f replicas
// commits both sides — which is what the harness's teeth test proves it can
// detect.
type EquivocatingPrimary struct {
	// Rounds caps how many sequence numbers are forked (≤ 0: unlimited).
	Rounds int
	// Detector, when set, shows one honest replica both conflicting
	// proposals so the equivocation is provable and triggers a view change.
	Detector bool

	mu     sync.Mutex
	forked int
}

// Name implements Script.
func (s *EquivocatingPrimary) Name() string { return "equivocating-primary" }

// Rewrite implements Script.
func (s *EquivocatingPrimary) Rewrite(a *Adversary, to types.NodeID, msg types.Message) ([]transport.Delivery, bool) {
	if pp, ok := msg.(*pbft.PrePrepare); ok {
		k := forkKey{cluster: a.Cluster(), view: pp.View, seq: pp.Seq}
		fk := a.fleet.fork(k)
		if fk == nil {
			s.mu.Lock()
			capped := s.Rounds > 0 && s.forked >= s.Rounds
			if !capped {
				s.forked++
			}
			s.mu.Unlock()
			if capped {
				return nil, false
			}
			twin := twinBatch(pp.Batch)
			fk = a.fleet.publishFork(k, &fork{digest: twin.Digest(), batch: twin})
			a.forked.Add(1)
		}
		twinPP := &pbft.PrePrepare{View: pp.View, Seq: pp.Seq, Digest: fk.digest, Batch: fk.batch}
		switch {
		case to == a.DefaultVictim():
			return []transport.Delivery{{To: to, Msg: twinPP}}, true
		case s.Detector && to == a.DefaultDetector():
			return []transport.Delivery{{To: to, Msg: pp}, {To: to, Msg: twinPP}}, true
		}
		return nil, false
	}
	return doubleVote(a, to, msg)
}

// DoubleVoter countersigns forks published by an EquivocatingPrimary in its
// cluster: prepares and commits sent to the victim are rewritten to support
// the forked digest. On its own (≤ f attackers) it changes nothing; as part
// of a >f coalition it is what lets both sides of an equivocation commit.
type DoubleVoter struct{}

// Name implements Script.
func (DoubleVoter) Name() string { return "double-voter" }

// Rewrite implements Script.
func (DoubleVoter) Rewrite(a *Adversary, to types.NodeID, msg types.Message) ([]transport.Delivery, bool) {
	return doubleVote(a, to, msg)
}

// ShareForger garbles the commit certificates a primary shares with other
// clusters (GeoBFT's global sharing step): remote replicas must reject every
// forgery — counted as verify-rejects — block on the missing round, and
// depose the forger through the remote view-change protocol. Local traffic
// is untouched, so the forger's own cluster keeps committing: the attack is
// only visible globally, exactly the failure mode Figure 7 exists for.
//
// With Local set the script attacks the other leg of sharing instead: the
// copies of another cluster's certificate the compromised replica forwards to
// members of its own cluster, which count forwards instead of verifying each
// copy. Every forward is garbled, so it races the honest receiver's genuine
// copy of the same round — one variant is the genuine certificate with a
// signature appended, which must not pass for the genuine copy where forwards
// are matched; and with each goes a forgery relabelled to the next
// round, which arrives alone, ahead of any genuine copy. A lone sender is
// below the f+1 matching forwards acceptance takes: no forgery may ever be
// accepted, each one a member ends up verifying for itself must be rejected
// and counted, and every round must still execute on the genuine copy, at
// worst one grace late.
type ShareForger struct {
	// Local selects the forwards inside the replica's own cluster (see the
	// type comment); unset, the shares it sends to other clusters.
	Local bool

	mu    sync.Mutex
	count int
}

// Name implements Script.
func (s *ShareForger) Name() string {
	if s.Local {
		return "forward-forger"
	}
	return "share-forger"
}

// Rewrite implements Script.
func (s *ShareForger) Rewrite(a *Adversary, to types.NodeID, msg types.Message) ([]transport.Delivery, bool) {
	gs, ok := msg.(*core.GlobalShare)
	if !ok || gs.Cert == nil || to.IsClient() || (a.topo.ClusterOf(to) == a.Cluster()) != s.Local {
		return nil, false
	}
	s.mu.Lock()
	n := s.count
	s.count++
	s.mu.Unlock()
	a.tampered.Add(1)
	out := []transport.Delivery{{To: to, Msg: forgeShare(gs, n)}}
	if s.Local {
		a.injected.Add(1)
		ahead := forgeShare(gs, 0) // well formed, so it is held; fails at the first signature
		ahead.Round++
		ahead.Cert.Seq++
		out = append(out, transport.Delivery{To: to, Msg: ahead})
	}
	return out, true
}

// forgeShare builds the n-th deterministic forgery of a certificate share.
// The original message (shared with honest nodes in-process) is never
// mutated; every forgery is a fresh message that must fail certificate
// verification at the receiver — or, for the tampered-batch variant, fail
// the digest binding the way a wire-level tamper would.
func forgeShare(gs *core.GlobalShare, n int) *core.GlobalShare {
	src := gs.Cert
	cert := &pbft.Certificate{
		View: src.View, Seq: src.Seq, Digest: src.Digest, Batch: src.Batch,
		Signers: append([]types.NodeID(nil), src.Signers...),
	}
	cert.Sigs = make([][]byte, len(src.Sigs))
	for i, sig := range src.Sigs {
		cert.Sigs[i] = append([]byte(nil), sig...)
	}
	switch n % 5 {
	case 0: // corrupt one commit signature
		if len(cert.Sigs) > 0 && len(cert.Sigs[0]) > 0 {
			cert.Sigs[0][0] ^= 0xff
		}
	case 1: // duplicate a signer to fake the quorum
		if len(cert.Signers) > 1 {
			cert.Signers[1] = cert.Signers[0]
			cert.Sigs[1] = append([]byte(nil), cert.Sigs[0]...)
		}
	case 2: // drop a signature: signer/signature counts disagree
		if len(cert.Sigs) > 0 {
			cert.Sigs = cert.Sigs[:len(cert.Sigs)-1]
		}
	case 3: // tamper the batch content (fresh struct: digests recompute)
		tampered := types.Batch{Client: src.Batch.Client, Seq: src.Batch.Seq, NoOp: src.Batch.NoOp,
			Txns: append([]types.Transaction(nil), src.Batch.Txns...)}
		if len(tampered.Txns) > 0 {
			tampered.Txns[0].Value ^= 0xbad
		} else {
			tampered.Txns = []types.Transaction{{Key: 1, Value: 0xbad}}
		}
		cert.Batch = tampered
	case 4: // append a signature: every genuine byte, and one signature too many
		if len(cert.Sigs) > 0 {
			cert.Sigs = append(cert.Sigs, append([]byte(nil), cert.Sigs[0]...))
		}
	}
	return &core.GlobalShare{Cluster: gs.Cluster, Round: gs.Round, Cert: cert}
}

// VoteForger signs garbage. Every prepare, commit and checkpoint vote the
// compromised replica sends keeps its routing — the right view, sequence and
// digest, the replica's own identity, a channel that authenticates it — and
// carries a signature that verifies under no key. Honest replicas count such
// a vote (the channel vouches for its sender) and must find it out wherever a
// proof built from it would be shown: the primary before it shares a
// certificate, a backup before it serves a block or persists one, every
// campaigner before its view-change message. The bad votes are dropped and
// counted (Stats().Crypto.BadVoteSigs), commits continue, and no honest
// replica ever sends a certificate that fails verification. As a backup the
// script is the whole attack. As a primary, WithholdShares and SilentAfter add
// the rest of the worst case: the other clusters get nothing, the cluster
// must depose the primary through campaigns whose retained vote sets hold its
// garbage, and the new primary must still reshare every withheld round.
type VoteForger struct {
	// WithholdShares also suppresses the certificate shares the replica owes
	// other clusters while it is primary.
	WithholdShares bool
	// SilentAfter, when positive, makes the replica fall silent — every
	// message to another replica suppressed — once it has forged that many
	// votes.
	SilentAfter int

	mu     sync.Mutex
	forged int
}

// Name implements Script.
func (s *VoteForger) Name() string { return "vote-forger" }

// Rewrite implements Script.
func (s *VoteForger) Rewrite(a *Adversary, to types.NodeID, msg types.Message) ([]transport.Delivery, bool) {
	if to.IsClient() {
		return nil, false
	}
	vote := forgeVote(msg)
	s.mu.Lock()
	silent := s.SilentAfter > 0 && s.forged >= s.SilentAfter
	if vote != nil && !silent {
		s.forged++
	}
	s.mu.Unlock()
	switch {
	case silent:
		a.suppressed.Add(1)
		return nil, true
	case vote != nil:
		a.tampered.Add(1)
		return []transport.Delivery{{To: to, Msg: vote}}, true
	}
	if _, isShare := msg.(*core.GlobalShare); isShare && s.WithholdShares && a.topo.ClusterOf(to) != a.Cluster() {
		a.suppressed.Add(1)
		return nil, true
	}
	return nil, false
}

// forgeVote returns a copy of a prepare, commit or checkpoint vote with its
// signature garbled (the original is shared with the other recipients), or
// nil for any other message.
func forgeVote(msg types.Message) types.Message {
	garble := func(sig []byte) []byte {
		out := append([]byte(nil), sig...)
		if len(out) == 0 {
			return []byte("forged")
		}
		out[0] ^= 0xff
		return out
	}
	switch m := msg.(type) {
	case *pbft.Prepare:
		c := *m
		c.Sig = garble(m.Sig)
		return &c
	case *pbft.Commit:
		c := *m
		c.Sig = garble(m.Sig)
		return &c
	case *pbft.Checkpoint:
		c := *m
		c.Sig = garble(m.Sig)
		return &c
	}
	return nil
}

// ViewChangeSpammer rides on the compromised replica's normal traffic: every
// Every-th outbound message also carries protocol-shaped spam — far-future
// view-change campaigns (validly signed, probing the vcStore per-sender
// bound), forged view-change signatures, and forged or stale remote
// view-change requests to other clusters. None of it may move any honest
// view, and every forged piece must be counted as a verify-reject.
type ViewChangeSpammer struct {
	// Every paces the spam: one burst per Every intercepted sends (≤ 0: 8).
	Every int

	mu   sync.Mutex
	seen int
	wave uint64
}

// Name implements Script.
func (s *ViewChangeSpammer) Name() string { return "view-change-spammer" }

// Rewrite implements Script.
func (s *ViewChangeSpammer) Rewrite(a *Adversary, to types.NodeID, msg types.Message) ([]transport.Delivery, bool) {
	if to.IsClient() {
		return nil, false
	}
	every := s.Every
	if every <= 0 {
		every = 8
	}
	s.mu.Lock()
	s.seen++
	fire := s.seen%every == 0
	wave := s.wave
	if fire {
		s.wave++
	}
	s.mu.Unlock()
	if !fire {
		return nil, false
	}
	out := []transport.Delivery{{To: to, Msg: msg}} // the real message still flows
	if a.topo.ClusterOf(to) == a.Cluster() {
		// Far-future campaign, validly signed: the receiver must keep at
		// most one stored campaign for us no matter how many we send.
		far := &pbft.ViewChange{NewView: 1<<20 + wave, Replica: a.id}
		far.Sig = a.suite.Sign(pbft.ViewChangePayload(far))
		// Near-view campaign with a forged signature: must hit the
		// signature check.
		forged := &pbft.ViewChange{NewView: 2 + wave%32, Replica: a.id, Sig: []byte("forged")}
		out = append(out, transport.Delivery{To: to, Msg: far}, transport.Delivery{To: to, Msg: forged})
		a.spammed.Add(2)
	} else {
		// Forged remote view-change request against the recipient's cluster…
		forged := &core.Rvc{Target: a.topo.ClusterOf(to), From: a.Cluster(),
			Round: 1 + wave, V: wave, Replica: a.id, Sig: []byte("forged")}
		// …and a stale, validly signed replay of the same request (V never
		// advances), which must be deduplicated, never accumulate votes.
		stale := &core.Rvc{Target: a.topo.ClusterOf(to), From: a.Cluster(),
			Round: 1, V: 0, Replica: a.id}
		stale.Sig = a.suite.Sign(core.RvcPayload(stale))
		out = append(out, transport.Delivery{To: to, Msg: forged}, transport.Delivery{To: to, Msg: stale})
		a.spammed.Add(2)
	}
	return out, true
}

// CatchupTamperer attacks ledger state transfer: real catch-up responses the
// replica serves are forwarded with deterministically garbled content
// (corrupted certificate, swapped blocks, tampered batch, broken linkage),
// and forged responses claiming a fabricated chain are injected at a chosen
// recovering victim. Every variant must be rejected atomically — the
// victim's ledger untouched, the rejection counted — and the victim must
// still converge through honest peers.
type CatchupTamperer struct {
	// Victim receives the injected forged responses. types.NoNode selects
	// the adversary's DefaultVictim.
	Victim types.NodeID
	// Inject caps the fabricated responses (≤ 0: 64).
	Inject int

	mu       sync.Mutex
	count    int
	injected int
}

// Name implements Script.
func (s *CatchupTamperer) Name() string { return "catchup-tamperer" }

// victim resolves the configured victim.
func (s *CatchupTamperer) victim(a *Adversary) types.NodeID {
	if s.Victim == types.NoNode {
		return a.DefaultVictim()
	}
	return s.Victim
}

// Rewrite implements Script.
func (s *CatchupTamperer) Rewrite(a *Adversary, to types.NodeID, msg types.Message) ([]transport.Delivery, bool) {
	if resp, ok := msg.(*core.CatchUpResp); ok && len(resp.Blocks) > 0 {
		s.mu.Lock()
		n := s.count
		s.count++
		s.mu.Unlock()
		a.tampered.Add(1)
		return []transport.Delivery{{To: to, Msg: tamperResp(resp, n)}}, true
	}
	if to.IsClient() {
		return nil, false
	}
	limit := s.Inject
	if limit <= 0 {
		limit = 64
	}
	s.mu.Lock()
	inject := s.injected < limit
	if inject {
		s.injected++
	}
	s.mu.Unlock()
	if !inject {
		return nil, false
	}
	a.injected.Add(1)
	return []transport.Delivery{
		{To: to, Msg: msg}, // the real message still flows
		{To: s.victim(a), Msg: forgedResp(a)},
	}, true
}

// tamperResp builds the n-th deterministic corruption of a real catch-up
// response without mutating the original (its blocks are shared with the
// sender's own ledger).
func tamperResp(resp *core.CatchUpResp, n int) *core.CatchUpResp {
	blocks := make([]*ledger.Block, len(resp.Blocks))
	for i, b := range resp.Blocks {
		nb := *b
		blocks[i] = &nb
	}
	switch n % 4 {
	case 0: // corrupt the first block's certificate
		if cert, ok := blocks[0].Cert.(*pbft.Certificate); ok {
			forged := *cert
			forged.Sigs = make([][]byte, len(cert.Sigs))
			for i, sig := range cert.Sigs {
				forged.Sigs[i] = append([]byte(nil), sig...)
			}
			if len(forged.Sigs) > 0 && len(forged.Sigs[0]) > 0 {
				forged.Sigs[0][0] ^= 0xff
			}
			blocks[0].Cert = &forged
		}
	case 1: // swap two adjacent blocks (reorders history)
		if len(blocks) > 1 {
			blocks[0], blocks[1] = blocks[1], blocks[0]
		}
	case 2: // tamper a batch (fresh struct: digest binding must catch it)
		b := blocks[len(blocks)/2]
		tampered := types.Batch{Client: b.Batch.Client, Seq: b.Batch.Seq, NoOp: b.Batch.NoOp,
			Txns: append([]types.Transaction(nil), b.Batch.Txns...)}
		if len(tampered.Txns) > 0 {
			tampered.Txns[0].Value ^= 0xbad
		} else {
			tampered.Txns = []types.Transaction{{Key: 2, Value: 0xbad}}
		}
		b.Batch = tampered
	case 3: // break the hash-chain linkage mid-range
		blocks[len(blocks)/2].Prev[0] ^= 0xff
	}
	return &core.CatchUpResp{Blocks: blocks, Height: resp.Height}
}

// forgedResp fabricates a catch-up response from nothing: a well-formed,
// correctly linked chain of z·2 blocks whose certificates are pure garbage.
// A recovering victim at height zero will attempt the import and must reject
// it at certificate re-verification (the linkage is deliberately sealed so
// the deeper check is the one exercised).
func forgedResp(a *Adversary) *core.CatchUpResp {
	z := a.topo.Clusters
	members := a.topo.ClusterMembers(int(a.Cluster()))
	quorum := len(members) - a.topo.F()
	var blocks []*ledger.Block
	var prev types.Digest
	for h := uint64(1); h <= uint64(2*z); h++ {
		batch := types.Batch{Client: types.ClientIDBase, Seq: h,
			Txns: []types.Transaction{{Key: h, Value: 0xbad}}}
		batch.PrimeDigest()
		cert := &pbft.Certificate{
			View: 0, Seq: (h-1)/uint64(z) + 1, Digest: batch.Digest(), Batch: batch,
			Signers: append([]types.NodeID(nil), members[:quorum]...),
		}
		for range cert.Signers {
			cert.Sigs = append(cert.Sigs, []byte("forged"))
		}
		b := &ledger.Block{
			Height:      h,
			Round:       (h-1)/uint64(z) + 1,
			Cluster:     types.ClusterID((h - 1) % uint64(z)),
			Batch:       batch,
			BatchDigest: batch.Digest(),
			CertDigest:  cert.CertDigest(),
			Cert:        cert,
		}
		b.Seal(prev)
		prev = b.Hash
		blocks = append(blocks, b)
	}
	return &core.CatchUpResp{Blocks: blocks, Height: uint64(2 * z)}
}

// SnapshotTamperer attacks snapshot-based state transfer: every snapshot
// response the compromised replica serves is replaced by a deterministically
// corrupted variant — a garbled endorsement signature, a wrong state hash, a
// forged commit certificate, or tampered chunk bytes. Where the corruption
// leaves the manifest signable, it is re-signed with the compromised
// replica's own key (exactly the power a Byzantine replica has), so the
// deeper check — certificate verification, the f+1 matching-key quorum, the
// chunk content address — is the one exercised rather than the outer
// signature. A joining replica must never install any of it: verifiable
// forgeries are rejected and counted, key-diverging manifests starve the
// quorum, and the joiner converges through honest peers.
type SnapshotTamperer struct {
	mu     sync.Mutex
	mans   int
	chunks int
}

// Name implements Script.
func (s *SnapshotTamperer) Name() string { return "snapshot-tamperer" }

// Rewrite implements Script.
func (s *SnapshotTamperer) Rewrite(a *Adversary, to types.NodeID, msg types.Message) ([]transport.Delivery, bool) {
	resp, ok := msg.(*core.SnapshotResp)
	if !ok {
		return nil, false
	}
	if resp.Manifest != nil {
		s.mu.Lock()
		n := s.mans
		s.mans++
		s.mu.Unlock()
		a.tampered.Add(1)
		return []transport.Delivery{{To: to, Msg: &core.SnapshotResp{
			Manifest: tamperManifest(a, resp.Manifest, n),
			Round:    resp.Round,
			Chunk:    resp.Chunk,
		}}}, true
	}
	if len(resp.Data) == 0 {
		return nil, false
	}
	s.mu.Lock()
	n := s.chunks
	s.chunks++
	s.mu.Unlock()
	a.tampered.Add(1)
	data := append([]byte(nil), resp.Data...)
	if n%2 == 0 {
		data[0] ^= 0xff // wrong bytes, right length: content address must catch it
	} else {
		data = data[:len(data)-1] // truncated: length check must catch it
	}
	return []transport.Delivery{{To: to, Msg: &core.SnapshotResp{
		Round: resp.Round, Chunk: resp.Chunk, Data: data,
	}}}, true
}

// tamperManifest builds the n-th deterministic manifest forgery without
// mutating the original (it is shared with the sender's own snapshot state).
func tamperManifest(a *Adversary, m *snapshot.Manifest, n int) *snapshot.Manifest {
	forged := *m
	forged.Chunks = append([]types.Digest(nil), m.Chunks...)
	forged.Hist = append([]types.Digest(nil), m.Hist...)
	forged.Sig = append([]byte(nil), m.Sig...)
	switch n % 4 {
	case 0: // garble the endorsement signature
		if len(forged.Sig) > 0 {
			forged.Sig[0] ^= 0xff
		} else {
			forged.Sig = []byte("forged")
		}
	case 1: // claim a different state, validly re-signed: key diverges
		forged.StateHash[0] ^= 0xff
		forged.Sign(a.suite)
	case 2: // forge the commit certificate behind the checkpoint
		if m.Cert != nil {
			cert := *m.Cert
			cert.Signers = append([]types.NodeID(nil), m.Cert.Signers...)
			cert.Sigs = make([][]byte, len(m.Cert.Sigs))
			for i, sig := range m.Cert.Sigs {
				cert.Sigs[i] = append([]byte(nil), sig...)
			}
			if len(cert.Sigs) > 0 && len(cert.Sigs[0]) > 0 {
				cert.Sigs[0][0] ^= 0xff
			}
			forged.Cert = &cert
		}
		forged.Sign(a.suite)
	case 3: // rewrite one cluster's commit history, validly re-signed
		if len(forged.Hist) > 0 {
			forged.Hist[0][0] ^= 0xff
		}
		forged.Sign(a.suite)
	}
	return &forged
}

// Suppressor silently drops the compromised replica's messages to the
// configured victims — selective starvation, the "gray failure" where a
// Byzantine replica is responsive to everyone except its targets. Types,
// when non-empty, restricts suppression to the listed message type tags.
type Suppressor struct {
	// Victims are the starved recipients; a types.NoNode entry selects the
	// adversary's DefaultVictim at interception time.
	Victims []types.NodeID
	// Types restricts suppression to these MsgType tags (empty: all).
	Types []string

	once sync.Once
	set  map[string]bool
}

// Name implements Script.
func (s *Suppressor) Name() string { return "suppressor" }

// Rewrite implements Script.
func (s *Suppressor) Rewrite(a *Adversary, to types.NodeID, msg types.Message) ([]transport.Delivery, bool) {
	s.once.Do(func() {
		s.set = make(map[string]bool, len(s.Types))
		for _, t := range s.Types {
			s.set[t] = true
		}
	})
	for _, v := range s.Victims {
		if v == types.NoNode {
			v = a.DefaultVictim()
		}
		if v == to {
			if len(s.set) > 0 && !s.set[msg.MsgType()] {
				return nil, false
			}
			a.suppressed.Add(1)
			return nil, true
		}
	}
	return nil, false
}

// Compose chains scripts: the first script that intercepts a message handles
// it; later scripts never see it. Use it to combine, say, a spammer with a
// suppressor on one compromised replica.
func Compose(scripts ...Script) Script { return composite(scripts) }

// composite is the Script built by Compose.
type composite []Script

// Name implements Script.
func (c composite) Name() string {
	names := make([]string, len(c))
	for i, s := range c {
		names[i] = s.Name()
	}
	return strings.Join(names, "+")
}

// Rewrite implements Script.
func (c composite) Rewrite(a *Adversary, to types.NodeID, msg types.Message) ([]transport.Delivery, bool) {
	for _, s := range c {
		if ds, ok := s.Rewrite(a, to, msg); ok {
			return ds, true
		}
	}
	return nil, false
}

// ScriptByName builds a named built-in script for the given compromised
// replica — the command-line entry point (cmd/resilientdb -adversary).
// Recognized names: "equivocate", "forge-shares", "forge-votes", "vc-spam",
// "tamper-catchup", "tamper-snapshots", "suppress".
func ScriptByName(name string, topo config.Topology, self types.NodeID) (Script, error) {
	switch name {
	case "equivocate":
		return &EquivocatingPrimary{Rounds: 8, Detector: true}, nil
	case "forge-shares":
		return &ShareForger{}, nil
	case "forge-votes":
		return &VoteForger{}, nil
	case "vc-spam":
		return &ViewChangeSpammer{}, nil
	case "tamper-catchup":
		return &CatchupTamperer{Victim: types.NoNode}, nil
	case "tamper-snapshots":
		return &SnapshotTamperer{}, nil
	case "suppress":
		return &Suppressor{Victims: []types.NodeID{types.NoNode}}, nil
	}
	return nil, fmt.Errorf("byzantine: unknown adversary script %q (want equivocate, forge-shares, forge-votes, vc-spam, tamper-catchup, tamper-snapshots, or suppress)", name)
}
