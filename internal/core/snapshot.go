package core

import (
	"fmt"
	"sort"

	"resilientdb/internal/pbft"
	"resilientdb/internal/proto"
	"resilientdb/internal/snapshot"
	"resilientdb/internal/types"
)

// Checkpoint snapshots and snapshot-based state transfer: the bounded-history
// half of the recovery story. At every SnapshotInterval-th round the replica
// serializes its executed kvstore state and builds a signed, content-addressed
// manifest (internal/snapshot); once the round is covered by a stable local
// PBFT checkpoint the snapshot is published — archived durably, announced to
// the fabric (which garbage-collects ledger segments below it), and served to
// peers. A replica whose whole chain sits below its peers' GC horizon cannot
// be served blocks at all; it bootstraps by collecting manifests until f+1
// replicas of one cluster endorse the same content key, fetching the state
// chunks spread across the endorsers, verifying every byte against the
// manifest, and installing: kvstore restore, ledger re-anchor, consensus
// fast-forward. Tampered manifests and chunks are rejected, counted, and
// retried against the next server in the rotation.

// snapChunkWindow bounds in-flight chunk requests during state transfer so a
// large snapshot cannot flood the endorsers' mailboxes.
const snapChunkWindow = 64

// snapMaxBackoff caps the state-transfer retry back-off at
// catchupInterval·2^snapMaxBackoff.
const snapMaxBackoff = 6

// pendingSnap is a captured-but-unpublished snapshot: the manifest and state
// wait for the round to fall under a stable local PBFT checkpoint, the proof
// that 2f+1 replicas durably passed it and history below may be discarded.
type pendingSnap struct {
	m     *snapshot.Manifest
	state []byte
}

// maybeCaptureSnapshot serializes the executed state right after round was
// executed, when round is a snapshot boundary. Capture is cheap relative to
// publication and deliberately eager: the state must be photographed at the
// exact round boundary, while publication (and GC) waits for checkpoint
// stability.
func (r *Replica) maybeCaptureSnapshot(round uint64) {
	iv := r.cfg.SnapshotInterval
	if iv == 0 || round%iv != 0 {
		return
	}
	z := r.cfg.Topo.Clusters
	// The manifest shows the tip block's certificate to whoever installs the
	// snapshot; a replica of the tip's cluster that cannot prove it captures
	// nothing this time (counted), and the other replicas' manifests serve.
	tip := r.ShowBlock(round * uint64(z))
	if tip == nil {
		return
	}
	cert, ok := tip.Cert.(*pbft.Certificate)
	if !ok || cert == nil {
		return
	}
	state := r.store.Serialize()
	m := snapshot.Build(round, z, tip.Prev, cert, r.clusterHistories(round), state)
	m.Sign(r.env.Suite())
	if r.snapPending == nil {
		r.snapPending = make(map[uint64]*pendingSnap)
	}
	r.snapPending[round] = &pendingSnap{m: m, state: state}
	// Bound the pending set: if checkpoint stability lags several snapshot
	// boundaries behind, only the newest captures matter.
	for len(r.snapPending) > 2 {
		oldest := round
		for k := range r.snapPending {
			if k < oldest {
				oldest = k
			}
		}
		delete(r.snapPending, oldest)
	}
}

// onStableCheckpoint publishes every captured snapshot now covered by a
// stable local PBFT checkpoint, oldest first.
func (r *Replica) onStableCheckpoint(seq uint64) {
	var ready []uint64
	for round := range r.snapPending {
		if round <= seq {
			ready = append(ready, round)
		}
	}
	sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })
	for _, round := range ready {
		p := r.snapPending[round]
		delete(r.snapPending, round)
		r.publishSnapshot(p.m, p.state)
	}
}

// publishSnapshot makes a snapshot the replica's serving checkpoint: archive
// it durably, prune the in-memory ledger, and announce it to the fabric for
// segment GC. History is never discarded without a durable replacement: if
// the archive write fails the old snapshot keeps serving and no GC happens.
func (r *Replica) publishSnapshot(m *snapshot.Manifest, state []byte) {
	if r.snapLatest != nil && m.Round <= r.snapLatest.Round {
		return
	}
	if r.cfg.Archive != nil {
		if err := r.cfg.Archive.Put(m, state); err != nil {
			return
		}
	}
	r.snapLatest, r.snapState = m, state
	r.snapRound.Store(m.Round)
	r.snapsWritten.Add(1)
	// Keep one full snapshot interval of blocks in memory behind the
	// checkpoint: slightly-lagging peers still catch up via plain block
	// ranges, only the far-behind fall back to state transfer.
	if keep := r.cfg.SnapshotInterval * uint64(r.cfg.Topo.Clusters); m.Height > keep {
		_ = r.ledger.Prune(m.Height - keep)
	}
	if r.cfg.OnSnapshot != nil {
		r.cfg.OnSnapshot(m)
	}
}

// clusterHistories returns every cluster's pbft commit-history digest folded
// through round, extending the cached folds incrementally (recovery crosses
// many rounds; refolding from round 1 each time would be quadratic).
func (r *Replica) clusterHistories(round uint64) []types.Digest {
	z := uint64(r.cfg.Topo.Clusters)
	if r.hist == nil {
		r.hist = make([]types.Digest, z)
	}
	for s := r.histRound + 1; s <= round; s++ {
		for c := uint64(0); c < z; c++ {
			b := r.ledger.Block((s-1)*z + c + 1)
			if b == nil {
				// Pruned or missing history: serve the fold as far as it got.
				return append([]types.Digest(nil), r.hist...)
			}
			enc := types.NewEncoder(72)
			enc.Digest(r.hist[c])
			enc.Digest(b.BatchDigest)
			r.hist[c] = types.Hash(enc.Bytes())
		}
		r.histRound = s
	}
	return append([]types.Digest(nil), r.hist...)
}

// --- server side -------------------------------------------------------------

// onSnapshotReq serves checkpoint material: the manifest (Chunk < 0) or one
// content-addressed state chunk. The latest snapshot serves from memory;
// older retained rounds fall back to the archive.
func (r *Replica) onSnapshotReq(from types.NodeID, m *SnapshotReq) {
	if from.IsClient() {
		return
	}
	man, state := r.lookupSnapshot(m.Round)
	if man == nil {
		return
	}
	if m.Chunk < 0 {
		r.snapsServed.Add(1)
		r.env.Suite().ChargeMAC()
		r.env.Send(from, &SnapshotResp{Manifest: man, Round: man.Round, Chunk: -1})
		return
	}
	idx := int(m.Chunk)
	if idx >= len(man.Chunks) {
		return
	}
	var data []byte
	switch {
	case state != nil:
		data = man.Chunk(state, idx)
	case r.cfg.Archive != nil:
		d, err := r.cfg.Archive.ReadChunk(man, idx)
		if err != nil {
			return
		}
		data = d
	default:
		return
	}
	r.snapsServed.Add(1)
	r.env.Suite().ChargeMAC()
	r.env.Send(from, &SnapshotResp{Round: man.Round, Chunk: m.Chunk, Data: data})
}

// lookupSnapshot resolves a requested round (0 = newest) to a manifest and,
// when it is the in-memory latest, its state bytes.
func (r *Replica) lookupSnapshot(round uint64) (*snapshot.Manifest, []byte) {
	if r.snapLatest != nil && (round == 0 || round == r.snapLatest.Round) {
		return r.snapLatest, r.snapState
	}
	if r.cfg.Archive != nil {
		if m := r.cfg.Archive.Manifest(round); m != nil {
			return m, nil
		}
	}
	return nil, nil
}

// --- client side: snapshot-based state transfer ------------------------------

// snapSync tracks one in-flight snapshot bootstrap.
type snapSync struct {
	target   uint64                                 // peer ledger base that proved blocks can't reach us
	votes    map[types.Digest]map[types.NodeID]bool // manifest key → endorsing replicas
	byKey    map[types.Digest]*snapshot.Manifest
	manifest *snapshot.Manifest // chosen once the f+1 quorum is met
	servers  []types.NodeID     // the endorsers, chunk requests rotate over them
	chunks   [][]byte
	missing  int
	nextReq  int // next chunk index never requested
	nextSrv  int // rotation cursor over servers
	attempt  int // retry counter driving back-off and peer widening
	timer    proto.Timer
}

// startSnapshotSync begins a snapshot bootstrap after a peer's CatchUpResp
// proved its ledger base is above our whole chain (blocks below it are GC'd
// and can never be served).
func (r *Replica) startSnapshotSync(peerBase uint64) {
	if r.sync != nil || peerBase <= r.ledger.Height() {
		return
	}
	r.sync = &snapSync{
		target: peerBase,
		votes:  make(map[types.Digest]map[types.NodeID]bool),
		byKey:  make(map[types.Digest]*snapshot.Manifest),
	}
	r.requestManifests()
}

// manifestPeers returns who to ask on the given attempt: the local cluster
// first (cheap links), widening by one remote cluster per retry — the
// cross-cluster fallback that keeps state transfer live even when local
// peers are Byzantine, down, or serving tampered snapshots.
func (r *Replica) manifestPeers(attempt int) []types.NodeID {
	peers := make([]types.NodeID, 0, len(r.members))
	for _, p := range r.members {
		if p != r.cfg.Self {
			peers = append(peers, p)
		}
	}
	z := r.cfg.Topo.Clusters
	for i := 1; i <= attempt && i < z; i++ {
		c := (r.myCluster + i) % z
		peers = append(peers, r.cfg.Topo.ClusterMembers(c)...)
	}
	return peers
}

func (r *Replica) requestManifests() {
	s := r.sync
	for _, p := range r.manifestPeers(s.attempt) {
		r.env.Suite().ChargeMAC()
		r.env.Send(p, &SnapshotReq{Round: 0, Chunk: -1})
	}
	r.armSnapTimer()
}

func (r *Replica) armSnapTimer() {
	s := r.sync
	if s.timer != nil {
		s.timer.Stop()
	}
	d := r.catchupInterval()
	for i := 0; i < s.attempt && i < snapMaxBackoff; i++ {
		d *= 2
	}
	s.timer = r.env.SetTimer(d, r.snapTick)
}

// snapTick retries the stalled phase of a state transfer with back-off.
func (r *Replica) snapTick() {
	s := r.sync
	if s == nil {
		return
	}
	s.timer = nil
	if s.manifest == nil && r.ledger.Height() >= s.target {
		// Block catch-up outran the snapshot trigger: no transfer needed.
		r.sync = nil
		return
	}
	s.attempt++
	if s.manifest == nil {
		r.requestManifests() // widens the peer set and re-arms the timer
		return
	}
	r.requestMissingChunks()
	r.armSnapTimer()
}

func (r *Replica) cancelSnapshotSync() {
	if r.sync == nil {
		return
	}
	if r.sync.timer != nil {
		r.sync.timer.Stop()
	}
	r.sync = nil
}

// onSnapshotResp routes one piece of snapshot material from a replica.
func (r *Replica) onSnapshotResp(from types.NodeID, m *SnapshotResp) {
	if m.Manifest != nil && m.Chunk < 0 {
		r.onSnapshotManifest(from, m.Manifest)
		return
	}
	if r.sync != nil {
		r.onSnapshotChunk(from, m)
	}
}

// onSnapshotManifest records one replica's endorsement of a snapshot key and
// enters the chunk phase once f+1 replicas of a single cluster endorse the
// same key — under the ≤f-faults-per-cluster assumption at least one of them
// is honest, so the content addresses can be trusted. The manifest is the
// sender's own and verified (PreVerify), whatever state the transfer is in:
// whether a tampered manifest arrives before or after the honest ones is a
// scheduling accident, and rejection accounting must not depend on it.
func (r *Replica) onSnapshotManifest(from types.NodeID, man *snapshot.Manifest) {
	s := r.sync
	if s == nil {
		return // no transfer in progress: unsolicited, or ours just finished
	}
	if s.manifest != nil {
		return // already in the chunk phase
	}
	if man.Height <= r.ledger.Height() {
		return // stale server: its checkpoint is behind us
	}
	key := man.Key()
	set := s.votes[key]
	if set == nil {
		set = make(map[types.NodeID]bool)
		s.votes[key] = set
		s.byKey[key] = man
	}
	if set[from] {
		return
	}
	set[from] = true

	// Quorum must come from one cluster: f bounds faults per cluster, so f+1
	// mixed-cluster endorsers could all be faulty while f+1 from one cluster
	// cannot.
	perCluster := make(map[types.ClusterID]int)
	quorum := false
	for p := range set {
		c := r.cfg.Topo.ClusterOf(p)
		perCluster[c]++
		if perCluster[c] >= r.cfg.Topo.F()+1 {
			quorum = true
		}
	}
	if !quorum {
		return
	}

	s.manifest = s.byKey[key]
	s.servers = s.servers[:0]
	for p := range set {
		s.servers = append(s.servers, p)
	}
	sort.Slice(s.servers, func(i, j int) bool { return s.servers[i] < s.servers[j] })
	s.chunks = make([][]byte, len(s.manifest.Chunks))
	s.missing = len(s.chunks)
	s.nextReq = 0
	for s.nextReq < len(s.chunks) && s.nextReq < snapChunkWindow {
		r.requestChunk(s.nextReq)
		s.nextReq++
	}
	r.armSnapTimer()
}

// requestChunk asks the next endorser in the rotation for chunk idx.
func (r *Replica) requestChunk(idx int) {
	s := r.sync
	p := s.servers[s.nextSrv%len(s.servers)]
	s.nextSrv++
	r.env.Suite().ChargeMAC()
	r.env.Send(p, &SnapshotReq{Round: s.manifest.Round, Chunk: int32(idx)})
}

// requestMissingChunks re-requests lost chunks (bounded by the window).
func (r *Replica) requestMissingChunks() {
	s := r.sync
	n := 0
	for i, c := range s.chunks {
		if c != nil {
			continue
		}
		r.requestChunk(i)
		if n++; n >= snapChunkWindow {
			return
		}
	}
}

// onSnapshotChunk verifies one state chunk against the accepted manifest's
// content address. A tampered chunk is counted and re-fetched from the next
// server in the rotation — one Byzantine endorser cannot corrupt or stall
// the transfer.
func (r *Replica) onSnapshotChunk(from types.NodeID, m *SnapshotResp) {
	s := r.sync
	if s.manifest == nil || m.Round != s.manifest.Round {
		return
	}
	idx := int(m.Chunk)
	if idx < 0 || idx >= len(s.chunks) || s.chunks[idx] != nil {
		return
	}
	if err := s.manifest.VerifyChunk(idx, m.Data); err != nil {
		r.noteSnapReject()
		r.requestChunk(idx)
		return
	}
	s.chunks[idx] = m.Data
	s.missing--
	if s.nextReq < len(s.chunks) {
		r.requestChunk(s.nextReq)
		s.nextReq++
	}
	if s.missing == 0 {
		r.finishSnapshotSync()
	}
}

// finishSnapshotSync assembles and installs the fully transferred snapshot,
// then immediately pulls the block suffix above it.
func (r *Replica) finishSnapshotSync() {
	s := r.sync
	m := s.manifest
	if r.ledger.Height() >= m.Height {
		// Block catch-up got there first; the transfer is moot.
		r.cancelSnapshotSync()
		return
	}
	state := make([]byte, 0, m.StateLen)
	for _, c := range s.chunks {
		state = append(state, c...)
	}
	r.cancelSnapshotSync()
	if err := m.VerifyState(state); err != nil {
		// Unreachable when every chunk matched its content address; defensive.
		r.noteSnapReject()
		r.scheduleCatchup()
		return
	}
	if err := r.installSnapshot(m, state); err != nil {
		r.noteSnapReject()
		r.scheduleCatchup()
		return
	}
	r.sendCatchUpReq()
	r.scheduleCatchup()
}

// installSnapshot applies a fully verified snapshot: kvstore state, ledger
// anchor, consensus fast-forward, then re-endorses it under our own key so we
// can serve it (and survive a crash) like any self-captured checkpoint.
func (r *Replica) installSnapshot(m *snapshot.Manifest, state []byte) error {
	if err := r.store.Restore(state); err != nil {
		return fmt.Errorf("geobft: snapshot state restore: %w", err)
	}
	tip := m.Tip(r.cfg.Topo.Clusters)
	if err := r.ledger.AnchorSnapshot(m.Height, tip.Hash); err != nil {
		return fmt.Errorf("geobft: snapshot anchor: %w", err)
	}
	if m.Round > r.executedRound.Load() {
		r.executedRound.Store(m.Round)
	}
	if r.localUpTo < m.Round {
		r.localUpTo = m.Round
	}
	for k := range r.rounds {
		if k <= m.Round {
			delete(r.rounds, k)
		}
	}
	r.hist = append([]types.Digest(nil), m.Hist...)
	r.histRound = m.Round
	if r.local.CommittedUpTo() < m.Round {
		r.local.FastForward(m.Round, 0, m.Hist[r.myCluster])
	}
	own := *m
	own.Sign(r.env.Suite())
	if r.cfg.Archive != nil {
		// Best-effort: a failed archive write leaves consensus state intact;
		// this replica just won't survive a crash without re-transferring.
		_ = r.cfg.Archive.Put(&own, state)
	}
	r.snapLatest, r.snapState = &own, state
	r.snapRound.Store(own.Round)
	r.snapsInstalled.Add(1)
	if r.cfg.OnSnapshot != nil {
		r.cfg.OnSnapshot(&own)
	}
	r.gcRemoteState(m.Round)
	r.feedPrimary()
	r.rearmDetection()
	r.tryExecute()
	return nil
}

// InstallArchivedSnapshot restores the replica from its own snapshot archive
// at boot (the crash-with-disk path for a GC'd chain: the retained segments
// start above genesis, so only a snapshot can seat the prefix). The archived
// material is treated as untrusted, exactly like a peer's: full manifest and
// state verification before anything is applied. Returns the installed
// manifest, or nil when the archive holds nothing usable (not an error: an
// empty archive just means block replay must carry the whole way). It must
// run on the replica's event loop, after InitEnv and before any message or
// Bootstrap blocks are processed.
func (r *Replica) InstallArchivedSnapshot(a *snapshot.Archive) (*snapshot.Manifest, error) {
	if a == nil {
		return nil, nil
	}
	m := a.Manifest(0)
	if m == nil {
		return nil, nil
	}
	if err := m.Verify(r.cfg.Topo, r.env.Suite()); err != nil {
		return nil, fmt.Errorf("geobft: archived snapshot: %w", err)
	}
	state, err := a.State(m.Round)
	if err != nil {
		return nil, fmt.Errorf("geobft: archived snapshot state: %w", err)
	}
	if err := m.VerifyState(state); err != nil {
		return nil, fmt.Errorf("geobft: archived snapshot: %w", err)
	}
	if m.Height <= r.ledger.Height() {
		return nil, nil
	}
	if err := r.installSnapshot(m, state); err != nil {
		return nil, err
	}
	return m, nil
}

// noteSnapReject counts one rejected piece of snapshot material into both the
// snapshot counters and the replica-wide verify-reject stream.
func (r *Replica) noteSnapReject() {
	r.snapsRejected.Add(1)
	r.noteReject()
}

// SnapshotsWritten returns how many checkpoints this replica captured and
// published itself. Safe to call while the replica is running.
func (r *Replica) SnapshotsWritten() uint64 { return r.snapsWritten.Load() }

// SnapshotsServed counts manifest and chunk responses served to peers. Safe
// to call while the replica is running.
func (r *Replica) SnapshotsServed() uint64 { return r.snapsServed.Load() }

// SnapshotsInstalled counts snapshots this replica installed from peers or
// its own archive. Safe to call while the replica is running.
func (r *Replica) SnapshotsInstalled() uint64 { return r.snapsInstalled.Load() }

// SnapshotsRejected counts tampered or forged snapshot material discarded
// during verification. Safe to call while the replica is running.
func (r *Replica) SnapshotsRejected() uint64 { return r.snapsRejected.Load() }
