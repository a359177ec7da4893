package core

import (
	"slices"
	"time"

	"resilientdb/internal/ledger"
	"resilientdb/internal/pbft"
	"resilientdb/internal/types"
)

// Ledger catch-up: the recovery half of the paper's resilience story
// (Section 3). A replica that detects a gap between its executed prefix and
// the rounds its cluster — or the other clusters — provably reached asks a
// peer for certified block ranges (CatchUpReq/CatchUpResp), re-verifies
// every commit certificate against the origin cluster's membership, replays
// the blocks into its store and ledger, and fast-forwards its local PBFT
// instance past the decided prefix. This is what lets a crashed or
// late-joining replica converge to the live height instead of being stuck
// behind its cluster's garbage-collection windows forever.

// catchupBatch bounds how many blocks one CatchUpResp carries; a lagging
// replica pulls ranges repeatedly until the gap closes.
const catchupBatch = 64

// catchupParallel is how many peers a wide gap is pulled from concurrently,
// each serving a staggered range; responses arriving out of order wait in a
// small stash until the gap below them fills.
const catchupParallel = 3

// catchupStashMax bounds the out-of-order stash (ranges, not blocks).
const catchupStashMax = 8

// catchupMaxBackoff caps the no-progress retry back-off at
// catchupInterval·2^catchupMaxBackoff.
const catchupMaxBackoff = 6

// catchupInterval paces the gap-supervision timer.
func (r *Replica) catchupInterval() time.Duration {
	d := r.cfg.RemoteTimeout / 4
	if d < 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	return d
}

// scheduleCatchup arms the catch-up supervision timer (idempotent). It is
// called whenever evidence of lagging appears: a certified round beyond the
// next executable one (onGlobalShare), or f+1 local checkpoints ahead of our
// commit point (the local PBFT's Behind hook).
func (r *Replica) scheduleCatchup() {
	if r.catchupTimer != nil {
		return
	}
	d := r.catchupInterval()
	for i := uint(0); i < r.cuFails && i < catchupMaxBackoff; i++ {
		d *= 2
	}
	r.cuArmedRound = r.executedRound.Load()
	r.catchupTimer = r.env.SetTimer(d, r.catchupTick)
}

func (r *Replica) catchupTick() {
	r.catchupTimer = nil
	if !r.catchupGap() {
		r.cuFails = 0
		return
	}
	// Certified rounds beyond the next executable one are also what ordinary
	// pipelining looks like. A replica whose execution advanced while the
	// timer ran is being served by the live protocol: keep supervising, pull
	// nothing. Only a stall, or proof that the cluster checkpointed past our
	// commit point, is worth a peer's ledger.
	if r.executedRound.Load() > r.cuArmedRound && r.behindSeq <= r.local.CommittedUpTo() {
		r.cuFails = 0
		r.scheduleCatchup()
		return
	}
	// Back off when ticks stop making progress (the reachable peers are dead,
	// suppressed, or as far behind as we are); any height gain resets it.
	if h := r.ledger.Height(); h > r.cuLastHeight {
		r.cuFails = 0
		r.cuLastHeight = h
	} else {
		r.cuFails++
	}
	if r.sync == nil {
		r.sendCatchUpReq()
	}
	r.scheduleCatchup()
}

// catchupGap reports whether there is still evidence of being behind. Rounds
// beyond the blocking one also accumulate under normal pipelining; catchupTick
// tells the two apart by whether execution is advancing.
func (r *Replica) catchupGap() bool {
	next := r.executedRound.Load() + 1
	for rnd := range r.rounds {
		if rnd > next {
			return true
		}
	}
	// Blocked on our own cluster's certificate for the next round while
	// another cluster already certified it, and our local PBFT has not
	// committed it: a recovering replica that rejoined mid-view cannot
	// produce that certificate itself, so only a peer's ledger can unblock
	// it. (A healthy replica matches this transiently while its commit is in
	// flight; the pull then finds no longer ledger and is a no-op.)
	if rd := r.rounds[next]; rd != nil && rd.certs[r.myCluster] == nil && r.local.CommittedUpTo() < next {
		return true
	}
	return r.behindSeq > r.local.CommittedUpTo()
}

// catchupPeers returns the next k peers of the rotation: own-cluster members
// first (intra-cluster links are the cheap ones), then every other cluster's
// replicas, so a dead or suppressed local peer costs one missed slot and the
// rotation moves past it to a different server — eventually any correct
// replica of any cluster. The cursor advances one slot per call.
func (r *Replica) catchupPeers(k int) []types.NodeID {
	if r.cuOrder == nil {
		for _, p := range r.members {
			if p != r.cfg.Self {
				r.cuOrder = append(r.cuOrder, p)
			}
		}
		for c := 0; c < r.cfg.Topo.Clusters; c++ {
			if c != r.myCluster {
				r.cuOrder = append(r.cuOrder, r.cfg.Topo.ClusterMembers(c)...)
			}
		}
	}
	n := len(r.cuOrder)
	if n == 0 {
		return nil
	}
	if k > n {
		k = n
	}
	peers := make([]types.NodeID, 0, k)
	for i := 0; i < k; i++ {
		peers = append(peers, r.cuOrder[(r.cuNext+i)%n])
	}
	r.cuNext = (r.cuNext + 1) % n
	return peers
}

// sendCatchUpReq pulls missing blocks from the rotating peer set. A wide gap
// (more than one batch of provably certified blocks) fans out to
// catchupParallel peers with staggered ranges; narrow gaps ask one peer.
func (r *Replica) sendCatchUpReq() {
	h := r.ledger.Height()
	fan := 1
	if certified := r.evidencedRound * uint64(r.cfg.Topo.Clusters); certified > h+catchupBatch {
		fan = catchupParallel
	}
	for i, p := range r.catchupPeers(fan) {
		r.env.Suite().ChargeMAC()
		r.env.Send(p, &CatchUpReq{NextHeight: h + 1 + uint64(i)*catchupBatch})
	}
}

func (r *Replica) onCatchUpReq(from types.NodeID, m *CatchUpReq) {
	if from.IsClient() {
		return
	}
	// The response is cut at the first block of our own cluster we cannot
	// prove: the requester's rotation moves on to peers that can, and to the
	// other clusters, which verified that certificate when it was shared.
	blocks := r.ledger.Export(m.NextHeight, catchupBatch) // a fresh slice: ours to edit
	for i, b := range blocks {
		if blocks[i] = r.showBlock(b); blocks[i] == nil {
			blocks = blocks[:i]
			break
		}
	}
	blocks = trimToRoundBoundary(blocks, r.cfg.Topo.Clusters)
	if len(blocks) == 0 && m.NextHeight > r.ledger.Base() {
		return // nothing useful: the requester is at or past our suffix
	}
	// An empty response still goes out when the requested height sits at or
	// below our GC base: Base is how the requester learns that blocks cannot
	// reach it and a snapshot bootstrap is required.
	r.env.Suite().ChargeMAC()
	r.env.Send(from, &CatchUpResp{Blocks: blocks, Height: r.ledger.Height(), Base: r.ledger.Base()})
}

// onCatchUpResp applies a replica's block range, every block of which
// PreVerify checked.
func (r *Replica) onCatchUpResp(m *CatchUpResp) {
	if m.Base > r.ledger.Height() {
		// The peer garbage-collected past our whole chain: no block range can
		// ever connect to our head — bootstrap from a verified snapshot.
		r.startSnapshotSync(m.Base)
		return
	}
	blocks := trimToRoundBoundary(m.Blocks, r.cfg.Topo.Clusters)
	if len(blocks) == 0 {
		return
	}
	r.stashRange(blocks)
	r.drainStash()
	if m.Height > r.ledger.Height() && r.sync == nil {
		// The peer holds more: pull the next range immediately instead of
		// waiting out a timer tick.
		r.sendCatchUpReq()
	}
	r.scheduleCatchup()
}

// stashRange parks a received range for ordered application: parallel
// staggered fetches legitimately return out of order, so a range starting
// past our next height waits until the gap below it fills.
func (r *Replica) stashRange(blocks []*ledger.Block) {
	first := blocks[0].Height
	if r.cuStash == nil {
		r.cuStash = make(map[uint64][]*ledger.Block)
	}
	if _, ok := r.cuStash[first]; !ok && len(r.cuStash) >= catchupStashMax {
		return // full: drop, the next tick re-pulls
	}
	if old, ok := r.cuStash[first]; !ok || len(blocks) > len(old) {
		r.cuStash[first] = blocks
	}
}

// drainStash applies every stashed range that now connects to the chain head,
// lowest first, repeating until no range fits (each application may unblock
// another). The order is the ranges', never the map's: which range lands
// decides what is verified and executed when.
func (r *Replica) drainStash() {
	for {
		applied := false
		firsts := make([]uint64, 0, len(r.cuStash))
		for first := range r.cuStash {
			firsts = append(firsts, first)
		}
		slices.Sort(firsts)
		for _, first := range firsts {
			rng := r.cuStash[first]
			h := r.ledger.Height()
			last := first + uint64(len(rng)) - 1
			if last <= h {
				delete(r.cuStash, first)
				continue // wholly delivered by another range
			}
			if first > h+1 {
				continue // still a gap below it
			}
			delete(r.cuStash, first)
			// Skip the prefix another range already delivered.
			if err := r.applyImportedBlocks(rng[h+1-first:], true); err != nil {
				// A range that does not extend the chain (its certificates
				// verified, its linkage did not): the ledger is untouched and
				// the next tick retries another peer. Counted — a tampered
				// catch-up response must land in the drop statistics.
				r.noteReject()
			} else {
				applied = true
			}
		}
		if !applied {
			return
		}
	}
}

// Bootstrap replays a previously persisted ledger into a freshly initialized
// replica, modelling a crash-with-disk restart (as opposed to an amnesia
// restart, which starts empty and recovers over the network). The persisted
// copy is treated as untrusted, exactly like a peer's: every certificate is
// re-verified (verifyBlock, as PreVerify checks a peer's range) and the hash
// chain re-derived. It must run on the replica's event loop, after InitEnv
// and before any message is processed.
func (r *Replica) Bootstrap(blocks []*ledger.Block) error {
	blocks = trimToRoundBoundary(blocks, r.cfg.Topo.Clusters)
	for _, b := range blocks {
		if err := r.verifyBlock(r.env.Suite(), b); err != nil {
			return err
		}
	}
	return r.applyImportedBlocks(blocks, false)
}

// trimToRoundBoundary cuts a block range back to the last complete round:
// execution appends exactly z blocks per round, so a ledger must only ever
// grow in whole rounds to keep height↔round alignment.
func trimToRoundBoundary(blocks []*ledger.Block, z int) []*ledger.Block {
	for len(blocks) > 0 {
		last := blocks[len(blocks)-1]
		if last != nil && last.Height%uint64(z) == 0 {
			break
		}
		blocks = blocks[:len(blocks)-1]
	}
	return blocks
}

// applyImportedBlocks executes a block range whose every block verifyBlock
// accepted: ledger import (atomic; it checks the hash-chain linkage), store
// replay, execution bookkeeping, and the local-PBFT fast-forward. notify
// controls the OnExecute upcall: network catch-up fires it (the replica is
// executing these batches for the first time), a disk bootstrap does not (it
// already observed them before the crash).
func (r *Replica) applyImportedBlocks(blocks []*ledger.Block, notify bool) error {
	if len(blocks) == 0 {
		return nil
	}
	if err := r.ledger.Import(blocks, nil); err != nil {
		return err
	}
	if notify {
		r.catchupBlocks.Add(uint64(len(blocks)))
	}
	maxView := uint64(0)
	for _, b := range blocks {
		r.env.Suite().ChargeExec(b.Batch.Len())
		batch := b.Batch
		r.store.ApplyBatch(&batch)
		if int(b.Cluster) == r.myCluster {
			if c, ok := b.Cert.(*pbft.Certificate); ok && c.View > maxView {
				maxView = c.View
			}
			if !b.Batch.NoOp {
				r.local.NoteExecuted(b.Batch.Client, b.Batch.Seq)
			}
		}
		if notify && r.cfg.OnExecute != nil {
			r.cfg.OnExecute(b.Round, b.Cluster, b.Batch)
		}
		if b.Batch.NoOp {
			r.execNoOps.Add(1)
			continue
		}
		r.execBatches.Add(1)
		r.execTxns.Add(uint64(b.Batch.Len()))
	}
	// One hand-off for the range and whatever OnExecute asked to run once it
	// is durable.
	r.ledger.Handoff()

	newRound := r.ledger.Height() / uint64(r.cfg.Topo.Clusters)
	if newRound > r.executedRound.Load() {
		r.executedRound.Store(newRound)
	}
	if r.localUpTo < newRound {
		r.localUpTo = newRound
	}
	for k := range r.rounds {
		if k <= newRound {
			delete(r.rounds, k)
		}
	}
	if r.local.CommittedUpTo() < newRound {
		// Local round ρ is local PBFT sequence ρ; rebuild the history digest
		// chain from our own cluster's batch digests so future checkpoints
		// match the cluster's.
		r.local.FastForward(newRound, maxView, r.localHistory(newRound))
	}
	r.gcRemoteState(newRound)
	r.feedPrimary()
	r.rearmDetection()
	r.tryExecute() // live rounds beyond the imported range may now be complete
	return nil
}

// localHistory folds the local PBFT history digest chain over this cluster's
// blocks up to local sequence seq, matching what pbft.advanceCommitted would
// have computed had the replica committed them live (the fold is cached and
// extended incrementally via clusterHistories: recovery imports a long chain
// in many chunks, and restarting from sequence 1 each time would be
// quadratic).
func (r *Replica) localHistory(seq uint64) types.Digest {
	return r.clusterHistories(seq)[r.myCluster]
}

// certAt returns the commit certificate for (round, cluster) in a form this
// replica may send: from the in-flight round state, or — for executed rounds
// — from the ledger, which retains the full chain, so a lagging peer's DRvc
// can be answered for any executed round. Another cluster's certificate was
// verified, or vouched for by f+1 members (vouch.go), when it was accepted;
// our own is proven first (provenOwn), and nil is returned when it cannot be.
func (r *Replica) certAt(rnd uint64, cluster types.ClusterID) *pbft.Certificate {
	var held *pbft.Certificate
	if rd := r.rounds[rnd]; rd != nil && rd.certs[cluster] != nil {
		held = rd.certs[cluster]
	} else if rnd >= 1 && rnd <= r.executedRound.Load() {
		h := (rnd-1)*uint64(r.cfg.Topo.Clusters) + uint64(cluster) + 1
		if b := r.ledger.Block(h); b != nil {
			held, _ = b.Cert.(*pbft.Certificate)
		}
	}
	if int(cluster) == r.myCluster {
		return r.provenOwn(rnd, held)
	}
	return held
}
