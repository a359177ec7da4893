package pbft

import (
	"bytes"
	"sort"

	"resilientdb/internal/types"
)

// startViewChange abandons the current view and campaigns for view v.
func (r *Replica) startViewChange(v uint64) {
	if v <= r.view {
		return
	}
	if r.inViewChange && v <= r.targetView {
		return
	}
	r.inViewChange = true
	r.targetView = v
	r.vcAttempts++
	if r.progressTimer != nil {
		r.progressTimer.Stop()
		r.progressTimer = nil
	}

	vc := r.buildViewChange(v)
	r.broadcast(vc)
	r.storeViewChange(vc)

	// If view v never installs (its primary may be faulty too), escalate.
	target := v
	r.env.SetTimer(r.timeout(), func() {
		if r.inViewChange && r.targetView == target {
			r.startViewChange(target + 1)
		}
	})
	r.maybeBuildNewView(v)
}

// ForceViewChange deposes the current primary. GeoBFT's remote view-change
// protocol invokes this once f+1 signed Rvc messages from another cluster
// prove the primary failed to share its certificates (paper Figure 7,
// response role).
func (r *Replica) ForceViewChange() {
	if !r.inViewChange {
		r.startViewChange(r.view + 1)
	}
}

// buildViewChange assembles this replica's campaign for view v. Everything
// it shows — the stable checkpoint's votes, each prepared claim's prepare
// votes or commit certificate — was counted on channel authentication when
// it arrived, and validateViewChange at the receivers discards the whole
// message if one signature in it is bad. So the proofs are chosen here: n−f
// signatures that verify, out of all the votes retained. Where the retained
// votes fall short the claim still goes out with what verified (dropping it
// could hide a batch that committed elsewhere); receivers will not count
// this campaign, and the shortfall is reported.
func (r *Replica) buildViewChange(v uint64) *ViewChange {
	var prepared []*PreparedProof
	seqs := make([]uint64, 0, len(r.entries))
	for s := range r.entries {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, s := range seqs {
		e := r.entries[s]
		if s <= r.lowWater || !e.prepared {
			continue
		}
		p := &PreparedProof{View: e.view, Seq: s, Digest: e.digest, Batch: e.batch}
		if e.committed {
			p.Cert, _ = r.Prove(s)
		}
		if p.Cert == nil {
			var ok bool
			p.PrepareSigners, p.PrepareSigs, ok = r.provenVotes(e.prepares[e.key()], PreparePayload(e.view, s, e.digest))
			if !ok {
				r.unprovable()
			}
		}
		prepared = append(prepared, p)
	}
	vc := &ViewChange{
		NewView:     v,
		Replica:     r.env.ID(),
		StableSeq:   r.lowWater,
		StableProof: r.provenStable(),
		Prepared:    prepared,
	}
	vc.Sig = r.env.Suite().Sign(ViewChangePayload(vc))
	return vc
}

// provenStable returns n−f checkpoint votes for lowWater whose signatures
// verify, chosen from every matching vote retained (stabilize's quorum and
// any that arrived since). The choice is made once; later campaigns reuse it.
func (r *Replica) provenStable() []*Checkpoint {
	if r.stableProof != nil || r.stable == nil {
		return r.stableProof
	}
	sigs := make(map[types.NodeID][]byte, len(r.stable))
	for id, cp := range r.stable {
		sigs[id] = cp.Sig
	}
	signers, _, ok := r.provenVotes(sigs, checkpointPayload(r.lowWater, r.history[r.lowWater]))
	proof := make([]*Checkpoint, len(signers))
	for i, id := range signers {
		proof[i] = r.stable[id]
	}
	if !ok {
		for id, sig := range sigs {
			if sig == nil {
				delete(r.stable, id) // found bad: not worth checking again
			}
		}
		r.unprovable()
		return proof // short; a later vote may complete it for the next campaign
	}
	r.stable, r.stableProof = nil, proof
	return proof
}

// storeViewChange records a campaign, keeping at most one pending campaign
// per sender: a replica escalating (or spamming) ever-higher views replaces
// its earlier entries instead of accumulating them, so vcStore stays O(n)
// no matter how many distinct views a Byzantine replica campaigns for
// (found by the view-change-spam adversary scenario). Honest replicas only
// ever push their single latest campaign, and they re-broadcast it on every
// escalation, so evicting stale entries never loses a live quorum.
func (r *Replica) storeViewChange(vc *ViewChange) {
	for v, set := range r.vcStore {
		if v == vc.NewView {
			continue
		}
		if _, ok := set[vc.Replica]; ok {
			delete(set, vc.Replica)
			if len(set) == 0 {
				delete(r.vcStore, v)
			}
		}
	}
	set := r.vcStore[vc.NewView]
	if set == nil {
		set = make(map[types.NodeID]*ViewChange)
		r.vcStore[vc.NewView] = set
	}
	set[vc.Replica] = vc
}

func (r *Replica) onViewChange(from types.NodeID, m *ViewChange) {
	if m.Replica != from {
		r.reject() // spoofed campaigner identity
		return
	}
	if m.NewView <= r.view {
		return
	}
	if !r.env.Suite().Verify(from, ViewChangePayload(m), m.Sig) {
		r.reject()
		return
	}
	r.storeViewChange(m)

	// Join rule: f+1 replicas campaigning for a higher view cannot all be
	// faulty, so at least one non-faulty replica timed out — join the
	// lowest such view.
	if !r.inViewChange || m.NewView > r.targetView {
		views := make([]uint64, 0, len(r.vcStore))
		for v, set := range r.vcStore {
			if v > r.view && len(set) > r.cfg.F {
				views = append(views, v)
			}
		}
		if len(views) > 0 {
			sort.Slice(views, func(i, j int) bool { return views[i] < views[j] })
			if !r.inViewChange || views[0] > r.targetView {
				r.startViewChange(views[0])
			}
		}
	}
	r.maybeBuildNewView(m.NewView)
}

// validateViewChange checks the signatures and proofs inside a view-change
// message. It is strict — one bad signature discards the message — which is
// why buildViewChange proves what it shows.
func (r *Replica) validateViewChange(vc *ViewChange) bool {
	if vc.StableSeq > 0 {
		if len(vc.StableProof) < r.quorum() {
			return false
		}
		seen := make(map[types.NodeID]bool)
		valid := 0
		for _, cp := range vc.StableProof {
			if cp.Seq != vc.StableSeq || seen[cp.Replica] {
				return false
			}
			seen[cp.Replica] = true
			if !r.env.Suite().Verify(cp.Replica, checkpointPayload(cp.Seq, cp.Digest), cp.Sig) {
				return false
			}
			valid++
		}
		if valid < r.quorum() {
			return false
		}
	}
	for _, p := range vc.Prepared {
		if p.Batch.Digest() != p.Digest {
			return false
		}
		if p.Cert != nil {
			if p.Cert.Seq != p.Seq || p.Cert.Digest != p.Digest ||
				!p.Cert.Verify(r.env.Suite(), r.cfg.Members, r.quorum()) {
				return false
			}
			continue
		}
		if len(p.PrepareSigners) < r.quorum() || len(p.PrepareSigners) != len(p.PrepareSigs) {
			return false
		}
		seen := make(map[types.NodeID]bool)
		payload := PreparePayload(p.View, p.Seq, p.Digest)
		for i, id := range p.PrepareSigners {
			if seen[id] {
				return false
			}
			seen[id] = true
			if !r.env.Suite().Verify(id, payload, p.PrepareSigs[i]) {
				return false
			}
		}
	}
	return true
}

func (r *Replica) maybeBuildNewView(v uint64) {
	if r.PrimaryOf(v) != r.env.ID() || v <= r.view {
		return
	}
	if !r.inViewChange || r.targetView != v {
		return
	}
	set := r.vcStore[v]
	if len(set) < r.quorum() {
		return
	}
	valid := make([]*ViewChange, 0, len(set))
	ids := make([]types.NodeID, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		vc := set[id]
		if r.validateViewChange(vc) {
			valid = append(valid, vc)
		}
	}
	if len(valid) < r.quorum() {
		return
	}
	valid = valid[:r.quorum()]

	nv := &NewView{View: v, ViewChanges: valid, PrePrepares: computeNewViewProposals(v, valid)}
	r.broadcast(nv)
	r.applyNewView(nv)
}

// computeNewViewProposals derives the deterministic set of re-issued
// proposals from a view-change quorum: above the highest proven stable
// checkpoint, committed certificates win, then the highest-view prepared
// claim; gaps are filled with no-ops.
func computeNewViewProposals(v uint64, vcs []*ViewChange) []*PrePrepare {
	maxStable := uint64(0)
	maxSeq := uint64(0)
	for _, vc := range vcs {
		if vc.StableSeq > maxStable {
			maxStable = vc.StableSeq
		}
		for _, p := range vc.Prepared {
			if p.Seq > maxSeq {
				maxSeq = p.Seq
			}
		}
	}
	if maxSeq < maxStable {
		maxSeq = maxStable
	}
	var out []*PrePrepare
	for s := maxStable + 1; s <= maxSeq; s++ {
		var chosen *PreparedProof
		for _, vc := range vcs {
			for _, p := range vc.Prepared {
				if p.Seq != s {
					continue
				}
				switch {
				case chosen == nil:
					chosen = p
				case p.Cert != nil && chosen.Cert == nil:
					chosen = p
				case p.Cert == nil && chosen.Cert == nil && p.View > chosen.View:
					chosen = p
				}
			}
		}
		pp := &PrePrepare{View: v, Seq: s}
		if chosen != nil {
			pp.Digest, pp.Batch = chosen.Digest, chosen.Batch
		} else {
			pp.Batch = types.Batch{NoOp: true}
			pp.Batch.PrimeDigest() // cache before the NewView is shared
			pp.Digest = pp.Batch.Digest()
		}
		out = append(out, pp)
	}
	return out
}

func (r *Replica) onNewView(from types.NodeID, m *NewView) {
	if m.View < r.view || (m.View == r.view && !r.inViewChange) {
		return
	}
	if from != r.PrimaryOf(m.View) {
		r.reject() // an installation only its primary may announce
		return
	}
	if len(m.ViewChanges) < r.quorum() {
		r.reject()
		return
	}
	seen := make(map[types.NodeID]bool)
	for _, vc := range m.ViewChanges {
		if vc.NewView != m.View || seen[vc.Replica] {
			r.reject() // padded quorum: wrong-view or duplicate voters
			return
		}
		seen[vc.Replica] = true
		if !r.env.Suite().Verify(vc.Replica, ViewChangePayload(vc), vc.Sig) {
			r.reject()
			return
		}
		if !r.validateViewChange(vc) {
			r.reject()
			return
		}
	}
	// The proposal set must be exactly the deterministic derivation.
	want := computeNewViewProposals(m.View, m.ViewChanges)
	if len(want) != len(m.PrePrepares) {
		r.reject()
		return
	}
	for i, pp := range m.PrePrepares {
		if pp.View != m.View || pp.Seq != want[i].Seq || pp.Digest != want[i].Digest {
			r.reject()
			return
		}
	}
	r.applyNewView(m)
}

func (r *Replica) applyNewView(nv *NewView) {
	dbg("%v APPLY-NEWVIEW view=%d len(O)=%d", r.env.ID(), nv.View, len(nv.PrePrepares))
	r.view = nv.View
	r.inViewChange = false
	r.targetView = nv.View
	for v := range r.vcStore {
		if v <= r.view {
			delete(r.vcStore, v)
		}
	}

	// Adopt any commit certificates carried inside the view-change quorum:
	// free catch-up for lagging replicas.
	for _, vc := range nv.ViewChanges {
		for _, p := range vc.Prepared {
			if p.Cert != nil {
				r.AdoptCertificate(p.Cert)
			}
		}
	}

	maxSeq := r.nextSeq
	for _, pp := range nv.PrePrepares {
		if pp.Seq > maxSeq {
			maxSeq = pp.Seq
		}
		if pp.Seq <= r.committedUpTo {
			continue
		}
		if old := r.entries[pp.Seq]; old != nil && old.committed {
			// Already committed locally (necessarily with the same digest by
			// quorum intersection); help the new view's quorum along.
			sig := r.env.Suite().Sign(PreparePayload(nv.View, pp.Seq, old.digest))
			r.broadcast(&Prepare{View: nv.View, Seq: pp.Seq, Digest: old.digest, Replica: r.env.ID(), Sig: sig})
			csig := r.env.Suite().Sign(CommitPayload(nv.View, pp.Seq, old.digest))
			r.broadcast(&Commit{View: nv.View, Seq: pp.Seq, Digest: old.digest, Replica: r.env.ID(), Sig: csig})
			continue
		}
		// Entries are reused, not reset: votes already bucketed under the
		// new view's key must survive the re-proposal. A received NewView's
		// batches passed PreVerify's digest binding; one built here took
		// them from validated campaigns.
		r.onPrePrepare(r.PrimaryOf(nv.View), pp)
	}
	if r.nextSeq < maxSeq {
		r.nextSeq = maxSeq
	}

	// Pending client requests move to the new primary: backups re-forward,
	// and a replica that just became primary adopts what it was
	// supervising.
	if r.IsPrimary() {
		r.queue = append(r.queue, r.supervised()...)
		r.forwarded = make(map[types.Digest]signedBatch)
	} else {
		for _, q := range r.supervised() {
			r.env.Suite().ChargeMAC()
			r.env.Send(r.Primary(), &Request{Batch: q.b, Sig: q.sig, Forwarded: true})
		}
	}
	if r.hooks.ViewChanged != nil {
		r.hooks.ViewChanged(r.view, r.Primary())
	}
	// Replay proposals that raced ahead of this install.
	buffered := r.futurePP
	r.futurePP = nil
	for _, pp := range buffered {
		if pp.View >= r.view {
			r.onPrePrepare(r.PrimaryOf(pp.View), pp)
		}
	}
	r.tryPropose()
	r.rearmProgressTimer()
}

// supervised returns the client requests this backup supervises in (client,
// seq) order, digest breaking ties, for a view change to re-forward or adopt.
// Each client's requests keep their order — a seq adopted behind a later seq
// of its client would be proposed after clientHWM passed it, and dropped as
// executed — and what a replica sends does not hang on map iteration order.
func (r *Replica) supervised() []signedBatch {
	out := make([]signedBatch, 0, len(r.forwarded))
	for _, q := range r.forwarded {
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i].b, &out[j].b
		if a.Client != b.Client {
			return a.Client < b.Client
		}
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		da, db := a.Digest(), b.Digest()
		return bytes.Compare(da[:], db[:]) < 0
	})
	return out
}
