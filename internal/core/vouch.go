package core

import (
	"slices"
	"time"

	"resilientdb/internal/types"
)

// Vouching: who checks another cluster's certificate.
//
// The origin primary sends a certificate to f+1 replicas of each other
// cluster (shareRound). Those receivers verify its n−f signatures and
// broadcast it to their cluster; nobody else ever broadcasts one. A replica
// that gets the certificate from a member of its own cluster therefore does
// not verify it on arrival. It records the sender as a voucher for exactly
// those bytes (ShareKey) and accepts the certificate, without a signature
// check, once f+1 distinct members have forwarded the same bytes: with at most
// f faulty members one of them is honest, and an honest member sends only what
// it holds accepted — which it verified itself or, answering a DRvc for a
// round it accepted here, took from f+1 members that held it accepted before
// it did; followed back, every such chain starts at a member that verified.
// Forwards rest on the same thing votes do: the authenticated channel names
// the sender (crypto.FrameMAC over TCP; transport.Mem is one address space).
//
// A copy still short of f+1 vouchers one shareGrace after the first forward
// for its round arrived is verified by the holder itself — a faulty or slow
// receiver costs the rest of its cluster that one wait and the n−f checks,
// per round, and the rounds in flight wait side by side, not in turn. What is
// accepted this way is not broadcast either.

// ShareDedupKey identifies the bytes of one certificate share (see ShareKey).
// Round is part of the key even though CertDigest covers Cert.Seq: the
// claimed round lives outside the certificate.
type ShareDedupKey struct {
	Cluster types.ClusterID
	Round   uint64
	Cert    types.Digest
	Batch   types.Digest
}

// wellFormed reports whether m has the shape of what it claims to be: a
// certificate for the claimed round with one signature per signer. A share
// that has not is rejected before it is keyed, held or verified (the wire
// decoder reads the two lists independently, so one can arrive). The count
// matters to vouching: CertDigest hashes one signature per signer, so only
// for a well-formed certificate does it cover every byte — a genuine
// certificate with a signature appended would otherwise share the genuine
// copy's key and be accepted on the genuine copy's vouchers.
func wellFormed(m *GlobalShare) bool {
	return m.Cert != nil && m.Cert.Seq == m.Round && len(m.Cert.Signers) == len(m.Cert.Sigs)
}

// ShareKey returns the key two forwards of a GlobalShare must agree on to
// count as forwards of the same share: equal keys mean the same origin
// cluster and round, the same certificate content — signer set and signature
// bytes included — and the same batch bytes, so what one holder verified is
// what the other holds. ok is false for a share the key would not cover byte
// for byte: one without a certificate, or whose certificate has signers and
// signatures in unequal number (see wellFormed).
func ShareKey(m *GlobalShare) (key ShareDedupKey, ok bool) {
	if m.Cert == nil || len(m.Cert.Signers) != len(m.Cert.Sigs) {
		return ShareDedupKey{}, false
	}
	return ShareDedupKey{
		Cluster: m.Cluster,
		Round:   m.Round,
		Cert:    m.Cert.CertDigest(),
		Batch:   m.Cert.Batch.Digest(),
	}, true
}

// shareSlot names the one certificate a cluster owes a round.
type shareSlot struct {
	cluster types.ClusterID
	round   uint64
}

// candidate is one distinct copy forwarded for a slot: the first message that
// carried these bytes, and who has forwarded them.
type candidate struct {
	key      ShareDedupKey
	share    *GlobalShare
	vouchers []types.NodeID
}

// pendingShare holds the forwards for one slot until one copy has f+1
// vouchers, the slot's certificate arrives some other way, or the grace that
// started with the first forward runs out. A member's first forward for the
// slot is the only one kept, so a slot holds at most one candidate per member.
// Open slots sit in Replica.held in the order their first forward arrived,
// which is the order their graces run out; there are at most pipeline window
// × (clusters − 1) of them, so a slot is found by walking the slice.
type pendingShare struct {
	slot  shareSlot
	seen  time.Duration // when the first forward arrived
	cands []candidate   // arrival order
}

// isLocalPeer reports whether id can vouch: another replica of this cluster.
// It reads only construction-time state (PreVerify calls it off the worker).
func (r *Replica) isLocalPeer(id types.NodeID) bool {
	if id == r.cfg.Self || id.IsClient() {
		return false
	}
	for _, m := range r.members {
		if m == id {
			return true
		}
	}
	return false
}

// heldAt returns the index of slot in r.held, or -1.
func (r *Replica) heldAt(slot shareSlot) int {
	for i, p := range r.held {
		if p.slot == slot {
			return i
		}
	}
	return -1
}

// vouch records from, the authenticated sender, as a voucher for the bytes of
// m, and accepts m's certificate once f+1 members have forwarded those bytes.
// The caller has checked that m is well formed and the slot open: a remote
// cluster's round inside the pipeline window, no certificate set.
func (r *Replica) vouch(from types.NodeID, m *GlobalShare) {
	key, _ := ShareKey(m)
	slot := shareSlot{m.Cluster, m.Round}
	var p *pendingShare
	if i := r.heldAt(slot); i >= 0 {
		p = r.held[i]
	} else {
		p = &pendingShare{slot: slot, seen: r.env.Now()}
		r.held = append(r.held, p)
		r.armVouchTimer()
	}
	match := -1
	for i := range p.cands {
		for _, v := range p.cands[i].vouchers {
			if v == from {
				return // one forward per member and slot
			}
		}
		if p.cands[i].key == key {
			match = i
		}
	}
	if match < 0 {
		p.cands = append(p.cands, candidate{key: key, share: m})
		match = len(p.cands) - 1
	}
	c := &p.cands[match]
	c.vouchers = append(c.vouchers, from)
	if len(c.vouchers) > r.cfg.Topo.F() {
		r.vouched.Add(1)
		r.acceptShare(c.share)
	}
}

// settle closes a slot: what is held for it no longer counts and its grace no
// longer matters.
func (r *Replica) settle(slot shareSlot) {
	if i := r.heldAt(slot); i >= 0 {
		r.held = slices.Delete(r.held, i, i+1)
		r.armVouchTimer()
	}
}

// armVouchTimer keeps one timer armed while a slot is open and none when
// nothing is held. It is set for the oldest open slot; when that one settles
// first the timer fires early, finds nothing due and is set again.
func (r *Replica) armVouchTimer() {
	switch {
	case len(r.held) == 0:
		if r.vouchTimer != nil {
			r.vouchTimer.Stop()
			r.vouchTimer = nil
		}
	case r.vouchTimer == nil:
		wait := r.held[0].seen + shareGrace - r.env.Now()
		r.vouchTimer = r.env.SetTimer(max(wait, 0), r.onShareGrace)
	}
}

// onShareGrace runs when the oldest open slot has waited one grace: every
// slot that old is decided by this replica's own verification, its copies
// taken in the order they arrived. The first that verifies is accepted; one
// that does not is a forgery by the member that forwarded it, rejected and
// counted like any bad share. A slot left without a certificate starts over,
// with a new grace, at the next forward.
func (r *Replica) onShareGrace() {
	r.vouchTimer = nil
	now := r.env.Now()
	n := 0
	for n < len(r.held) && r.held[n].seen+shareGrace <= now {
		n++
	}
	due := slices.Clone(r.held[:n])
	r.held = slices.Delete(r.held, 0, n)
	r.armVouchTimer()
	for _, p := range due {
		if p.slot.round <= r.executedRound.Load() {
			continue // executed meanwhile (catch-up)
		}
		for _, c := range p.cands {
			if r.verifyShare(c.share) {
				r.selfVerified.Add(1)
				r.acceptShare(c.share)
				break
			}
			r.noteReject()
		}
	}
}
