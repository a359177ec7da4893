package main

import (
	"fmt"
	"time"

	"resilientdb/internal/fabric"
	"resilientdb/internal/ledger"
	"resilientdb/internal/types"
)

// gate is the correctness check after every workload: any entry in errs makes
// the run exit non-zero. It reads the replicas from outside — ledgers, stores
// and proven reads — and compares them with what the load generator knows it
// sent and saw confirmed.
type gate struct {
	d   *deployment
	ids []*identity

	errs        []string
	viewChanges uint64 // highest PBFT view any replica reached (0 on a fault-free run)
	catchup     uint64 // blocks any replica fetched over catch-up (0 expected)
	blocks      uint64 // ledger height the replicas settled on
}

func (g *gate) failf(format string, args ...any) {
	if len(g.errs) < 20 { // the first few say what broke; thousands say nothing more
		g.errs = append(g.errs, fmt.Sprintf(format, args...))
	}
}

// liveReads runs while the settled nodes still serve: every replica must
// return, for each sampled key, the value of the last write to it in ledger
// order — which covers every acknowledged write to those keys — under a proof
// that verifies. The sampled keys are those the deployment's first client
// batch wrote: Zipfian draws make that a mix of the hottest keys (overwritten
// thousands of times, so ledger order decides the value) and cold ones.
func (g *gate) liveReads() {
	ref := g.d.nodes[0]
	height := ref.Height()
	var want map[uint64]uint64
	for h := uint64(1); h <= height; h++ {
		blk := ref.BlockAt(h)
		if blk == nil {
			g.failf("replica 0 holds no block at height %d of %d", h, height)
			return
		}
		if want == nil && !blk.Batch.NoOp {
			want = map[uint64]uint64{}
			for _, t := range blk.Batch.Txns {
				want[t.Key] = 0
			}
		}
		for _, t := range blk.Batch.Txns {
			if _, tracked := want[t.Key]; tracked {
				want[t.Key] = t.Value
			}
		}
	}
	suite := readerSuite(g.d.topo)
	for _, n := range g.d.nodes {
		for key, val := range want {
			rs, err := n.ProvenRead(key, 5*time.Second)
			if err != nil {
				g.failf("replica %v: proven read of key %d: %v", n.ID(), key, err)
				continue
			}
			if err := fabric.VerifyReadState(suite, g.d.topo, rs); err != nil {
				g.failf("replica %v: read proof for key %d rejected: %v", n.ID(), key, err)
			}
			if !rs.Found || rs.Value != val {
				g.failf("replica %v: key %d reads %d (found=%v), last ledger write is %d", n.ID(), key, rs.Value, rs.Found, val)
			}
		}
	}
}

// stopped runs once the fabrics have stopped and replica state is safe to
// read: chain audit, at-most-once execution, acknowledged writes present,
// equal state at equal rounds.
func (g *gate) stopped() {
	d := g.d
	ledgers := map[string]*ledger.Ledger{}
	type state struct {
		replica types.NodeID
		digest  types.Digest
	}
	byRound := map[uint64]state{}
	for _, f := range d.replicaFabs {
		for _, id := range d.topo.AllReplicas() {
			r := f.Replica(id)
			if r == nil {
				continue
			}
			ledgers[fmt.Sprintf("replica-%02d", int(id))] = r.Ledger()
			g.viewChanges = max(g.viewChanges, r.Local().View())
			g.catchup += r.CatchUpBlocks()
			g.blocks = max(g.blocks, r.Ledger().Height())
			if err := r.Ledger().StoreErr(); err != nil {
				g.failf("replica %v: ledger detached from its block store: %v", id, err)
			}
			// kvstore digests must be equal wherever executed rounds are equal.
			st := state{id, r.Store().Digest()}
			if prev, seen := byRound[r.ExecutedRound()]; seen && prev.digest != st.digest {
				g.failf("replicas %v and %v executed round %d but their kvstore digests differ", prev.replica, id, r.ExecutedRound())
			} else if !seen {
				byRound[r.ExecutedRound()] = st
			}
			g.checkLedger(id, r.Ledger())
		}
	}
	// AuditPrefixes verifies every chain (Ledger.Verify) and that each pair is
	// prefix-ordered: no two replicas committed divergent histories.
	if err := ledger.AuditPrefixes(ledgers); err != nil {
		g.failf("%v", err)
	}
}

// checkLedger walks one replica's chain: no (client, seq) executes twice,
// every client batch is the one the generator sent under that number, and
// every acknowledged request is there.
func (g *gate) checkLedger(replica types.NodeID, l *ledger.Ledger) {
	executed := make([][]bool, len(g.ids)) // by identity, by seq-1
	for i, id := range g.ids {
		executed[i] = make([]bool, len(id.sent))
	}
	for h := uint64(1); h <= l.Height(); h++ {
		blk := l.Block(h)
		if blk == nil {
			g.failf("replica %v: no block at height %d of %d", replica, h, l.Height())
			return
		}
		b := &blk.Batch
		if b.NoOp || !b.Client.IsClient() {
			continue
		}
		i := int(b.Client - types.ClientIDBase)
		if i >= len(g.ids) || b.Seq == 0 || b.Seq > uint64(len(g.ids[i].sent)) {
			g.failf("replica %v: height %d holds (%v, seq %d), which no identity sent", replica, h, b.Client, b.Seq)
			continue
		}
		if executed[i][b.Seq-1] {
			g.failf("replica %v: (%v, seq %d) executed twice, again at height %d", replica, b.Client, b.Seq, h)
		}
		executed[i][b.Seq-1] = true
		if blk.BatchDigest != g.ids[i].sent[b.Seq-1] {
			g.failf("replica %v: height %d holds (%v, seq %d) with contents the client did not send", replica, h, b.Client, b.Seq)
		}
	}
	for i, id := range g.ids {
		for k, acked := range id.acked {
			if acked && !executed[i][k] {
				g.failf("replica %v: acknowledged (%v, seq %d) is not in its ledger", replica, id.id, k+1)
			}
		}
	}
}
