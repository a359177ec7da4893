package chaos

// The bounded-history scenarios. A deployment that checkpoints and
// garbage-collects cannot be rejoined by replaying its chain — the chain
// below the checkpoint is gone — so these scenarios prove the replacement
// path: verified snapshot-based state transfer plus parallel suffix fetch
// (snapshot-join), and the same path under a Byzantine snapshot server
// (byz-tampered-snapshot, registered with the Byzantine suite).
//
// Both scenarios start from a pre-seeded data directory: executing a
// 100 000-block chain live would take hours, so the seeder writes each
// replica's stores byte-for-byte as a long, GC'd run leaves them — a
// snapshot archive holding the checkpoint, no block segments — and the
// deployment boots from there, exactly as a restarted long-running node
// does.

import (
	"fmt"
	"path/filepath"
	"time"

	"resilientdb/internal/byzantine"
	"resilientdb/internal/config"
	"resilientdb/internal/crypto"
	"resilientdb/internal/kvstore"
	"resilientdb/internal/pbft"
	"resilientdb/internal/snapshot"
	"resilientdb/internal/types"
)

// seedCheckpointedDeployment writes each replica's slice of dataDir (except
// the ids in skip, which stay fresh) as checkpoint GC leaves it after a long
// run ending at round: a snapshot archive holding the round-R checkpoint,
// endorsed with the replica's own deterministic key, and no block segments.
// On boot each seeded replica installs its archived checkpoint and resumes
// consensus at height round·z.
//
// The checkpoint is built honestly wherever the live protocol can observe
// it: the per-cluster commit-history folds walk the full no-op prefix with
// the exact fold replicas use going forward, the state is what executing
// that prefix produces (no-ops leave the preloaded table untouched), and the
// tip certificate carries a real signature quorum. Only the tip's Prev
// digest is synthesized — the blocks that would pin it are garbage-collected,
// so, as for any GC'd chain, it is vouched for solely by the replicas'
// matching endorsements.
func seedCheckpointedDeployment(dataDir string, topo config.Topology, round uint64, records int, skip map[types.NodeID]bool) error {
	z := topo.Clusters
	dir := crypto.NewDirectory(crypto.Real, topo.AllReplicas())
	suite := func(id types.NodeID) *crypto.Suite {
		return crypto.NewSuite(dir, id, crypto.FreeCosts(), nil)
	}
	state := kvstore.New(records).Serialize()

	hist := make([]types.Digest, z)
	var tip types.Batch
	for rd := uint64(1); rd <= round; rd++ {
		for c := 0; c < z; c++ {
			b := types.Batch{Client: types.ClientIDBase, Seq: (rd-1)*uint64(z) + uint64(c) + 1, NoOp: true}
			b.PrimeDigest()
			enc := types.NewEncoder(72)
			enc.Digest(hist[c])
			enc.Digest(b.Digest())
			hist[c] = types.Hash(enc.Bytes())
			if rd == round && c == z-1 {
				tip = b
			}
		}
	}

	members := topo.ClusterMembers(z - 1)
	quorum := topo.PerCluster - topo.F()
	cert := &pbft.Certificate{
		View: 0, Seq: round, Digest: tip.Digest(), Batch: tip,
		Signers: append([]types.NodeID(nil), members[:quorum]...),
	}
	payload := pbft.CommitPayload(0, round, cert.Digest)
	for _, signer := range cert.Signers {
		cert.Sigs = append(cert.Sigs, suite(signer).Sign(payload))
	}

	tipPrev := types.Hash([]byte(fmt.Sprintf("chaos/seed-prefix/%d", round)))
	manifest := snapshot.Build(round, z, tipPrev, cert, hist, state)
	for _, id := range topo.AllReplicas() {
		if skip[id] {
			continue
		}
		arch, err := snapshot.OpenArchive(filepath.Join(dataDir, fmt.Sprintf("node-%d", int(id)), "snapshots"), 2)
		if err != nil {
			return err
		}
		m := *manifest
		m.Sign(suite(id))
		if err := arch.Put(&m, state); err != nil {
			return err
		}
	}
	return nil
}

// snapshotJoin boots a deployment whose every replica but one sits at a GC'd
// 100 000-block checkpoint, with the straggler completely fresh. The fresh
// replica cannot replay the chain — no peer retains it — so reaching the
// live height requires the full state-transfer path: f+1 matching manifest
// endorsements from its cluster, content-addressed chunk transfer, commit
// certificate re-verification, and parallel suffix fetch. The scenario
// asserts the join converges and that block transfer carried only the live
// suffix, never the snapshot-covered prefix.
func snapshotJoin() Scenario {
	const seedRound = 50_000 // z=2 → a 100 000-block chain
	return Scenario{
		Name:        "snapshot-join",
		Description: "a fresh replica joins a GC'd 100k-block chain via verified snapshot + parallel suffix fetch",
		Clusters:    2, Replicas: 4,
		Disk:             true,
		SnapshotInterval: 8,
		Seed: func(dataDir string, topo config.Topology) error {
			return seedCheckpointedDeployment(dataDir, topo, seedRound, 128,
				map[types.NodeID]bool{topo.ReplicaID(0, 3): true})
		},
		Run: func(e *Env) error {
			z := uint64(e.Topo.Clusters)
			base := seedRound * z
			// Boot runs on each node's worker; reaching the checkpoint height
			// is only possible by installing the seeded archive (consensus
			// from genesis would need hours to cover 100k blocks).
			if err := e.WaitHeight(0, 0, base, 30*time.Second); err != nil {
				return err
			}
			start := time.Now()
			e.StartLoad(0)
			e.StartLoad(1)
			// The seeded replicas must resume consensus past the checkpoint…
			if err := e.WaitHeight(0, 0, base+warmup, 60*time.Second); err != nil {
				return err
			}
			// …and the fresh replica must pass it too, which only the
			// snapshot path can deliver.
			if err := e.WaitHeight(0, 3, base+1, 120*time.Second); err != nil {
				return err
			}
			e.Logf("chaos: fresh replica passed the 100k checkpoint %v after boot",
				time.Since(start).Round(time.Millisecond))
			e.StopLoads()
			if err := e.WaitConverged(120 * time.Second); err != nil {
				return err
			}
			e.StopAll()
			if st := e.NodeSnapshotStats(0, 3); st.Installed == 0 {
				return fmt.Errorf("chaos: the fresh replica never installed a snapshot: %+v", st)
			}
			rep := e.Fab.Replica(e.ReplicaID(0, 3))
			final := rep.Ledger().Height()
			fetched := rep.CatchUpBlocks()
			// The snapshot covers everything through the seeded checkpoint
			// (or a newer one), so block transfer may carry at most the live
			// suffix plus parallel-fetch overlap slack. Fetching more means
			// the prefix was downloaded block by block — the unbounded
			// behaviour this subsystem exists to remove.
			if maxFetch := final - base + 8*z; fetched > maxFetch {
				return fmt.Errorf("chaos: joiner fetched %d blocks, want ≤ %d (snapshot not used)", fetched, maxFetch)
			}
			return e.AssertPrefixes()
		},
	}
}

// byzTamperedSnapshot repeats the join against a compromised snapshot
// server: one seeded replica in the joiner's own cluster runs
// byzantine.SnapshotTamperer, so every manifest it serves arrives with a
// garbled signature, a wrong state hash, a forged certificate, or a
// rewritten history fold. None of it may reach the joiner's state: forgeries
// are rejected and counted, the diverging manifests can never assemble an
// f+1 matching quorum, and the join must still complete through the honest
// peers.
func byzTamperedSnapshot() Scenario {
	const seedRound = 1_000 // the attack needs the snapshot path, not scale
	return Scenario{
		Name:        "byz-tampered-snapshot",
		Description: "tampered checkpoint manifests from a Byzantine server: rejected, counted, join completes via honest peers",
		Clusters:    2, Replicas: 4,
		Disk:             true,
		SnapshotInterval: 8,
		Byzantine: []Role{
			{Cluster: 0, Index: 1, Script: &byzantine.SnapshotTamperer{}},
		},
		Seed: func(dataDir string, topo config.Topology) error {
			return seedCheckpointedDeployment(dataDir, topo, seedRound, 128,
				map[types.NodeID]bool{topo.ReplicaID(0, 3): true})
		},
		Run: func(e *Env) error {
			z := uint64(e.Topo.Clusters)
			base := seedRound * z
			e.Arm(0, 1) // attacking from the very first manifest request
			e.StartLoad(0)
			e.StartLoad(1)
			if err := e.WaitHeight(0, 0, base+warmup, 60*time.Second); err != nil {
				return err
			}
			if err := e.WaitHeight(0, 3, base+1, 120*time.Second); err != nil {
				return err
			}
			e.StopLoads()
			if err := e.WaitConverged(120 * time.Second); err != nil {
				return err
			}
			e.StopAll()
			adv := e.Adversary(0, 1)
			if st := adv.Stats(); st.Tampered == 0 {
				return fmt.Errorf("chaos: the snapshot tamperer never fired: %+v", st)
			}
			// Rejection accounting: the garbled-signature and forged-
			// certificate variants must land in the snapshot-reject counter
			// rather than vanish (the re-signed variants are starved of the
			// manifest quorum instead — silently, by design).
			if st := e.SnapshotStats(); st.Rejected == 0 {
				return fmt.Errorf("chaos: tampered snapshot material vanished uncounted: %+v", st)
			}
			if st := e.NodeSnapshotStats(0, 3); st.Installed == 0 {
				return fmt.Errorf("chaos: the joiner never installed a snapshot: %+v", st)
			}
			_ = z
			return e.AssertPrefixes()
		},
	}
}
