package chaos

import (
	"fmt"
	"time"

	"resilientdb/internal/byzantine"
	"resilientdb/internal/mempool"
	"resilientdb/internal/types"
)

// ByzantineScenarios returns the scripted-malice suite: scenarios where up
// to f replicas per cluster — or a compromised client credential — actively
// attack the protocol: equivocation, forged certificates, view-change spam,
// tampered state transfer, client-side request storms. The honest majority
// must preserve both invariants end-to-end: no two honest ledgers ever
// commit divergent prefixes (safety), and the deployment routes around the
// attacker and resumes committing (liveness). Every scenario also asserts
// the attack actually ran (adversary counters) and that every rejected
// message landed in Fabric.Stats (verify-rejects, mempool admission
// counters) instead of vanishing uncounted.
func ByzantineScenarios() []Scenario {
	return []Scenario{
		equivocatingPrimary(),
		forgedShares(),
		forgedForward(),
		forgedVotes(),
		forgedVotesPrimary(),
		viewChangeSpam(),
		tamperedCatchup(),
		byzStarvedCatchup(),
		byzTamperedSnapshot(),
		rogueClientStorm(),
	}
}

// rogueClientStorm attacks the client admission boundary instead of the
// replica protocol: a provisioned client credential floods duplicate copies
// of one request, signs two conflicting payloads for the same sequence
// number, and sprays fresh sequence numbers far above any honest rate. The
// deployment must shed all of it at admission — honest clients keep
// committing, every replica's mempool stays within its configured capacity,
// honest prefixes never diverge, and the shed traffic is visible in
// Fabric.Stats' duplicate/replayed/rate-limited counters.
func rogueClientStorm() Scenario {
	const poolCap = 48
	return Scenario{
		Name:        "byz-rogue-client",
		Description: "duplicate flood, sequence equivocation, and rate abuse from a compromised client credential: shed at admission, counted, honest progress unharmed",
		Clusters:    2, Replicas: 4,
		// Small pool and tight per-client budget so the storm hits every
		// limit within seconds. ~300 sprayed sequence numbers against a
		// burst of 32 guarantees rate-limit rejections; 64 flood copies
		// per round guarantee duplicates.
		Mempool: mempool.Config{Capacity: poolCap, PerClientRate: 32, PerClientBurst: 32, ReplayWindow: 16},
		Run: func(e *Env) error {
			l0 := e.StartLoad(0)
			e.StartLoad(1)
			if err := e.WaitHeight(0, 1, warmup, 60*time.Second); err != nil {
				return err
			}
			rogue := e.RogueClient(2) // home cluster 0, alongside l0
			pre := e.MempoolStats()
			before := l0.Committed()
			rogue.Equivocate(1)
			rogue.Flood(2, 64)
			rogue.Spray(10, 300)
			rogue.Flood(2, 64) // second storm: by now seq 2 is usually executed, so copies replay
			// Liveness through the storm: the honest cluster-0 client keeps
			// confirming batches while the rogue hammers the same replicas.
			if err := e.WaitCommitted(l0, before+3, 90*time.Second); err != nil {
				return err
			}
			e.StopLoads()
			if err := e.WaitConverged(90 * time.Second); err != nil {
				return err
			}
			e.StopAll()
			if st := rogue.Stats(); st.Sent == 0 || st.Equivocations == 0 {
				return fmt.Errorf("chaos: the rogue client never attacked: %+v", st)
			}
			// Bounded memory: no replica's pool may exceed its capacity, no
			// matter how much the rogue sent.
			for idx := 0; idx < e.Topo.PerCluster; idx++ {
				if n := e.MempoolLen(0, idx); n > poolCap {
					return fmt.Errorf("chaos: replica (0,%d) mempool holds %d pending requests, capacity %d", idx, n, poolCap)
				}
			}
			mp := e.MempoolStats()
			if mp.Duplicate <= pre.Duplicate {
				return fmt.Errorf("chaos: the duplicate flood vanished uncounted (duplicates %d → %d)", pre.Duplicate, mp.Duplicate)
			}
			if mp.RateLimited <= pre.RateLimited {
				return fmt.Errorf("chaos: the sequence spray was never rate-limited (%d → %d)", pre.RateLimited, mp.RateLimited)
			}
			return e.AssertPrefixes()
		},
	}
}

// equivocatingPrimary hands cluster 0's primary to an equivocation script:
// for a few rounds the default victim receives conflicting proposals (and
// forged votes supporting them) while a detector replica is shown both sides
// — provable misbehaviour. With exactly f attackers the fork can never
// commit; the cluster must depose the equivocator through a local view
// change, the starved victim must recover through catch-up, and every honest
// ledger must stay prefix-consistent throughout.
func equivocatingPrimary() Scenario {
	return Scenario{
		Name:        "byz-equivocating-primary",
		Description: "conflicting proposals to disjoint quorums: view change deposes the equivocator, honest prefixes never diverge",
		Clusters:    2, Replicas: 4,
		Byzantine: []Role{{Cluster: 0, Index: 0, Script: &byzantine.EquivocatingPrimary{Rounds: 3, Detector: true}}},
		Run: func(e *Env) error {
			l0 := e.StartLoad(0)
			e.StartLoad(1)
			if err := e.WaitHeight(0, 1, warmup, 60*time.Second); err != nil {
				return err
			}
			e.Arm(0, 0)
			before := l0.Committed()
			// Liveness: cluster 0 keeps confirming client batches, which with
			// an equivocating primary requires deposing it first.
			if err := e.WaitCommitted(l0, before+3, 90*time.Second); err != nil {
				return err
			}
			e.StopLoads()
			if err := e.WaitConverged(90 * time.Second); err != nil {
				return err
			}
			e.StopAll()
			if v := e.View(0, 2); v == 0 {
				return fmt.Errorf("chaos: cluster 0 committed past the equivocation without a view change")
			}
			if st := e.Adversary(0, 0).Stats(); st.Forked == 0 {
				return fmt.Errorf("chaos: the equivocation script never forked a proposal")
			}
			return e.AssertPrefixes()
		},
	}
}

// forgedShares hands cluster 1's primary to a certificate forger: every
// commit certificate it shares cross-cluster is garbled. Cluster 0 must
// reject each forgery (counted as verify-rejects), block on the missing
// round, and depose the forger through the remote view-change protocol
// (Figure 7) so its honest successor re-shares genuine certificates.
func forgedShares() Scenario {
	return Scenario{
		Name:        "byz-forged-shares",
		Description: "garbled certificates cross-cluster: rejected, counted, and routed around via remote view change",
		Clusters:    2, Replicas: 4,
		Byzantine: []Role{{Cluster: 1, Index: 0, Script: &byzantine.ShareForger{}}},
		Run: func(e *Env) error {
			e.StartLoad(0)
			if err := e.WaitHeight(0, 1, warmup, 60*time.Second); err != nil {
				return err
			}
			pre := e.VerifyRejects()
			e.Arm(1, 0)
			h := e.Height(0, 1)
			// Liveness: cluster 0's execution passes the stall, which needs
			// genuine cluster-1 certificates — impossible until the remote
			// view change deposes the forger.
			if err := e.WaitHeight(0, 1, h+2*uint64(e.Topo.Clusters), 120*time.Second); err != nil {
				return err
			}
			e.StopLoads()
			if err := e.WaitConverged(90 * time.Second); err != nil {
				return err
			}
			e.StopAll()
			if v := e.View(1, 2); v == 0 {
				return fmt.Errorf("chaos: cluster 1 was never forced past its forging primary")
			}
			if st := e.Adversary(1, 0).Stats(); st.Tampered == 0 {
				return fmt.Errorf("chaos: the share forger never forged a certificate")
			}
			if got := e.VerifyRejects(); got <= pre {
				return fmt.Errorf("chaos: forged shares vanished uncounted (verify-rejects %d → %d)", pre, got)
			}
			return e.AssertPrefixes()
		},
	}
}

// forgedForward hands a cluster-0 backup to the forward forger on a
// disk-backed deployment. The backup is one of the f+1 receivers of cluster
// 1's certificate in half the rounds; every copy it then forwards to its own
// cluster is garbled and races the honest receiver's genuine copy, and a
// forgery for the next round goes with it, ahead of any genuine copy. Its
// peers count forwards instead of verifying each copy, so this is the attack
// on that rule: a lone liar must never be believed. No forgery may be
// accepted, stored or passed on — Run's audit checks every certificate an
// honest replica sends, AssertCertificates every one it keeps, and a backup
// restarted from its disk re-verifies its whole prefix without a rejection.
// Each forgery a peer ends up verifying is rejected and counted, commits
// continue (a round the forger should have forwarded costs its peers one
// grace), and no view moves.
func forgedForward() Scenario {
	return Scenario{
		Name:        "byz-forged-forward",
		Description: "a backup forwards garbled copies of another cluster's certificates inside its own cluster: never accepted on its lone word, rejected and counted where verified, commits continue",
		Clusters:    2, Replicas: 4,
		Disk:      true,
		Byzantine: []Role{{Cluster: 0, Index: 1, Script: &byzantine.ShareForger{Local: true}}},
		Run: func(e *Env) error {
			l0 := e.StartLoad(0)
			l1 := e.StartLoad(1)
			if err := e.WaitHeight(0, 2, warmup, 60*time.Second); err != nil {
				return err
			}
			pre := e.VerifyRejects()
			e.Arm(0, 1)
			// Liveness for both clusters over several turns of the rotation.
			if err := e.WaitCommitted(l0, l0.Committed()+8, 90*time.Second); err != nil {
				return err
			}
			if err := e.WaitCommitted(l1, l1.Committed()+8, 90*time.Second); err != nil {
				return err
			}
			e.StopLoads()
			if err := e.WaitQuiet(500*time.Millisecond, 90*time.Second); err != nil {
				return err
			}
			rejected := e.VerifyRejects()
			// (0,3) held forged and genuine copies side by side in half the
			// rounds. What it wrote to disk comes back alone: the whole prefix
			// re-verified at boot (one bad certificate fails the import whole),
			// not a block fetched.
			h := e.Height(0, 3)
			e.Crash(0, 3)
			if err := e.Restart(0, 3, true); err != nil {
				return err
			}
			if err := e.WaitHeight(0, 3, h, 30*time.Second); err != nil {
				return fmt.Errorf("chaos: disk bootstrap did not restore the prefix: %w", err)
			}
			if got := e.Fab.Replica(e.ReplicaID(0, 3)).CatchUpBlocks(); got != 0 {
				return fmt.Errorf("chaos: the restarted replica fetched %d blocks over the network; its disk held them all", got)
			}
			if err := e.WaitConverged(90 * time.Second); err != nil {
				return err
			}
			e.StopAll()
			if st := e.Adversary(0, 1).Stats(); st.Tampered == 0 || st.Injected == 0 {
				return fmt.Errorf("chaos: the forward forger never forged: %+v", st)
			}
			if rejected <= pre {
				return fmt.Errorf("chaos: forged forwards vanished uncounted (verify-rejects %d → %d)", pre, rejected)
			}
			if v := e.View(0, 2); v != 0 {
				return fmt.Errorf("chaos: a forging backup moved cluster 0 to view %d", v)
			}
			if err := e.AssertCertificates(); err != nil {
				return err
			}
			return e.AssertPrefixes()
		},
	}
}

// forgedVotes hands a cluster-0 backup to the vote forger on a disk-backed
// deployment: every prepare, commit and checkpoint vote it sends is routed
// correctly and signed with garbage. Votes are counted on channel
// authentication, so the garbage is counted too; what must hold is that it
// never gets out. Commits continue; the primary finds the bad signature when
// it proves each certificate and shares only what verifies (Run's certificate
// audit checks every share and every catch-up block an honest replica
// sends); every replica of the cluster proves its own cluster's certificate
// before the block is persisted, so a backup restarted from its disk
// bootstraps its whole prefix — every certificate re-verified — without a
// single rejection and without fetching a block, then keeps up; the bad votes
// are counted; and nothing honest is ever rejected by an honest receiver.
// The restart happens while the deployment is idle: a crashed member next to
// a forging one is two faults in one cluster, beyond the f=1 any of this is
// promised for.
func forgedVotes() Scenario {
	return Scenario{
		Name:        "byz-forged-votes",
		Description: "a backup signs garbage votes: counted on arrival, found out before anything is shown or persisted, commits continue, a disk restart re-verifies clean",
		Clusters:    2, Replicas: 4,
		Disk:      true,
		Byzantine: []Role{{Cluster: 0, Index: 2, Script: &byzantine.VoteForger{}}},
		Run: func(e *Env) error {
			l0 := e.StartLoad(0)
			e.StartLoad(1)
			if err := e.WaitHeight(0, 1, warmup, 60*time.Second); err != nil {
				return err
			}
			pre := e.VerifyRejects()
			e.Arm(0, 2)
			if err := e.WaitCommitted(l0, l0.Committed()+8, 90*time.Second); err != nil {
				return err
			}
			e.StopLoads()
			if err := e.WaitQuiet(500*time.Millisecond, 90*time.Second); err != nil {
				return err
			}
			// Every own-cluster block on (0,3)'s disk was decided on vote sets
			// the forger was part of. It comes back from that disk alone.
			h := e.Height(0, 3)
			e.Crash(0, 3)
			if err := e.Restart(0, 3, true); err != nil {
				return err
			}
			if err := e.WaitHeight(0, 3, h, 30*time.Second); err != nil {
				return fmt.Errorf("chaos: disk bootstrap did not restore the prefix: %w", err)
			}
			if got := e.Fab.Replica(e.ReplicaID(0, 3)).CatchUpBlocks(); got != 0 {
				return fmt.Errorf("chaos: the restarted replica fetched %d blocks over the network; its disk held them all", got)
			}
			l2 := e.StartLoad(2) // fresh identities, same home clusters
			e.StartLoad(3)
			if err := e.WaitCommitted(l2, 3, 90*time.Second); err != nil {
				return err
			}
			e.StopLoads()
			if err := e.WaitConverged(90 * time.Second); err != nil {
				return err
			}
			e.StopAll()
			if st := e.Adversary(0, 2).Stats(); st.Tampered == 0 {
				return fmt.Errorf("chaos: the vote forger never forged a vote")
			}
			if cs := e.CryptoStats(); cs.BadVoteSigs == 0 {
				return fmt.Errorf("chaos: forged votes vanished uncounted: %+v", cs)
			}
			if got := e.VerifyRejects(); got != pre {
				return fmt.Errorf("chaos: %d messages rejected while only votes were forged (disk bootstrap included): nothing honest may be rejected", got-pre)
			}
			if v := e.View(0, 1); v != 0 {
				return fmt.Errorf("chaos: a forging backup moved cluster 0 to view %d", v)
			}
			return e.AssertPrefixes()
		},
	}
}

// forgedVotesPrimary is the same forger as cluster 0's primary, which also
// withholds every certificate share and, a few rounds in, falls silent: the
// worst case for proving late. Its cluster keeps deciding on vote sets that
// hold its garbage while the other cluster gets nothing; deposing it takes a
// view change whose every honest campaign must show a stable-checkpoint proof
// and prepared proofs chosen from vote sets that contain the garbage (built
// unchecked, all of them would be discarded and the view change would never
// complete); and the new primary must reshare a provable certificate for
// every withheld round from the votes it kept.
func forgedVotesPrimary() Scenario {
	return Scenario{
		Name:        "byz-forged-votes-primary",
		Description: "the primary signs garbage votes, withholds its shares and goes silent: the view change completes on proven campaigns and every withheld round is reshared provably",
		Clusters:    2, Replicas: 4,
		Byzantine: []Role{{Cluster: 0, Index: 0, Script: &byzantine.VoteForger{WithholdShares: true, SilentAfter: 96}}},
		Run: func(e *Env) error {
			l0 := e.StartLoad(0)
			l1 := e.StartLoad(1)
			// Past a checkpoint interval, so the stable proof of the coming
			// campaigns is made of votes from the attack window too.
			if err := e.WaitCommitted(l0, 8, 60*time.Second); err != nil {
				return err
			}
			pre := e.VerifyRejects()
			e.Arm(0, 0)
			before0, before1 := l0.Committed(), l1.Committed()
			// Liveness for both clusters: cluster 1 cannot execute a round
			// without cluster 0's certificate for it, cluster 0's clients
			// cannot be answered by a silent primary.
			if err := e.WaitCommitted(l0, before0+3, 120*time.Second); err != nil {
				return err
			}
			if err := e.WaitCommitted(l1, before1+3, 120*time.Second); err != nil {
				return err
			}
			e.StopLoads()
			if err := e.WaitConverged(90 * time.Second); err != nil {
				return err
			}
			e.StopAll()
			if v := e.View(0, 1); v == 0 {
				return fmt.Errorf("chaos: cluster 0 committed past its forging primary without a view change")
			}
			if st := e.Adversary(0, 0).Stats(); st.Tampered == 0 || st.Suppressed == 0 {
				return fmt.Errorf("chaos: the primary never forged or never withheld: %+v", st)
			}
			if cs := e.CryptoStats(); cs.BadVoteSigs == 0 {
				return fmt.Errorf("chaos: forged votes vanished uncounted: %+v", cs)
			}
			if got := e.VerifyRejects(); got != pre {
				return fmt.Errorf("chaos: %d messages rejected while only votes were forged: no honest certificate or campaign may be rejected", got-pre)
			}
			return e.AssertPrefixes()
		},
	}
}

// viewChangeSpam compromises a cluster-0 backup with a composite script:
// view-change spam (far-future campaigns, forged signatures, forged and
// stale remote view-change requests) plus selective suppression of its
// checkpoints to one victim. A single attacker is below every quorum
// threshold, so no honest view may move, commits must continue uninterrupted
// through the spam, and every forgery must be counted.
func viewChangeSpam() Scenario {
	return Scenario{
		Name:        "byz-view-change-spam",
		Description: "stale/forged view-change spam plus selective suppression: no view moves, commits continue, spam is counted",
		Clusters:    2, Replicas: 4,
		Byzantine: []Role{{Cluster: 0, Index: 1, Script: byzantine.Compose(
			// Victim 3 is replica (0,3): topologies are dense, cluster*n+idx.
			&byzantine.Suppressor{Victims: []types.NodeID{3}, Types: []string{"pbft/checkpoint"}},
			&byzantine.ViewChangeSpammer{Every: 4},
		)}},
		Run: func(e *Env) error {
			l0 := e.StartLoad(0)
			e.StartLoad(1)
			if err := e.WaitHeight(0, 2, warmup, 60*time.Second); err != nil {
				return err
			}
			pre := e.VerifyRejects()
			e.Arm(0, 1)
			before := l0.Committed()
			// Liveness under spam: client batches keep confirming while the
			// attacker floods campaigns and starves the victim's checkpoints.
			// Eight batches of one cluster are at least eight rounds, so the
			// window spans a checkpoint (every 6 rounds) even when no round
			// is a no-op.
			if err := e.WaitCommitted(l0, before+8, 90*time.Second); err != nil {
				return err
			}
			adv := e.Adversary(0, 1)
			st := adv.Stats()
			adv.Disarm()
			e.StopLoads()
			if err := e.WaitConverged(90 * time.Second); err != nil {
				return err
			}
			e.StopAll()
			for _, idx := range []int{0, 2, 3} {
				if v := e.View(0, idx); v != 0 {
					return fmt.Errorf("chaos: spam moved replica (0,%d) to view %d", idx, v)
				}
			}
			if v := e.View(1, 2); v != 0 {
				return fmt.Errorf("chaos: spam moved cluster 1 to view %d", v)
			}
			if st.Spammed == 0 {
				return fmt.Errorf("chaos: the spammer never spammed")
			}
			if st.Suppressed == 0 {
				return fmt.Errorf("chaos: the suppressor never starved the victim's checkpoints")
			}
			if got := e.VerifyRejects(); got <= pre {
				return fmt.Errorf("chaos: forged campaigns vanished uncounted (verify-rejects %d → %d)", pre, got)
			}
			return e.AssertPrefixes()
		},
	}
}

// tamperedCatchup crashes a backup, lets the deployment advance, then
// restarts it with amnesia while a compromised local peer attacks its
// recovery: fabricated catch-up responses are injected at the victim the
// moment it rejoins, and any genuine response the attacker serves is
// garbled. Every forgery must be rejected atomically and counted; the victim
// must still converge to the honest chain through its honest peers.
func tamperedCatchup() Scenario {
	return Scenario{
		Name:        "byz-tampered-catchup",
		Description: "forged and garbled catch-up responses: rejected, counted, recovery converges via honest peers",
		Clusters:    2, Replicas: 4,
		Byzantine: []Role{{Cluster: 0, Index: 1, Script: &byzantine.CatchupTamperer{Victim: types.NoNode, Inject: 64}}},
		Run: func(e *Env) error {
			e.StartLoad(0)
			e.StartLoad(1)
			if err := e.WaitHeight(0, 2, warmup, 60*time.Second); err != nil {
				return err
			}
			e.Crash(0, 3)
			h := e.Height(0, 2)
			// Leave the crashed replica far behind so recovery genuinely
			// needs block transfer.
			if err := e.WaitHeight(0, 2, h+4*uint64(e.Topo.Clusters), 120*time.Second); err != nil {
				return err
			}
			pre := e.VerifyRejects()
			if err := e.Restart(0, 3, false); err != nil { // amnesia
				return err
			}
			// Arm only now: the injected forgeries must race the victim's
			// genuine catch-up, which starts from height zero.
			e.Arm(0, 1)
			time.Sleep(time.Second)
			e.StopLoads()
			if err := e.WaitConverged(120 * time.Second); err != nil {
				return err
			}
			e.StopAll()
			st := e.Adversary(0, 1).Stats()
			if st.Injected == 0 {
				return fmt.Errorf("chaos: the tamperer never injected a forged response")
			}
			if got := e.VerifyRejects(); got <= pre {
				return fmt.Errorf("chaos: forged catch-up responses vanished uncounted (verify-rejects %d → %d)", pre, got)
			}
			rep := e.Fab.Replica(e.ReplicaID(0, 3))
			if got := rep.CatchUpBlocks(); got == 0 {
				return fmt.Errorf("chaos: the victim recovered nothing over the network")
			}
			return e.AssertPrefixes()
		},
	}
}

// byzStarvedCatchup is the regression scenario for catch-up peer rotation: a
// backup crashes, the deployment advances, and the backup rejoins with
// amnesia while the first peer its recovery will ask — the head of its
// rotation order — silently drops every catch-up and snapshot response to
// it (a gray failure). Before rotation + bounded backoff, a recovering
// replica retried one random peer and a silent one could stall convergence
// indefinitely; now the cursor must advance past the mute peer and the
// victim must rebuild the whole chain from the honest ones.
func byzStarvedCatchup() Scenario {
	return Scenario{
		Name:        "byz-starved-catchup",
		Description: "the victim's first-choice recovery peer never answers: rotation + backoff converge via the others",
		Clusters:    2, Replicas: 4,
		Byzantine: []Role{{Cluster: 0, Index: 0, Script: &byzantine.Suppressor{
			Victims: []types.NodeID{types.NoNode},
			Types:   []string{"geobft/catchup-resp", "geobft/snapshot-resp"},
		}}},
		Run: func(e *Env) error {
			e.StartLoad(0)
			e.StartLoad(1)
			if err := e.WaitHeight(0, 2, warmup, 60*time.Second); err != nil {
				return err
			}
			e.Crash(0, 3)
			h := e.Height(0, 2)
			// Leave the crashed replica far behind so recovery genuinely
			// needs block transfer.
			if err := e.WaitHeight(0, 2, h+4*uint64(e.Topo.Clusters), 120*time.Second); err != nil {
				return err
			}
			// The victim's first-choice peer goes mute before it rejoins.
			e.Arm(0, 0)
			if err := e.Restart(0, 3, false); err != nil { // amnesia
				return err
			}
			time.Sleep(time.Second)
			e.StopLoads()
			if err := e.WaitConverged(120 * time.Second); err != nil {
				return err
			}
			e.StopAll()
			if st := e.Adversary(0, 0).Stats(); st.Suppressed == 0 {
				return fmt.Errorf("chaos: the suppressor never starved the victim's recovery")
			}
			if got := e.Fab.Replica(e.ReplicaID(0, 3)).CatchUpBlocks(); got == 0 {
				return fmt.Errorf("chaos: the victim recovered nothing over the network")
			}
			return e.AssertPrefixes()
		},
	}
}

// TeethScenario is the harness's self-test: the same equivocation attack,
// but run by a coalition of f+1 replicas (the primary plus a double-voter) —
// one more than the protocol tolerates. Both sides of the fork gather
// quorums, two honest replicas commit divergent blocks, and the scenario
// SUCCEEDS only when AssertPrefixes detects the divergence within the
// timeout: a harness whose invariant checks cannot fail proves nothing.
func TeethScenario() Scenario {
	return Scenario{
		Name:        "teeth-equivocation-coalition",
		Description: "f+1 coalition commits both sides of a fork: the prefix auditor must detect the divergence",
		Clusters:    2, Replicas: 4,
		AllowOverF: true,
		Byzantine: []Role{
			{Cluster: 0, Index: 0, Script: &byzantine.EquivocatingPrimary{}},
			{Cluster: 0, Index: 1, Script: byzantine.DoubleVoter{}},
		},
		Run: func(e *Env) error {
			e.StartLoad(0)
			e.StartLoad(1)
			if err := e.WaitHeight(0, 2, warmup, 60*time.Second); err != nil {
				return err
			}
			e.Arm(0, 0)
			e.Arm(0, 1)
			deadline := time.Now().Add(60 * time.Second)
			for time.Now().Before(deadline) {
				if err := e.AssertPrefixes(); err != nil {
					e.Logf("chaos: divergence detected as expected: %v", err)
					e.StopLoads()
					return nil
				}
				time.Sleep(100 * time.Millisecond)
			}
			return fmt.Errorf("chaos: a >f coalition failed to break safety — the invariant checks have no teeth")
		},
	}
}
