// Package metrics collects the measurements every experiment reports:
// client-observed throughput and latency, plus message and byte counters
// split into local (intra-region) and global (inter-region) traffic — the
// distinction at the heart of the paper's cost analysis (Table 2).
package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Drops counts messages silently discarded along the fabric's pipeline. The
// transports and the fabric runtime increment these from many goroutines;
// read them with Snapshot. Every drop class a deployment can experience has
// its own counter so a benchmark run can report loss instead of mystery
// throughput dips.
type Drops struct {
	// Mailbox counts messages dropped because a node's receive mailbox was
	// full.
	Mailbox atomic.Uint64
	// SendQueue counts frames dropped because a peer connection's outgoing
	// queue was full (TCP transport).
	SendQueue atomic.Uint64
	// Encode counts messages dropped because they could not be wire-encoded.
	Encode atomic.Uint64
	// Decode counts frames dropped because they could not be decoded.
	Decode atomic.Uint64
	// NoRoute counts messages dropped because the destination had no known
	// address.
	NoRoute atomic.Uint64
	// VerifyReject counts inbound messages discarded by the admission
	// step's checks: failed cryptographic checks, but also malformed or
	// mis-routed messages the state machine would discard unconditionally
	// (the step rejects those before paying for crypto).
	VerifyReject atomic.Uint64
	// AuthReject counts transport frames discarded because their
	// authentication tag did not verify against the claimed sender — a
	// connection impersonating another node's identity (TCP transport with
	// frame authentication enabled).
	AuthReject atomic.Uint64
}

// Snapshot returns a point-in-time copy of the counters.
func (d *Drops) Snapshot() DropStats {
	return DropStats{
		Mailbox:      d.Mailbox.Load(),
		SendQueue:    d.SendQueue.Load(),
		Encode:       d.Encode.Load(),
		Decode:       d.Decode.Load(),
		NoRoute:      d.NoRoute.Load(),
		VerifyReject: d.VerifyReject.Load(),
		AuthReject:   d.AuthReject.Load(),
	}
}

// DropStats is a snapshot of Drops, aggregatable across sources. Mempool,
// Snapshots, Rounds and Crypto ride along for reporting convenience:
// admission outcomes, checkpoint/GC activity, round filling and signature
// work are accounting, not losses, so Total ignores them.
type DropStats struct {
	Mailbox      uint64        `json:"mailbox"`
	SendQueue    uint64        `json:"send_queue"`
	OutQ         uint64        `json:"out_queue"` // always 0 (no output queue); kept because benchmark/layers.go reads it
	Encode       uint64        `json:"encode"`
	Decode       uint64        `json:"decode"`
	NoRoute      uint64        `json:"no_route"`
	VerifyReject uint64        `json:"verify_reject"`
	AuthReject   uint64        `json:"auth_reject"`
	Mempool      MempoolStats  `json:"mempool"`
	Snapshots    SnapshotStats `json:"snapshots"`
	Rounds       RoundStats    `json:"rounds"`
	Crypto       CryptoStats   `json:"crypto"`
}

// Add accumulates o into s (merging per-node or per-transport snapshots).
func (s *DropStats) Add(o DropStats) {
	s.Mailbox += o.Mailbox
	s.SendQueue += o.SendQueue
	s.Encode += o.Encode
	s.Decode += o.Decode
	s.NoRoute += o.NoRoute
	s.VerifyReject += o.VerifyReject
	s.AuthReject += o.AuthReject
	s.Mempool.Add(o.Mempool)
	s.Snapshots.Add(o.Snapshots)
	s.Rounds.Add(o.Rounds)
	s.Crypto.Add(o.Crypto)
}

// Total returns the sum of all drop classes. Mempool admission outcomes are
// not drops and are excluded.
func (s DropStats) Total() uint64 {
	return s.Mailbox + s.SendQueue + s.Encode + s.Decode + s.NoRoute + s.VerifyReject + s.AuthReject
}

// MempoolStats counts client-request admission outcomes at one replica's
// mempool (internal/mempool), aggregatable across replicas. Every inbound
// request lands in exactly one bucket; Evicted additionally counts admitted
// requests later displaced by capacity pressure.
type MempoolStats struct {
	// Admitted counts first-sighting requests handed to consensus.
	Admitted uint64 `json:"admitted"`
	// Duplicate counts retries (or equivocations) of a still-pending
	// (client, seq), dropped because the original is in flight.
	Duplicate uint64 `json:"duplicate"`
	// Replayed counts requests whose (client, seq) already executed; those
	// inside the replay window are re-replied from the certified ledger.
	Replayed uint64 `json:"replayed"`
	// RateLimited counts requests dropped by the per-client token bucket.
	RateLimited uint64 `json:"rate_limited"`
	// Evicted counts pending requests displaced by capacity pressure.
	Evicted uint64 `json:"evicted"`
}

// Add accumulates o into s.
func (s *MempoolStats) Add(o MempoolStats) {
	s.Admitted += o.Admitted
	s.Duplicate += o.Duplicate
	s.Replayed += o.Replayed
	s.RateLimited += o.RateLimited
	s.Evicted += o.Evicted
}

// RoundStats counts what the global rounds executed at one replica carried
// and what no-op pacing did there (core.Replica), aggregatable across
// replicas. Every replica executes every cluster's batch, so summed over a
// deployment the first two scale with the replica count; their ratio does not.
type RoundStats struct {
	// ClientBatches counts executed batches that carried client transactions.
	ClientBatches uint64 `json:"client_batches"`
	// NoOpBatches counts executed no-op batches: rounds a cluster filled
	// because it had no client load for them. Each cost a full consensus
	// instance, certificate and ledger block.
	NoOpBatches uint64 `json:"noop_batches"`
	// GracesArmed counts grace timers armed by primaries: times a round
	// other clusters had certified was left open for a client batch.
	GracesArmed uint64 `json:"graces_armed"`
	// GraceFilled counts the open rounds client batches took before a grace
	// ran out — rounds that would have been no-ops without pacing.
	GraceFilled uint64 `json:"grace_filled"`
}

// Add accumulates o into s.
func (s *RoundStats) Add(o RoundStats) {
	s.ClientBatches += o.ClientBatches
	s.NoOpBatches += o.NoOpBatches
	s.GracesArmed += o.GracesArmed
	s.GraceFilled += o.GraceFilled
}

// NoOpFrac is the share of executed batches that were no-ops (0 before
// anything executed).
func (s RoundStats) NoOpFrac() float64 {
	if n := s.ClientBatches + s.NoOpBatches; n > 0 {
		return float64(s.NoOpBatches) / float64(n)
	}
	return 0
}

// CryptoStats counts digital-signature work at one replica, aggregatable
// across replicas: what the ed25519 budget of a round actually was, counted
// where the operations run rather than inferred from a profile. Divide by
// executed rounds for the per-round cost.
type CryptoStats struct {
	// Verifies and Signs count the node's crypto.Suite Verify and Sign
	// calls: client requests, remote certificates, proofs of its own
	// cluster's votes; its prepares, commits, checkpoints, read attestations.
	Verifies uint64 `json:"verifies"`
	Signs    uint64 `json:"signs"`
	// BadVoteSigs counts prepare, commit and checkpoint votes that were
	// counted on channel authentication and whose signature then failed when
	// a proof was assembled from them. Non-zero means a member of the
	// replica's own cluster is signing garbage.
	BadVoteSigs uint64 `json:"bad_vote_sigs"`
	// Unprovable counts shows this replica declined because it could not
	// assemble n−f valid signatures from the votes it retains: a catch-up
	// response cut short, a proven read or snapshot refused, a view-change
	// claim sent short. The asker goes to another replica.
	Unprovable uint64 `json:"unprovable"`
	// SharesVouched counts other clusters' certificates this replica
	// accepted without a signature check because f+1 members of its own
	// cluster forwarded identical bytes. SharesSelfVerified counts forwarded
	// certificates it verified itself instead: the forwards were still short
	// of f+1 one grace after the first (a receiver is down, slow or lying),
	// or the round lay beyond the pipeline window. Self-verified over vouched
	// is the fallback fraction; certificates a replica received from the
	// origin cluster and verified on arrival are in neither.
	SharesVouched      uint64 `json:"shares_vouched"`
	SharesSelfVerified uint64 `json:"shares_self_verified"`
}

// Add accumulates o into s.
func (s *CryptoStats) Add(o CryptoStats) {
	s.Verifies += o.Verifies
	s.Signs += o.Signs
	s.BadVoteSigs += o.BadVoteSigs
	s.Unprovable += o.Unprovable
	s.SharesVouched += o.SharesVouched
	s.SharesSelfVerified += o.SharesSelfVerified
}

// SnapshotStats counts checkpoint-snapshot and ledger-GC activity at one
// replica (or aggregated over a deployment's hosted replicas): the bounded-
// history counters operators watch to confirm storage actually stays bounded
// and tampered snapshot material is being rejected rather than installed.
type SnapshotStats struct {
	// Written counts checkpoints this replica captured and published itself.
	Written uint64 `json:"written"`
	// Served counts snapshot manifests and state chunks served to peers.
	Served uint64 `json:"served"`
	// Installed counts snapshots installed from peers or the local archive
	// (the snapshot-bootstrap path of a fresh or far-behind replica).
	Installed uint64 `json:"installed"`
	// Rejected counts tampered or forged snapshot material discarded during
	// verification (also included in DropStats.VerifyReject).
	Rejected uint64 `json:"rejected"`
	// SegmentsReclaimed counts ledger disk segments garbage-collected below
	// durable checkpoints.
	SegmentsReclaimed uint64 `json:"segments_reclaimed"`
	// BytesReclaimed is the total size of the reclaimed segments.
	BytesReclaimed uint64 `json:"bytes_reclaimed"`
	// DiskBytes is the current on-disk size of the hosted block stores.
	DiskBytes uint64 `json:"disk_bytes"`
	// StoreErrs counts replicas whose ledger detached from its block store
	// after a persistence failure (Ledger.StoreErr non-nil): the node runs
	// on, memory-only, but its durability gap must not go unnoticed.
	StoreErrs uint64 `json:"store_errs"`
	// DiskSyncs counts the block stores' commit fsyncs, DiskSyncedBlocks the
	// blocks those made durable. Blocks per sync is the coalescing factor of
	// the durability stage: 1 means every block paid its own fsync.
	DiskSyncs        uint64 `json:"disk_syncs"`
	DiskSyncedBlocks uint64 `json:"disk_synced_blocks"`
	// PersistQueue is a gauge: blocks executed and handed to a persister but
	// not yet written. DurableLag is its companion: ledger height minus
	// durable height, i.e. queued plus in-flight blocks, whose client
	// replies are being held. Both hover near zero on a healthy disk; a
	// stalled one shows here before clients time out.
	PersistQueue uint64 `json:"persist_queue"`
	DurableLag   uint64 `json:"durable_lag"`
}

// Add accumulates o into s.
func (s *SnapshotStats) Add(o SnapshotStats) {
	s.Written += o.Written
	s.Served += o.Served
	s.Installed += o.Installed
	s.Rejected += o.Rejected
	s.SegmentsReclaimed += o.SegmentsReclaimed
	s.BytesReclaimed += o.BytesReclaimed
	s.DiskBytes += o.DiskBytes
	s.StoreErrs += o.StoreErrs
	s.DiskSyncs += o.DiskSyncs
	s.DiskSyncedBlocks += o.DiskSyncedBlocks
	s.PersistQueue += o.PersistQueue
	s.DurableLag += o.DurableLag
}

// Collector accumulates samples. It is safe for concurrent use (the real
// fabric is multi-threaded; the simulator is single-threaded).
type Collector struct {
	mu sync.Mutex

	// measurement window in virtual (or real) time
	windowStart time.Duration
	windowEnd   time.Duration

	txns      int64
	batches   int64
	latencies []time.Duration

	localMsgs   int64
	globalMsgs  int64
	localBytes  int64
	globalBytes int64
}

// NewCollector returns an empty collector. Samples outside
// [windowStart, windowEnd) are ignored; a zero windowEnd means +∞.
func NewCollector(windowStart, windowEnd time.Duration) *Collector {
	return &Collector{windowStart: windowStart, windowEnd: windowEnd}
}

func (c *Collector) inWindow(now time.Duration) bool {
	if now < c.windowStart {
		return false
	}
	return c.windowEnd == 0 || now < c.windowEnd
}

// RecordCompletion records a client-observed batch completion: the batch was
// submitted at submit, completed at now, and carried txns transactions.
func (c *Collector) RecordCompletion(now, submit time.Duration, txns int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.inWindow(now) {
		return
	}
	c.txns += int64(txns)
	c.batches++
	if len(c.latencies) < 1<<21 {
		c.latencies = append(c.latencies, now-submit)
	}
}

// RecordSend records one transmitted message.
func (c *Collector) RecordSend(sameRegion bool, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if sameRegion {
		c.localMsgs++
		c.localBytes += int64(size)
	} else {
		c.globalMsgs++
		c.globalBytes += int64(size)
	}
}

// Txns returns the number of completed transactions inside the window.
func (c *Collector) Txns() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.txns
}

// Batches returns the number of completed batches inside the window.
func (c *Collector) Batches() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.batches
}

// Throughput returns transactions per second over the measurement window,
// where end is the actual end of measurement.
func (c *Collector) Throughput(end time.Duration) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	window := end - c.windowStart
	if c.windowEnd != 0 && c.windowEnd < end {
		window = c.windowEnd - c.windowStart
	}
	if window <= 0 {
		return 0
	}
	return float64(c.txns) / window.Seconds()
}

// LatencyStats summarizes completion latencies.
type LatencyStats struct {
	Count int
	Avg   time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// Latency computes latency statistics over the recorded samples.
func (c *Collector) Latency() LatencyStats {
	c.mu.Lock()
	samples := make([]time.Duration, len(c.latencies))
	copy(samples, c.latencies)
	c.mu.Unlock()

	var st LatencyStats
	st.Count = len(samples)
	if st.Count == 0 {
		return st
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	var sum time.Duration
	for _, s := range samples {
		sum += s
	}
	st.Avg = sum / time.Duration(st.Count)
	st.P50 = samples[st.Count/2]
	st.P95 = samples[min(st.Count-1, st.Count*95/100)]
	st.P99 = samples[min(st.Count-1, st.Count*99/100)]
	st.Max = samples[st.Count-1]
	return st
}

// MessageStats summarizes traffic counts.
type MessageStats struct {
	LocalMsgs, GlobalMsgs   int64
	LocalBytes, GlobalBytes int64
}

// Messages returns the traffic counters.
func (c *Collector) Messages() MessageStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return MessageStats{
		LocalMsgs: c.localMsgs, GlobalMsgs: c.globalMsgs,
		LocalBytes: c.localBytes, GlobalBytes: c.globalBytes,
	}
}
