package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"resilientdb/internal/config"
	"resilientdb/internal/core"
	"resilientdb/internal/crypto"
	"resilientdb/internal/kvstore"
	"resilientdb/internal/ledger"
	"resilientdb/internal/ledger/disk"
	"resilientdb/internal/mempool"
	"resilientdb/internal/pbft"
	"resilientdb/internal/snapshot"
	"resilientdb/internal/types"
)

// Layer probes: isolated calls into each package's public functions, fed the
// real messages captured on the Tap. A probe says what one call costs on this
// host; multiplied by the Tap's counts it says how much of a workload's CPU a
// layer can account for, which is the floor under the layer table.

const (
	probeCalls = 2048 // per probe, timed in groups so the clock's own cost is amortised
	probeGroup = 16
)

// medianUS times fn over calls invocations, in groups, and returns the median
// group's cost per call in µs.
func medianUS(calls, group int, fn func()) float64 {
	per := make([]float64, 0, calls/group)
	for i := 0; i < calls/group; i++ {
		t0 := time.Now()
		for j := 0; j < group; j++ {
			fn()
		}
		per = append(per, us(time.Since(t0))/float64(group))
	}
	return median(per)
}

// probe is medianUS at the standard call count.
func probe(fn func()) float64 { return medianUS(probeCalls, probeGroup, fn) }

// allocsPerCall counts heap allocations per call of fn.
func allocsPerCall(calls int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(calls)
}

// firstSample is the codec registry's sample of a message type: the fallback
// when a run never sent one past the Tap.
func firstSample[M types.Message](tag string) (m M) {
	for _, s := range types.SampleMessages(tag) {
		if typed, ok := s.(M); ok {
			return typed
		}
	}
	return m
}

// runProbes measures every layer probe and returns them by metric name.
func runProbes(topo config.Topology, tr *tracer, seed int64, dataRoot string) (map[string]float64, error) {
	out := map[string]float64{}
	pp, commit, share := tr.mix.preprepare.Load(), tr.mix.commit.Load(), tr.mix.share.Load()
	if pp == nil {
		pp = firstSample[*pbft.PrePrepare]("pbft/preprepare")
	}
	if commit == nil {
		commit = firstSample[*pbft.Commit]("pbft/commit")
	}
	if share == nil {
		share = firstSample[*core.GlobalShare]("geobft/share")
	}
	if pp == nil || commit == nil || share == nil || share.Cert == nil {
		return nil, fmt.Errorf("probes: no preprepare, commit or certificate share captured, and none registered")
	}

	// types: the wire codec, on the two messages that carry a whole batch.
	ppWire, err := types.EncodeMessage(pp)
	if err != nil {
		return nil, err
	}
	shareWire, err := types.EncodeMessage(share)
	if err != nil {
		return nil, err
	}
	out["types.encode_preprepare_us"] = probe(func() {
		enc := types.GetEncoder() // the pooled path transport.TCP encodes on
		types.AppendMessage(enc, pp)
		enc.Release()
	})
	out["types.decode_preprepare_us"] = probe(func() { types.DecodeMessage(ppWire) })
	out["types.decode_globalshare_us"] = probe(func() { types.DecodeMessage(shareWire) })
	out["types.decode_globalshare_allocs"] = allocsPerCall(probeCalls, func() { types.DecodeMessage(shareWire) })

	// crypto: one signature, one verification, and the frame MAC per KiB.
	dir := crypto.NewDirectory(crypto.Real, append(topo.AllReplicas(), config.ClientID(0)))
	signer := crypto.NewSuite(dir, commit.Replica, crypto.FreeCosts(), nil)
	verifier := crypto.NewSuite(dir, topo.ReplicaID(0, 0), crypto.FreeCosts(), nil)
	payload := pbft.CommitPayload(commit.View, commit.Seq, commit.Digest)
	sig := signer.Sign(payload)
	out["crypto.sign_us"] = probe(func() { signer.Sign(payload) })
	out["crypto.verify_us"] = probe(func() { verifier.Verify(commit.Replica, payload, sig) })
	mac := crypto.NewFrameMAC(crypto.Real)
	kib := float64(len(ppWire)) / 1024
	a, b := topo.ReplicaID(0, 0), topo.ReplicaID(0, 1)
	tag := mac.Tag(a, b, ppWire)
	out["crypto.framemac_tag_us_per_kb"] = probe(func() { mac.Tag(a, b, ppWire) }) / kib
	out["crypto.framemac_verify_us_per_kb"] = probe(func() { mac.Verify(a, b, ppWire, tag) }) / kib

	// pbft and core: the state-independent checks the verify stage runs per message.
	members := topo.ClusterMembers(int(share.Cluster))
	quorum := topo.PerCluster - topo.F()
	out["pbft.preverify_commit_us"] = probe(func() { pbft.PreVerify(verifier, commit.Replica, commit) })
	out["pbft.cert_verify_us"] = probe(func() { share.Cert.Verify(verifier, members, quorum) })
	other := (int(share.Cluster) + 1) % topo.Clusters // a replica of another cluster receives the share
	receiver := core.NewReplica(core.Config{Topo: topo, Self: topo.ReplicaID(other, 0)})
	from := topo.ReplicaID(int(share.Cluster), 0)
	out["core.preverify_globalshare_us"] = probe(func() { receiver.PreVerify(verifier, from, share) })

	// mempool: first sighting of a request, rate limiting off so the probe
	// measures admission and not the token bucket's refusal.
	pool := mempool.New(mempool.Config{PerClientRate: -1})
	digest := pp.Batch.Digest()
	var seq uint64
	out["mempool.precheck_us"] = probe(func() {
		seq++
		pool.Precheck(pp.Batch.Client, seq, digest)
	})
	seq = 0
	out["mempool.admit_us"] = probe(func() {
		seq++
		pool.Admit(pp.Batch.Client, seq, digest)
	})

	// kvstore and ledger: execute one batch, append one certified block.
	src := newTxnSource(seed)
	batches := make([]types.Batch, 64)
	for i := range batches {
		batches[i] = types.Batch{Client: config.ClientID(0), Seq: uint64(i + 1), Txns: src.next()}
		batches[i].PrimeDigest()
	}
	store := kvstore.New(records)
	var k int
	out["kvstore.apply_batch_us"] = probe(func() {
		store.ApplyBatch(&batches[k%len(batches)])
		k++
	})
	appendTo := func(l *ledger.Ledger) func() {
		var round uint64
		return func() {
			round++
			l.AppendCertified(round, 0, batches[round%uint64(len(batches))], share.Cert)
		}
	}
	out["ledger.append_certified_us"] = probe(appendTo(ledger.New()))
	for _, mode := range []struct {
		name string
		opts disk.Options
	}{
		{"ledger.disk_append_fsync_us", disk.Options{}}, // the shipped default: fsync per commit
		{"ledger.disk_append_group_us", disk.Options{GroupCommit: 5 * time.Millisecond}},
	} {
		dirPath, err := os.MkdirTemp(dataRoot, "probe-")
		if err != nil {
			return nil, err
		}
		st, _, err := disk.Open(dirPath, core.BlockCodec{}, mode.opts)
		if err != nil {
			os.RemoveAll(dirPath)
			return nil, err
		}
		l := ledger.New()
		l.SetStore(st)
		out[mode.name] = probe(appendTo(l))
		storeErr := l.StoreErr()
		st.Close()
		os.RemoveAll(dirPath)
		if storeErr != nil {
			return nil, fmt.Errorf("probes: %s: %w", mode.name, storeErr)
		}
	}

	// Snapshots: no workload turns them on (a known gap), so their two costs
	// are recorded here only — serialise a 100k-row table, build its manifest.
	var state []byte
	out["kvstore.serialize_ms_100k"] = medianUS(5, 1, func() { state = store.Serialize() }) / 1000
	hist := make([]types.Digest, topo.Clusters)
	out["snapshot.build_ms_100k"] = medianUS(5, 1, func() {
		snapshot.Build(share.Round, topo.Clusters, types.Digest{}, share.Cert, hist, state)
	}) / 1000

	// core: whole rounds on one goroutine. A multiple of the checkpoint
	// interval, so every run sees the same number of checkpoint messages.
	out["core.inline_round_us"], out["core.inline_msgs_per_round"], err = inlineRounds(topo, 300, seed)
	return out, err
}
