package main

import (
	"math/rand"
	"sync"
	"time"

	"resilientdb/internal/config"
	"resilientdb/internal/crypto"
	"resilientdb/internal/fabric"
	"resilientdb/internal/rpc"
)

// readers is the read side of the durable workload: proof-carrying reads
// through the RPC front door at a fixed rate, one sequential reader per
// cluster aimed at a backup (the primary is busy proposing). Fixed-rate on
// purpose — a closed-loop reader that got faster would steal CPU from writes
// and read as a write regression. A traced run adds a slow direct reader
// calling Node.ProvenRead on the same backup, so the RPC layer's share of the
// read latency can be told from the fabric's.
type readers struct {
	d      *deployment
	rate   float64 // reads/s, all clusters together; 0 turns the readers off
	direct bool
	rpc    []*rpc.Client // one per cluster
	keys   []*txnSource  // one per cluster, plus one for the direct reader
	jitter []*rand.Rand  // likewise
	suite  *crypto.Suite
}

// directReadRate is the traced run's direct ProvenRead rate: enough samples
// for a median, too few to load the worker.
const directReadRate = 10

func newReaders(d *deployment, seed int64, direct bool) *readers {
	rd := &readers{d: d, rate: d.w.readRate, direct: direct, suite: readerSuite(d.topo)}
	if rd.rate == 0 {
		return rd
	}
	for c := 0; c <= d.w.clusters; c++ {
		if c < d.w.clusters {
			backup := d.topo.ReplicaID(c, 1)
			rd.rpc = append(rd.rpc, rpc.NewClient("http://"+d.rpcs[backup].Addr(), c, d.topo))
		}
		rd.keys = append(rd.keys, newTxnSource(seed+1000+int64(c)))
		rd.jitter = append(rd.jitter, rand.New(rand.NewSource(seed+2000+int64(c))))
	}
	return rd
}

// readResult is what one phase's reads measured.
type readResult struct {
	latency   []time.Duration // due → verified proof in hand, successful reads
	direct    []time.Duration // Node.ProvenRead + verification, called directly
	attempted int
	failed    int
}

// run reads at the fixed rate from start for dur and returns when the last
// read is answered. Each read falls at a seeded random instant of its period
// — arrivals of independent users — so that no run locks its reads into one
// phase relation with the fabric's own 5 ms tickers.
func (rd *readers) run(start time.Time, dur time.Duration) readResult {
	var res readResult
	if rd.rate == 0 {
		return res
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	z := rd.d.w.clusters
	for c := 0; c < z; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for due := range pace(start, dur, rd.rate/float64(z), rd.jitter[c].Float64) {
				_, err := rd.rpc[c].Read(rd.keys[c].nextKey())
				took := time.Since(due)
				mu.Lock()
				res.attempted++
				if err != nil {
					res.failed++
				} else {
					res.latency = append(res.latency, took)
				}
				mu.Unlock()
			}
		}()
	}
	if rd.direct {
		node := rd.d.nodes[rd.d.topo.ReplicaID(0, 1)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range pace(start, dur, directReadRate, rd.jitter[z].Float64) {
				t0 := time.Now()
				rs, err := node.ProvenRead(rd.keys[z].nextKey(), rpc.DefaultReadTimeout)
				// Verified like rpc.Client.Read verifies, so the two differ by HTTP and JSON alone.
				if err == nil && fabric.VerifyReadState(rd.suite, rd.d.topo, rs) == nil {
					mu.Lock()
					res.direct = append(res.direct, time.Since(t0))
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return res
}

// proofRejects is how many read proofs fabric.VerifyReadState refused.
func (rd *readers) proofRejects() (n uint64) {
	for _, c := range rd.rpc {
		n += c.ProofRejects()
	}
	return n
}

// readerSuite is the key material a verifying reader holds: the replicas'
// public keys, derived the way every process of a deployment derives them.
func readerSuite(topo config.Topology) *crypto.Suite {
	id := config.ClientID(0)
	dir := crypto.NewDirectory(crypto.Real, append(topo.AllReplicas(), id))
	return crypto.NewSuite(dir, id, crypto.FreeCosts(), nil)
}
