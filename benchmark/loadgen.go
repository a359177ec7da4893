package main

import (
	"math/rand"
	"sync"
	"time"

	"resilientdb/internal/config"
	"resilientdb/internal/fabric"
	"resilientdb/internal/types"
	"resilientdb/internal/ycsb"
)

// txnSource hands out YCSB write batches for one cluster's identities. One
// Zipfian table per cluster (building one costs ~100k pow calls, too much per
// identity), shared under a lock: the stream of batches is a function of the
// seed alone; which identity carries which batch depends on timing.
type txnSource struct {
	mu  sync.Mutex
	gen *ycsb.Workload
}

func newTxnSource(seed int64) *txnSource {
	return &txnSource{gen: ycsb.NewWorkload(records, ycsb.DefaultTheta, seed)}
}

func (s *txnSource) next() []types.Transaction {
	s.mu.Lock()
	defer s.mu.Unlock()
	txns := make([]types.Transaction, batchSize)
	for i := range txns {
		txns[i] = s.gen.NextTxn()
	}
	return txns
}

func (s *txnSource) nextKey() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen.NextTxn().Key
}

// identity is one client identity: strictly sequential, so its k-th Submit
// carries sequence number k (fabric.Client numbers from 1). A pipelined
// identity could have seq k+1 execute before seq k arrives, after which the
// replicas class seq k as already executed and never answer it; one request
// in flight per identity avoids that load-generator hazard.
type identity struct {
	cl      *fabric.Client
	id      types.NodeID
	cluster int
	slot    int // index among its cluster's identities
	src     *txnSource
	mark    *workMark

	// sent[k-1] is the digest of the batch submitted as seq k; acked[k-1]
	// whether f+1 replicas confirmed it. The correctness gate checks the
	// ledgers against these.
	sent  []types.Digest
	acked []bool
}

// sample is one timed request.
type sample struct {
	start time.Time // the instant it counts from: its due time (open loop) or its submission (closed loop)
	sent  time.Time // when the generator actually sent it
	done  time.Time // when the client held f+1 matching replies, or gave up
	ok    bool
}

func (s sample) latency() time.Duration { return s.done.Sub(s.start) }

// late is how long after its due time the generator sent an open-loop request.
func (s sample) late() time.Duration { return s.sent.Sub(s.start) }

// submit sends one batch and waits for f+1 replies. start is the instant the
// request counts from: its due time in an open loop, now in a closed one.
func (id *identity) submit(txns []types.Transaction, start time.Time, phase string, tr *tracer) sample {
	seq := uint64(len(id.sent) + 1)
	b := types.Batch{Client: id.id, Seq: seq, Txns: txns}
	id.sent = append(id.sent, b.Digest())
	sent := time.Now()
	tr.begin(id.id, seq, phase, start)
	err := id.cl.Submit(txns, submitTimeout)
	done := time.Now()
	tr.end(id.id, seq, done, err == nil)
	id.acked = append(id.acked, err == nil)
	if err == nil {
		id.mark.confirm()
	}
	return sample{start: start, sent: sent, done: done, ok: err == nil}
}

// dueTime is the k-th due instant of an open loop at rate per second that
// started at start. offset, in periods, shifts it within its slot.
func dueTime(start time.Time, rate float64, k int, offset float64) time.Time {
	return start.Add(time.Duration((float64(k) + offset) / rate * float64(time.Second)))
}

// pace emits the due instants of an open loop at rate per second from start
// until start+dur, each at (never before) its due time, into a channel deep
// enough that the pacer never blocks on slow consumers: a stall downstream
// delays requests, it does not thin the schedule. offset places each instant
// within its period (0 ≤ offset() < 1).
func pace(start time.Time, dur time.Duration, rate float64, offset func() float64) <-chan time.Time {
	out := make(chan time.Time, int(dur.Seconds()*rate)+1) // the whole schedule fits: sends never block
	go func() {
		defer close(out)
		wait := newWaiter()
		defer wait.close()
		end := start.Add(dur)
		for k := 0; ; k++ {
			due := dueTime(start, rate, k, offset())
			if !due.Before(end) {
				return
			}
			wait.until(due)
			out <- due
		}
	}()
	return out
}

// runPaced drives an open loop: one pacer per cluster, each cluster's
// identities taking due requests as they come free. Each request falls at a
// seeded random instant of its period, independently per cluster: arrivals of
// independent users. A rigid schedule locks a run into one phase relation
// between the clusters' requests, and the share of requests that meet another
// cluster's in their round — and with it the median — then differs from run to
// run.
func runPaced(ids []*identity, clusters int, rate float64, seed int64, phase string, start time.Time, dur time.Duration, tr *tracer) []sample {
	due := make([]<-chan time.Time, clusters)
	for c := range due {
		due[c] = pace(start, dur, rate/float64(clusters), rand.New(rand.NewSource(seed+int64(c))).Float64)
	}
	return gather(ids, func(id *identity) (mine []sample) {
		for {
			txns := id.src.next() // generated before the wait, not on the timed path
			t, open := <-due[id.cluster]
			if !open {
				return mine
			}
			mine = append(mine, id.submit(txns, t, phase, tr))
		}
	})
}

// runClosed drives a closed loop: each identity submits its next batch as soon
// as the previous one is confirmed, until end. Requests in flight at end are
// waited for (identities stay sequential); the caller counts by done time. The
// identity count is the load: one per cluster is a client sending one request
// after another, satPerCluster of them saturate the fabric.
func runClosed(ids []*identity, end time.Time, phase string, tr *tracer) []sample {
	return gather(ids, func(id *identity) (mine []sample) {
		for time.Now().Before(end) {
			mine = append(mine, id.submit(id.src.next(), time.Now(), phase, tr))
		}
		return mine
	})
}

// firstSlots picks the first n identities of every cluster.
func firstSlots(ids []*identity, n int) (out []*identity) {
	for _, id := range ids {
		if id.slot < n {
			out = append(out, id)
		}
	}
	return out
}

// gather runs drive for every identity at once and returns all their samples
// when the last one is done.
func gather(ids []*identity, drive func(*identity) []sample) []sample {
	var mu sync.Mutex
	var all []sample
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := drive(id)
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all
}

// newIdentities wraps the deployment's clients, one txnSource per cluster.
func newIdentities(d *deployment, seed int64, mark *workMark) []*identity {
	z := d.w.clusters
	srcs := make([]*txnSource, z)
	for c := range srcs {
		srcs[c] = newTxnSource(seed + int64(c))
	}
	ids := make([]*identity, len(d.clients))
	for i, cl := range d.clients {
		ids[i] = &identity{cl: cl, id: config.ClientID(i), cluster: i % z, slot: i / z, src: srcs[i%z], mark: mark}
	}
	return ids
}
