package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"resilientdb/internal/config"
	"resilientdb/internal/core"
	"resilientdb/internal/pbft"
	"resilientdb/internal/proto"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
)

// Tracing observes the fabric from outside: a pass-through transport.Tap on
// every transport, the Config.OnExecute callback, and the load generator's
// own submit/confirm instants. Nothing inside fabric/core/pbft is touched;
// spans inside those packages are a later instrumentation issue, to be judged
// with this benchmark.

// span is one named interval with the spans it caused.
type span struct {
	Name     string  `json:"name"`
	StartUS  float64 `json:"start_us"` // since the traced run began
	EndUS    float64 `json:"end_us"`
	Children []*span `json:"children,omitempty"`

	// Set on request spans only: the identifier its children share.
	Client int32  `json:"client,omitempty"`
	Seq    uint64 `json:"seq,omitempty"`
	Phase  string `json:"phase,omitempty"`
}

func (s *span) durUS() float64 { return s.EndUS - s.StartUS }

// selfUS is the span's duration minus the part of it its children cover:
// overlapping children count once, and a child reaching outside the parent
// counts only for the part inside.
func (s *span) selfUS() float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, c := range s.Children {
		a, b := c.StartUS, c.EndUS
		if a < s.StartUS {
			a = s.StartUS
		}
		if b > s.EndUS {
			b = s.EndUS
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, edge := 0.0, s.StartUS
	for _, v := range ivs {
		if v.a > edge {
			edge = v.a
		}
		if v.b > edge {
			covered += v.b - edge
			edge = v.b
		}
	}
	return s.durUS() - covered
}

// The four child spans of a request. They tile it: each starts where the
// previous one ends.
const (
	spanAdmit  = "fabric.admit_to_propose" // submit → first PrePrepare with the batch leaves the home primary
	spanLocal  = "pbft.local_commit"       // → the round's GlobalShare leaves the home primary
	spanGlobal = "core.global_order_wait"  // → OnExecute at the (f+1)-th home replica
	spanReply  = "fabric.exec_to_reply"    // → the client holds f+1 matching replies
)

var spanNames = []string{spanAdmit, spanLocal, spanGlobal, spanReply}

// reqTrace collects one sampled request's boundary instants.
type reqTrace struct {
	client types.NodeID
	seq    uint64
	phase  string
	ok     bool

	start, propose, share, exec, done time.Time
	execs                             int // home replicas that have executed it
}

// complete reports whether every boundary was observed.
func (r *reqTrace) complete() bool {
	return r.ok && !r.propose.IsZero() && !r.share.IsZero() && !r.exec.IsZero() && !r.done.IsZero()
}

// spans builds the request span and its four tiling children. Boundaries are
// observed on different goroutines, so one can be seen marginally before its
// predecessor (a backup may execute before the primary's output stage hands
// the share to the transport); each is clamped to its predecessor so the
// children never overlap and always tile the request.
func (r *reqTrace) spans(origin time.Time) *span {
	at := []time.Time{r.start, r.propose, r.share, r.exec, r.done}
	for i := 1; i < len(at); i++ {
		if at[i].Before(at[i-1]) {
			at[i] = at[i-1]
		}
	}
	rel := func(t time.Time) float64 { return us(t.Sub(origin)) }
	req := &span{Name: "request", StartUS: rel(at[0]), EndUS: rel(at[4]), Client: int32(r.client), Seq: r.seq, Phase: r.phase}
	for i, name := range spanNames {
		req.Children = append(req.Children, &span{Name: name, StartUS: rel(at[i]), EndUS: rel(at[i+1])})
	}
	return req
}

// Message classes counted on the Tap.
const (
	mRequest = iota
	mPrePrepare
	mPrepare
	mCommit
	mCheckpoint
	mGlobalShare
	mReply
	mViewChange
	mOther
	nClasses
)

func classOf(msg types.Message) int {
	switch msg.(type) {
	case *pbft.Request:
		return mRequest
	case *pbft.PrePrepare:
		return mPrePrepare
	case *pbft.Prepare:
		return mPrepare
	case *pbft.Commit:
		return mCommit
	case *pbft.Checkpoint:
		return mCheckpoint
	case *core.GlobalShare:
		return mGlobalShare
	case *proto.Reply:
		return mReply
	case *pbft.ViewChange, *pbft.NewView:
		return mViewChange
	}
	return mOther
}

// sizeEvery is how often a message of each class is wire-encoded to learn the
// class's mean size; encoding every message would double the codec work the
// traced run is trying to observe.
const sizeEvery = 64

// sampleEvery: one request in this many carries spans.
const sampleEvery = 10

type reqKey struct {
	client types.NodeID
	seq    uint64
}

type roundKey struct {
	cluster types.ClusterID
	round   uint64
}

// tracer holds everything the traced run records. A nil *tracer is the
// untraced run: every method is a no-op on it.
type tracer struct {
	topo   config.Topology
	origin time.Time

	mu     sync.Mutex
	reqs   map[reqKey]*reqTrace
	rounds map[roundKey]*reqTrace // sampled requests by the round their batch was proposed in

	// Tap counters: messages by class and scope (0 local, 1 global), and the
	// sampled encoded sizes per class.
	msgs     [nClasses][2]atomic.Uint64
	sizedN   [nClasses]atomic.Uint64
	sizedSum [nClasses]atomic.Uint64

	proposed []atomic.Uint64 // per cluster: highest PrePrepare seq seen leaving a replica

	// OnExecute counters at the observer (replica 0 executes every cluster's batches).
	execBatches, noopBatches, execRounds atomic.Uint64

	// One real message of each probed kind, for the layer probes.
	mix struct {
		preprepare atomic.Pointer[pbft.PrePrepare]
		commit     atomic.Pointer[pbft.Commit]
		share      atomic.Pointer[core.GlobalShare]
	}
}

func newTracer(topo config.Topology) *tracer {
	return &tracer{
		topo:     topo,
		origin:   time.Now(),
		reqs:     make(map[reqKey]*reqTrace),
		rounds:   make(map[roundKey]*reqTrace),
		proposed: make([]atomic.Uint64, topo.Clusters),
	}
}

// sampled picks the traced requests. Mixing the client in spreads the sample
// over the clusters: identities in lock-step send the same seq at the same
// time, and seq alone would sample the same instants of every stream.
func sampled(client types.NodeID, seq uint64) bool {
	return (seq+uint64(client))%sampleEvery == 0
}

// begin opens a sampled request's trace at the instant it counts from.
func (t *tracer) begin(client types.NodeID, seq uint64, phase string, start time.Time) {
	if t == nil || !sampled(client, seq) {
		return
	}
	t.mu.Lock()
	t.reqs[reqKey{client, seq}] = &reqTrace{client: client, seq: seq, phase: phase, start: start}
	t.mu.Unlock()
}

// end closes it when the client holds f+1 replies (or gave up).
func (t *tracer) end(client types.NodeID, seq uint64, done time.Time, ok bool) {
	if t == nil || !sampled(client, seq) {
		return
	}
	t.mu.Lock()
	if r := t.reqs[reqKey{client, seq}]; r != nil {
		r.done, r.ok = done, ok
	}
	t.mu.Unlock()
}

// homeCluster is the cluster a client identity submits to.
func (t *tracer) homeCluster(client types.NodeID) types.ClusterID {
	return types.ClusterID(int(client-types.ClientIDBase) % t.topo.Clusters)
}

// tap is the transport.InterceptFn: it never intercepts, only looks.
func (t *tracer) tap(from, to types.NodeID, msg types.Message) ([]transport.Delivery, bool) {
	class := classOf(msg)
	scope := 0
	if !from.IsClient() && !to.IsClient() && t.topo.ClusterOf(from) != t.topo.ClusterOf(to) {
		scope = 1
	}
	if n := t.msgs[class][scope].Add(1); class != mOther && (n-1)%sizeEvery == 0 {
		if buf, err := types.EncodeMessage(msg); err == nil {
			t.sizedN[class].Add(1)
			t.sizedSum[class].Add(uint64(len(buf)))
		}
	}
	switch m := msg.(type) {
	case *pbft.PrePrepare:
		c := t.topo.ClusterOf(from)
		for p := &t.proposed[c]; ; {
			old := p.Load()
			if m.Seq <= old || p.CompareAndSwap(old, m.Seq) {
				break
			}
		}
		if m.Batch.NoOp || !m.Batch.Client.IsClient() {
			break
		}
		t.mix.preprepare.CompareAndSwap(nil, m)
		if sampled(m.Batch.Client, m.Batch.Seq) && c == t.homeCluster(m.Batch.Client) {
			now := time.Now()
			t.mu.Lock()
			if r := t.reqs[reqKey{m.Batch.Client, m.Batch.Seq}]; r != nil && r.propose.IsZero() {
				r.propose = now
				t.rounds[roundKey{c, m.Seq}] = r
			}
			t.mu.Unlock()
		}
	case *core.GlobalShare:
		if t.topo.ClusterOf(from) != m.Cluster {
			break // a relay inside the receiving cluster, not the origin's send
		}
		if m.Cert != nil && !m.Cert.Batch.NoOp {
			t.mix.share.CompareAndSwap(nil, m)
		}
		now := time.Now()
		t.mu.Lock()
		if r := t.rounds[roundKey{m.Cluster, m.Round}]; r != nil && r.share.IsZero() {
			r.share = now
		}
		t.mu.Unlock()
	case *pbft.Commit:
		t.mix.commit.CompareAndSwap(nil, m)
	}
	return nil, false
}

// onExecute is the fabric.Config.OnExecute callback; every replica's worker
// calls it.
func (t *tracer) onExecute(replica types.NodeID, round uint64, cluster types.ClusterID, batch types.Batch) {
	if replica == 0 {
		if batch.NoOp {
			t.noopBatches.Add(1)
		} else {
			t.execBatches.Add(1)
		}
		t.execRounds.Store(round)
	}
	if batch.NoOp || !batch.Client.IsClient() || !sampled(batch.Client, batch.Seq) || t.topo.ClusterOf(replica) != t.homeCluster(batch.Client) {
		return
	}
	now := time.Now()
	t.mu.Lock()
	if r := t.reqs[reqKey{batch.Client, batch.Seq}]; r != nil {
		if r.execs++; r.execs == t.topo.F()+1 {
			r.exec = now
		}
	}
	t.mu.Unlock()
}

// completeSpans returns the request spans of every fully observed sampled
// request of the given phase ("" for all), in start order.
func (t *tracer) completeSpans(phase string) []*span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*span
	for _, r := range t.reqs {
		if r.complete() && (phase == "" || r.phase == phase) {
			out = append(out, r.spans(t.origin))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StartUS < out[j].StartUS })
	return out
}

// wireStats folds the Tap counters into messages and bytes per scope. Bytes
// are each class's count times the mean types.EncodeMessage length of its
// sized samples.
func (t *tracer) wireStats() (msgs, bytes [2]float64) {
	for c := 0; c < nClasses; c++ {
		mean := 0.0
		if n := t.sizedN[c].Load(); n > 0 {
			mean = float64(t.sizedSum[c].Load()) / float64(n)
		}
		for s := 0; s < 2; s++ {
			n := float64(t.msgs[c][s].Load())
			msgs[s] += n
			bytes[s] += n * mean
		}
	}
	return msgs, bytes
}

// traceFile is what -trace-out holds.
type traceFile struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Requests []*span `json:"requests"`
}

func (t *tracer) writeFile(path, workload string, seed int64) error {
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Requests: t.completeSpans("")})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
