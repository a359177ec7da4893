// Package ycsb generates workloads in the style of the Yahoo! Cloud Serving
// Benchmark, which the paper's evaluation uses: write transactions over an
// active set of 600k records with Zipfian-distributed keys (Section 4).
package ycsb

import (
	"hash/fnv"
	"math"
	"math/rand"
	"sync"

	"resilientdb/internal/types"
)

// DefaultRecords is the paper's active record count.
const DefaultRecords = 600_000

// DefaultTheta is YCSB's standard Zipfian skew constant.
const DefaultTheta = 0.99

// Zipfian draws integers in [0, items) with a Zipfian distribution, using
// the Gray et al. algorithm as popularized by the YCSB generator.
type Zipfian struct {
	items      uint64
	theta      float64
	alpha      float64
	zetan      float64
	zeta2theta float64
	eta        float64
}

// NewZipfian constructs a generator over [0, items) with skew theta.
func NewZipfian(items uint64, theta float64) *Zipfian {
	z := &Zipfian{items: items, theta: theta}
	z.zetan = zeta(items, theta)
	z.zeta2theta = zeta(2, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(items), 1-theta)) / (1 - z.zeta2theta/z.zetan)
	return z
}

// zetas memoizes zeta: it sums n powers, and every client of a deployment
// builds its generator over the same n.
var zetas sync.Map // [2]float64{n, theta} → float64

func zeta(n uint64, theta float64) float64 {
	if v, ok := zetas.Load([2]float64{float64(n), theta}); ok {
		return v.(float64)
	}
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1.0 / math.Pow(float64(i), theta)
	}
	zetas.Store([2]float64{float64(n), theta}, sum)
	return sum
}

// Next draws the next value using r.
func (z *Zipfian) Next(r *rand.Rand) uint64 {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return 1
	}
	return uint64(float64(z.items) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// Workload produces YCSB-style write batches. Keys follow a scrambled
// Zipfian distribution (hot items spread across the key space, as in YCSB);
// values are unique so every write changes state.
type Workload struct {
	records uint64
	zipf    *Zipfian
	rng     *rand.Rand
	nextVal uint64
}

// NewWorkload returns a workload over records rows with Zipfian skew theta,
// seeded deterministically.
func NewWorkload(records int, theta float64, seed int64) *Workload {
	if records <= 0 {
		records = DefaultRecords
	}
	return &Workload{
		records: uint64(records),
		zipf:    NewZipfian(uint64(records), theta),
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// NextTxn draws one write transaction.
func (w *Workload) NextTxn() types.Transaction {
	raw := w.zipf.Next(w.rng)
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(raw >> (8 * i))
	}
	h.Write(buf[:])
	w.nextVal++
	return types.Transaction{Key: h.Sum64() % w.records, Value: w.nextVal}
}

// MakeBatch assembles a batch of size transactions for the given client.
func (w *Workload) MakeBatch(client types.NodeID, seq uint64, size int) types.Batch {
	txns := make([]types.Transaction, size)
	for i := range txns {
		txns[i] = w.NextTxn()
	}
	return types.Batch{Client: client, Seq: seq, Txns: txns}
}
