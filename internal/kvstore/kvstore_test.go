package kvstore

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"resilientdb/internal/types"
)

func TestPreload(t *testing.T) {
	s := New(100)
	if s.Len() != 100 {
		t.Fatalf("Len = %d", s.Len())
	}
	v, ok := s.Get(42)
	if !ok || v != 42 {
		t.Errorf("Get(42) = %d, %v", v, ok)
	}
	if _, ok := s.Get(100); ok {
		t.Error("key 100 should not exist")
	}
	// The preloaded table costs no row memory: a chunk is allocated only
	// when a key in it is written.
	allocated := func() (n int) {
		for _, c := range s.chunks {
			if c != nil {
				n++
			}
		}
		return n
	}
	if n := allocated(); n != 0 {
		t.Errorf("New allocated %d chunks", n)
	}
	s.Apply(types.Transaction{Key: 70, Value: 1})
	if v, _ := s.Get(70); v != 1 || allocated() != 1 {
		t.Errorf("after one write: Get(70) = %d, %d chunks allocated; want 1, 1", v, allocated())
	}
	if v, _ := s.Get(71); v != 71 {
		t.Errorf("Get(71) = %d beside a written row", v)
	}
}

func TestApplyAndDigest(t *testing.T) {
	a, b := New(10), New(10)
	if a.Digest() != b.Digest() {
		t.Fatal("fresh stores differ")
	}
	txn := types.Transaction{Key: 3, Value: 77}
	a.Apply(txn)
	if a.Digest() == b.Digest() {
		t.Error("digest unchanged after write")
	}
	b.Apply(txn)
	if a.Digest() != b.Digest() {
		t.Error("same writes, different digests")
	}
	v, _ := a.Get(3)
	if v != 77 {
		t.Errorf("Get(3) = %d", v)
	}
	if a.Applied() != 1 {
		t.Errorf("Applied = %d", a.Applied())
	}
}

func TestOrderSensitivity(t *testing.T) {
	// The digest is a chain: applying the same writes in different orders
	// must differ (execution order is part of replicated state).
	a, b := New(10), New(10)
	t1 := types.Transaction{Key: 1, Value: 10}
	t2 := types.Transaction{Key: 1, Value: 20}
	a.Apply(t1)
	a.Apply(t2)
	b.Apply(t2)
	b.Apply(t1)
	if a.Digest() == b.Digest() {
		t.Error("different orders produced the same digest")
	}
}

func TestNoOpBatchLeavesStateUntouched(t *testing.T) {
	s := New(10)
	before := s.Digest()
	noop := types.Batch{NoOp: true}
	s.ApplyBatch(&noop)
	if s.Digest() != before {
		t.Error("no-op batch changed state")
	}
}

// Property: two stores applying the same batch sequence agree on digest and
// contents.
func TestReplicaAgreementProperty(t *testing.T) {
	f := func(keys []uint64, vals []uint64) bool {
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		if n > 100 {
			n = 100
		}
		a, b := New(16), New(16)
		batch := types.Batch{}
		for i := 0; i < n; i++ {
			batch.Txns = append(batch.Txns, types.Transaction{Key: keys[i] % 64, Value: vals[i]})
		}
		a.ApplyBatch(&batch)
		b.ApplyBatch(&batch)
		if a.Digest() != b.Digest() {
			return false
		}
		for i := 0; i < n; i++ {
			va, _ := a.Get(keys[i] % 64)
			vb, _ := b.Get(keys[i] % 64)
			if va != vb {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkApply(b *testing.B) {
	s := New(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Apply(types.Transaction{Key: uint64(i) % 1000, Value: uint64(i)})
	}
}

// refSerialize is the encoding Serialize must produce, computed the plain
// way from a map of the rows: header, then every row in ascending key order.
func refSerialize(applied, digest uint64, rows map[uint64]uint64) []byte {
	keys := make([]uint64, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]byte, 0, 24+16*len(keys))
	var buf [8]byte
	for _, v := range []uint64{applied, digest, uint64(len(keys))} {
		put64(buf[:], v)
		out = append(out, buf[:]...)
	}
	for _, k := range keys {
		put64(buf[:], k)
		out = append(out, buf[:]...)
		put64(buf[:], rows[k])
		out = append(out, buf[:]...)
	}
	return out
}

// TestSpillKeysRoundTrip: keys outside the preloaded range — an RPC client
// may write any key — live beside the dense rows without changing anything
// observable: Get, Len, and the serialized bytes (so the snapshot state hash)
// are what a plain map of the rows gives, and a restore brings all of it
// back, into a store preloaded with a different table size too.
func TestSpillKeysRoundTrip(t *testing.T) {
	s := New(8)
	ref := map[uint64]uint64{}
	for i := uint64(0); i < 8; i++ {
		ref[i] = i
	}
	writes := []types.Transaction{
		{Key: 3, Value: 30}, {Key: 8, Value: 80}, {Key: 1 << 40, Value: 7},
		{Key: 12, Value: 1}, {Key: 8, Value: 81}, {Key: 7, Value: 70},
	}
	for _, w := range writes {
		s.Apply(w)
		ref[w.Key] = w.Value
	}
	if s.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(ref))
	}
	for k, want := range ref {
		if got, ok := s.Get(k); !ok || got != want {
			t.Errorf("Get(%d) = %d, %v; want %d", k, got, ok, want)
		}
	}
	if _, ok := s.Get(9); ok {
		t.Error("Get(9): a key never written exists")
	}
	state := s.Serialize()
	if want := refSerialize(s.applied, s.digest, ref); !bytes.Equal(state, want) {
		t.Fatalf("Serialize differs from the ascending-key encoding of the rows:\n got %x\nwant %x", state, want)
	}
	for _, records := range []int{0, 8, 100} {
		r := New(records)
		if err := r.Restore(state); err != nil {
			t.Fatalf("Restore into New(%d): %v", records, err)
		}
		if r.Len() != s.Len() || r.Digest() != s.Digest() || !bytes.Equal(r.Serialize(), state) {
			t.Errorf("New(%d) after Restore: Len %d digest %v, want %d %v and identical bytes", records, r.Len(), r.Digest(), s.Len(), s.Digest())
		}
		r.Apply(types.Transaction{Key: 9, Value: 90}) // a gap key after restore
		if v, ok := r.Get(9); !ok || v != 90 || r.Len() != s.Len()+1 {
			t.Errorf("New(%d): write after Restore: Get(9) = %d, %v; Len %d", records, v, ok, r.Len())
		}
	}
}

// TestRestoreAcceptsAnyRowOrder: Restore never required sorted or distinct
// rows (a later row for a key wins); the result must not depend on where the
// dense prefix happens to end.
func TestRestoreAcceptsAnyRowOrder(t *testing.T) {
	rows := [][2]uint64{{0, 1}, {1, 2}, {5, 50}, {2, 20}, {1, 3}, {5, 51}}
	data := make([]byte, 24+16*len(rows))
	put64(data[0:8], 6)
	put64(data[8:16], 0xabc)
	put64(data[16:24], uint64(len(rows)))
	for i, r := range rows {
		put64(data[24+16*i:], r[0])
		put64(data[32+16*i:], r[1])
	}
	s := New(3)
	if err := s.Restore(data); err != nil {
		t.Fatal(err)
	}
	want := map[uint64]uint64{0: 1, 1: 3, 2: 20, 5: 51}
	if s.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(want))
	}
	if !bytes.Equal(s.Serialize(), refSerialize(6, 0xabc, want)) {
		t.Errorf("Serialize after an unordered Restore: %x", s.Serialize())
	}
}

func BenchmarkNew100k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		New(100_000)
	}
}

// TestSerializeGolden pins the bytes Serialize produces — the snapshot state
// hash is their SHA-256, so a change of representation must not move them —
// for a freshly preloaded table and after a fixed run of writes that
// includes a spill key, a key in the last, partial chunk, and a rewrite of a
// preloaded row to its own value.
func TestSerializeGolden(t *testing.T) {
	s := New(1000)
	check := func(stage, want string) {
		t.Helper()
		state := s.Serialize()
		if got := fmt.Sprintf("%x", sha256.Sum256(state)); got != want {
			t.Errorf("%s: sha256(Serialize()) = %s, want %s", stage, got, want)
		}
		r := New(0)
		if err := r.Restore(state); err != nil {
			t.Fatalf("%s: Restore: %v", stage, err)
		}
		if !bytes.Equal(r.Serialize(), state) || r.Digest() != s.Digest() || r.Len() != s.Len() {
			t.Errorf("%s: Restore(Serialize()) does not round-trip", stage)
		}
	}
	check("New(1000)", "82d0ca3400fecf2a5733b96ac1d9693f9b43d5cf312d6677a1d3331bd7789bce")
	for _, w := range []types.Transaction{
		{Key: 0, Value: 99}, {Key: 999, Value: 0}, {Key: 5, Value: 5},
		{Key: 1000, Value: 1}, {Key: 1 << 40, Value: 1 << 41}, {Key: 17, Value: 0},
		{Key: 0, Value: 0},
	} {
		s.Apply(w)
	}
	check("after writes", "07477c557b842d584c385dc76640e1a3235f264829f4ef51886319e7598c033e")
}
