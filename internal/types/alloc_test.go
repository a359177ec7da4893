package types_test

import (
	"testing"

	"resilientdb/internal/core"
	"resilientdb/internal/pbft"
	"resilientdb/internal/proto"
	"resilientdb/internal/types"
)

// Hot-path message shapes sized like the paper's batch-100 messages.

func sampleBatch(n int) types.Batch {
	txns := make([]types.Transaction, n)
	for i := range txns {
		txns[i] = types.Transaction{Key: uint64(i), Value: uint64(i * 7)}
	}
	return types.Batch{Client: types.ClientIDBase + 3, Seq: 42, Txns: txns}
}

// samplePrePrepare builds a batch-100 proposal (the paper's 5.4 kB message).
func samplePrePrepare() *pbft.PrePrepare {
	b := sampleBatch(100)
	return &pbft.PrePrepare{View: 2, Seq: 77, Digest: b.Digest(), Batch: b}
}

// sampleGlobalShare builds a certificate share with a batch-100 request and
// a 3-signer commit certificate (the paper's 6.4 kB message).
func sampleGlobalShare() *core.GlobalShare {
	b := sampleBatch(100)
	sig := make([]byte, 64)
	for i := range sig {
		sig[i] = byte(i)
	}
	cert := &pbft.Certificate{
		View: 1, Seq: 9, Digest: b.Digest(), Batch: b,
		Signers: []types.NodeID{0, 1, 2},
		Sigs:    [][]byte{sig, sig, sig},
	}
	return &core.GlobalShare{Cluster: 1, Round: 9, Cert: cert}
}

func sampleReply() *proto.Reply {
	return &proto.Reply{Client: types.ClientIDBase, ClientSeq: 8, Replica: 3,
		TxnCount: 100, Result: types.Hash([]byte("result"))}
}

// TestDecodeDigestCached pins the decode-time digest cache: DecodeBatch
// hashes the consumed wire bytes once, so reading the batch digest after
// decoding adds zero allocations and zero re-encoding work on top of the
// decode itself — the digest no longer gets recomputed in the hot-path
// consumers (preprepare checks, certificate verification, ledger appends).
func TestDecodeDigestCached(t *testing.T) {
	for _, tc := range []struct {
		name   string
		msg    types.Message
		digest func(types.Message) types.Digest
	}{
		{"preprepare", samplePrePrepare(), func(m types.Message) types.Digest {
			return m.(*pbft.PrePrepare).Batch.Digest()
		}},
		{"globalshare", sampleGlobalShare(), func(m types.Message) types.Digest {
			return m.(*core.GlobalShare).Cert.Batch.Digest()
		}},
	} {
		enc, err := types.EncodeMessage(tc.msg)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := types.DecodeMessage(enc)
		if err != nil {
			t.Fatal(err)
		}
		// Correctness: the cached digest equals a from-scratch recomputation.
		var want types.Digest
		switch m := decoded.(type) {
		case *pbft.PrePrepare:
			want = m.Batch.RecomputedDigest()
		case *core.GlobalShare:
			want = m.Cert.Batch.RecomputedDigest()
		}
		if got := tc.digest(decoded); got != want {
			t.Fatalf("%s: cached digest %s != recomputed %s", tc.name, got.Short(), want.Short())
		}
		// Allocation contract: decode+digest must not allocate beyond decode
		// alone (the digest is free once decoded).
		decodeOnly := testing.AllocsPerRun(200, func() {
			if _, err := types.DecodeMessage(enc); err != nil {
				panic(err)
			}
		})
		decodePlusDigest := testing.AllocsPerRun(200, func() {
			m, err := types.DecodeMessage(enc)
			if err != nil {
				panic(err)
			}
			_ = tc.digest(m)
		})
		if decodePlusDigest > decodeOnly {
			t.Errorf("%s: decode+digest allocates %.1f/op, decode alone %.1f/op; digest must be free after decode",
				tc.name, decodePlusDigest, decodeOnly)
		}
	}
}

// TestPooledEncodeAllocatesLess pins the point of the encoder pool: encoding
// through GetEncoder/Release allocates strictly less than NewEncoder-backed
// EncodeMessage for every hot-path message shape.
func TestPooledEncodeAllocatesLess(t *testing.T) {
	encodePooled := func(m types.Message) {
		enc := types.GetEncoder()
		defer enc.Release()
		if err := types.AppendMessage(enc, m); err != nil {
			panic(err)
		}
	}
	encodeUnpooled := func(m types.Message) {
		if _, err := types.EncodeMessage(m); err != nil {
			panic(err)
		}
	}
	for _, tc := range []struct {
		name string
		msg  types.Message
	}{
		{"preprepare", samplePrePrepare()},
		{"globalshare", sampleGlobalShare()},
		{"reply", sampleReply()},
	} {
		// Warm the pool so the steady state is measured.
		encodePooled(tc.msg)
		pooled := testing.AllocsPerRun(200, func() { encodePooled(tc.msg) })
		unpooled := testing.AllocsPerRun(200, func() { encodeUnpooled(tc.msg) })
		if pooled >= unpooled {
			t.Errorf("%s: pooled encode allocates %.1f/op, unpooled %.1f/op; want pooled < unpooled",
				tc.name, pooled, unpooled)
		}
		// sync.Pool drops items at random under the race detector, so the
		// zero-steady-state bound only holds in normal builds.
		if !raceEnabled && pooled > 1 {
			t.Errorf("%s: pooled encode allocates %.1f/op; want ≤1", tc.name, pooled)
		}
	}
}
