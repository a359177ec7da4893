package rpc

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"resilientdb/internal/config"
	"resilientdb/internal/fabric"
	"resilientdb/internal/types"
)

// startRPC boots a single-cluster fabric and an RPC server on its primary.
func startRPC(t *testing.T) (*fabric.Fabric, config.Topology, *Server, string) {
	t.Helper()
	topo := config.NewTopology(1, 4)
	f := fabric.New(fabric.Config{
		Topo:          topo,
		Records:       256,
		LocalTimeout:  400 * time.Millisecond,
		RemoteTimeout: 700 * time.Millisecond,
	})
	t.Cleanup(f.Stop)
	srv := NewServer(f.Node(topo.ReplicaID(0, 0)), topo)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return f, topo, srv, "http://" + addr
}

// TestRPCEndToEnd drives the full front-door flow against a live cluster:
// signed submit through the admission path, executed-status polling, a
// certificate-verified block fetch, and a proof-carrying read whose
// attestation verifies end to end.
func TestRPCEndToEnd(t *testing.T) {
	f, topo, _, base := startRPC(t)
	cl := NewClient(base, 0, topo)

	seq, res, err := cl.Submit([]types.Transaction{{Key: 42, Value: 7}, {Key: 43, Value: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != "admitted" {
		t.Fatalf("submit verdict %q, want admitted", res.Verdict)
	}
	st, err := cl.WaitExecuted(seq, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.Executed == nil || st.Executed.TxnCount != 2 {
		t.Errorf("executed record %+v, want txn_count 2", st.Executed)
	}

	status, err := cl.Status()
	if err != nil {
		t.Fatal(err)
	}
	if status.Height == 0 {
		t.Error("status reports empty ledger after execution")
	}
	if status.Replica != int32(topo.ReplicaID(0, 0)) {
		t.Errorf("status replica %d, want primary", status.Replica)
	}

	blk, err := cl.Block(1)
	if err != nil {
		t.Fatalf("certified block fetch: %v", err)
	}
	if blk.Height != 1 {
		t.Errorf("block height %d, want 1", blk.Height)
	}

	rs, err := cl.Read(42)
	if err != nil {
		t.Fatalf("proven read: %v", err)
	}
	if !rs.Found || rs.Value != 7 {
		t.Errorf("read (found=%v, value=%d), want (true, 7)", rs.Found, rs.Value)
	}
	if cl.ProofRejects() != 0 {
		t.Errorf("honest proofs counted as rejects: %d", cl.ProofRejects())
	}

	// A replayed submit resolves from the replay window without re-entering
	// consensus, and carries the original execution record.
	res2, err := cl.SubmitSeq(seq, []types.Transaction{{Key: 42, Value: 7}, {Key: 43, Value: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Verdict != "replayed" || res2.Executed == nil {
		t.Errorf("retry after execution: verdict %q executed %+v, want replayed with record",
			res2.Verdict, res2.Executed)
	}

	// An absent key still yields a verifiable attestation (of absence).
	miss, err := cl.Read(999999)
	if err != nil {
		t.Fatalf("proven read of absent key: %v", err)
	}
	if miss.Found {
		t.Error("absent key reported found")
	}
	_ = f
}

// TestRPCSubmitRejectsMalformedJSON pins the 400 path: a body that is not
// valid JSON never reaches signature verification or admission.
func TestRPCSubmitRejectsMalformedJSON(t *testing.T) {
	_, _, _, base := startRPC(t)
	resp, err := http.Post(base+"/v1/submit", "application/json",
		strings.NewReader(`{"batch": {"client": 1048576, "seq":`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
}

// TestRPCSubmitRejectsOversizedBody pins the 413 path: the body limit cuts
// the read off before an abusive payload is buffered, since nothing about
// the body can be trusted before its signature is checked.
func TestRPCSubmitRejectsOversizedBody(t *testing.T) {
	f, topo, _, _ := startRPC(t)
	small := NewServer(f.Node(topo.ReplicaID(0, 0)), topo)
	small.MaxBody = 1024
	addr, err := small.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()

	// Valid JSON that only reveals its size past the limit: the decoder must
	// be cut off by the byte budget, not by a syntax error.
	huge := `{"batch":{"client":1048576,"seq":1},"sig":"` +
		strings.Repeat("A", 4096) + `"}`
	resp, err := http.Post("http://"+addr+"/v1/submit", "application/json",
		strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}
}

// TestRPCSubmitRejectsBadSignature pins the 403 path: a well-formed submit
// whose signature does not verify is refused, never admitted, and counted
// in the replica's VerifyReject drops like any other forged message.
func TestRPCSubmitRejectsBadSignature(t *testing.T) {
	f, topo, _, base := startRPC(t)
	cl := NewClient(base, 0, topo)

	b := types.Batch{Client: cl.ID(), Seq: 1, Txns: []types.Transaction{{Key: 1, Value: 2}}}
	b.PrimeDigest()
	body, _ := json.Marshal(SubmitJSON{Batch: batchToJSON(&b), Sig: []byte("forged")})
	resp, err := http.Post(base+"/v1/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("forged signature: status %d, want 403", resp.StatusCode)
	}
	if rejects := f.Stats().VerifyReject; rejects == 0 {
		t.Error("forged submit not counted in VerifyReject drops")
	}

	// The forgery must not have poisoned admission state: the honest client
	// can still use the same (client, seq).
	res, err := cl.SubmitSeq(1, []types.Transaction{{Key: 1, Value: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != "admitted" {
		t.Errorf("honest submit after forgery: verdict %q, want admitted", res.Verdict)
	}
}

// TestRPCClientRejectsTamperedProof pins the verifying client: a read
// response whose value was tampered in flight (or served by a lying
// replica) fails proof verification, is counted, and never surfaces as
// data.
func TestRPCClientRejectsTamperedProof(t *testing.T) {
	_, topo, _, base := startRPC(t)
	honest := NewClient(base, 0, topo)

	seq, _, err := honest.Submit([]types.Transaction{{Key: 77, Value: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := honest.WaitExecuted(seq, 20*time.Second); err != nil {
		t.Fatal(err)
	}

	// Capture a genuine attestation, then serve tampered variants of it.
	resp, err := http.Get(base + "/v1/read?key=77")
	if err != nil {
		t.Fatal(err)
	}
	var genuine ReadJSON
	if err := json.NewDecoder(resp.Body).Decode(&genuine); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	tampered := genuine
	tampered.Value = 500000 // the lie: a different value for the key

	liar := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, &tampered)
	}))
	defer liar.Close()

	victim := NewClient(liar.URL, 0, topo)
	if _, err := victim.Read(77); err == nil {
		t.Fatal("tampered read proof accepted")
	}
	if victim.ProofRejects() != 1 {
		t.Errorf("ProofRejects = %d, want 1", victim.ProofRejects())
	}

	// Tampering with the embedded certificate instead of the value must
	// fail too: the replica signature alone cannot vouch for quorum.
	forged := genuine
	if forged.Block == nil || forged.Block.Cert == nil {
		t.Fatal("genuine read carried no certificate to tamper with")
	}
	cert := *forged.Block.Cert
	cert.Sigs = make([][]byte, len(cert.Sigs))
	for i := range cert.Sigs {
		cert.Sigs[i] = []byte("forged-commit-signature")
	}
	blk := *forged.Block
	blk.Cert = &cert
	forged.Block = &blk
	tampered = forged
	if _, err := victim.Read(77); err == nil {
		t.Fatal("forged certificate accepted")
	}
	if victim.ProofRejects() != 2 {
		t.Errorf("ProofRejects = %d, want 2", victim.ProofRejects())
	}

	// The genuine attestation still verifies through the same code path.
	tampered = genuine
	rs, err := victim.Read(77)
	if err != nil {
		t.Fatalf("genuine proof rejected: %v", err)
	}
	if !rs.Found || rs.Value != 5 {
		t.Errorf("read (found=%v, value=%d), want (true, 5)", rs.Found, rs.Value)
	}
}
