package pbft

import (
	"testing"

	"resilientdb/internal/crypto"
	"resilientdb/internal/types"
)

func testSuites(n int) (*crypto.Directory, []*crypto.Suite) {
	ids := make([]types.NodeID, n)
	for i := range ids {
		ids[i] = types.NodeID(i)
	}
	dir := crypto.NewDirectory(crypto.Real, ids)
	suites := make([]*crypto.Suite, n)
	for i := range suites {
		suites[i] = crypto.NewSuite(dir, ids[i], crypto.FreeCosts(), nil)
	}
	return dir, suites
}

func makeCert(suites []*crypto.Suite, signers []int, view, seq uint64) *Certificate {
	b := types.Batch{Client: types.ClientIDBase, Seq: seq,
		Txns: []types.Transaction{{Key: 9, Value: seq}}}
	cert := &Certificate{View: view, Seq: seq, Digest: b.Digest(), Batch: b}
	payload := CommitPayload(view, seq, cert.Digest)
	for _, s := range signers {
		cert.Signers = append(cert.Signers, types.NodeID(s))
		cert.Sigs = append(cert.Sigs, suites[s].Sign(payload))
	}
	return cert
}

func TestCertificateVerifyAccepts(t *testing.T) {
	_, suites := testSuites(4)
	cert := makeCert(suites, []int{0, 1, 2}, 0, 7)
	members := []types.NodeID{0, 1, 2, 3}
	if !cert.Verify(suites[3], members, 3) {
		t.Fatal("valid certificate rejected")
	}
}

func TestCertificateVerifyRejectsForgery(t *testing.T) {
	_, suites := testSuites(4)
	members := []types.NodeID{0, 1, 2, 3}

	// Too few signatures.
	cert := makeCert(suites, []int{0, 1}, 0, 7)
	if cert.Verify(suites[3], members, 3) {
		t.Error("accepted certificate below quorum")
	}

	// Duplicate signer padding.
	cert = makeCert(suites, []int{0, 1, 1}, 0, 7)
	if cert.Verify(suites[3], members, 3) {
		t.Error("accepted duplicate signers")
	}

	// Non-member signer.
	ids := []types.NodeID{0, 1, 2, 3, 9}
	dir := crypto.NewDirectory(crypto.Real, ids)
	out := crypto.NewSuite(dir, 9, crypto.FreeCosts(), nil)
	b := types.Batch{Client: types.ClientIDBase, Seq: 7, Txns: []types.Transaction{{Key: 9, Value: 7}}}
	cert = &Certificate{View: 0, Seq: 7, Digest: b.Digest(), Batch: b}
	payload := CommitPayload(0, 7, cert.Digest)
	for _, s := range []types.NodeID{0, 1, 9} {
		su := crypto.NewSuite(dir, s, crypto.FreeCosts(), nil)
		cert.Signers = append(cert.Signers, s)
		cert.Sigs = append(cert.Sigs, su.Sign(payload))
	}
	if cert.Verify(out, members, 3) {
		t.Error("accepted signer outside the membership")
	}

	// Tampered batch (digest no longer matches).
	cert = makeCert(suites, []int{0, 1, 2}, 0, 7)
	cert.Batch.Txns[0].Value = 12345
	if cert.Verify(suites[3], members, 3) {
		t.Error("accepted tampered batch")
	}

	// Mangled signature bytes.
	cert = makeCert(suites, []int{0, 1, 2}, 0, 7)
	cert.Sigs[1][0] ^= 0xff
	if cert.Verify(suites[3], members, 3) {
		t.Error("accepted mangled signature")
	}

	// Signature over a different (view, seq).
	cert = makeCert(suites, []int{0, 1, 2}, 0, 7)
	cert.Seq = 8
	cert.Batch.Seq = 8
	cert.Digest = cert.Batch.Digest()
	if cert.Verify(suites[3], members, 3) {
		t.Error("accepted signatures rebound to another sequence")
	}
}

func TestCertDigestCommitsToSignerSet(t *testing.T) {
	_, suites := testSuites(4)
	a := makeCert(suites, []int{0, 1, 2}, 0, 7)
	b := makeCert(suites, []int{1, 2, 3}, 0, 7)
	if a.CertDigest() == b.CertDigest() {
		t.Error("different signer sets, same certificate digest")
	}
	if a.CertDigest() != a.CertDigest() {
		t.Error("certificate digest not deterministic")
	}
}

// TestCertDigestMalformed pins the panic-free contract: a wire-decoded
// certificate can claim more signers than it carries signatures (it fails
// Verify, but CertDigest may run first: core keys a forwarded share before
// anyone verifies it), and CertDigest must survive it.
func TestCertDigestMalformed(t *testing.T) {
	c := &Certificate{
		Seq:     3,
		Signers: []types.NodeID{0, 1, 2},
		Sigs:    [][]byte{{0xaa}}, // fewer sigs than signers
	}
	if c.CertDigest() == c.CertDigest() && c.Verify(nil, nil, 1) {
		t.Error("malformed certificate must not verify")
	}
}

func TestCertificateWireSizeMatchesPaper(t *testing.T) {
	// ≈6.4 kB at batch 100 with 7 commit signatures (paper Section 4).
	b := types.Batch{Txns: make([]types.Transaction, 100)}
	cert := &Certificate{Batch: b, Sigs: make([][]byte, 7), Signers: make([]types.NodeID, 7)}
	if got := cert.WireSize(); got < 6000 || got > 7000 {
		t.Errorf("certificate wire size = %d, want ≈6.4 kB", got)
	}
}
