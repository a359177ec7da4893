package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"resilientdb"
	"resilientdb/internal/config"
	"resilientdb/internal/rpc"
)

// TestMain doubles as the multi-process entry point: when re-executed with
// RESDB_ROLE=proc the test binary becomes a real replica or client process
// running the command's own run() — so TestMultiProcessCluster exercises
// exactly the code path of `resilientdb -listen ... -id ...`.
func TestMain(m *testing.M) {
	if os.Getenv("RESDB_ROLE") == "proc" {
		if err := run(os.Args[1:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "resilientdb:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// reserveAddrs grabs n distinct loopback ports by listening and releasing
// them just before the processes start.
func reserveAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range listeners {
		ln.Close()
	}
	return addrs
}

type proc struct {
	cmd *exec.Cmd
	out *syncBuffer
}

// syncBuffer holds a process's output; the test may read it while the
// process still writes.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func startProc(t *testing.T, args ...string) *proc {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	p := &proc{cmd: exec.Command(exe, args...), out: &syncBuffer{}}
	p.cmd.Env = append(os.Environ(), "RESDB_ROLE=proc")
	p.cmd.Stdout = p.out
	p.cmd.Stderr = p.out
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return p
}

// waitProc waits for a process with a deadline; on timeout it kills the
// process and reports failure.
func waitProc(t *testing.T, p *proc, what string, timeout time.Duration) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s failed: %v\noutput:\n%s", what, err, p.out.String())
		}
	case <-time.After(timeout):
		p.cmd.Process.Kill()
		<-done
		t.Fatalf("%s did not finish within %v\noutput:\n%s", what, timeout, p.out.String())
	}
}

// waitOutput waits until a running process has printed want.
func waitOutput(t *testing.T, p *proc, want string, timeout time.Duration) {
	t.Helper()
	for deadline := time.Now().Add(timeout); !strings.Contains(p.out.String(), want); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no %q within %v\noutput:\n%s", want, timeout, p.out.String())
		}
	}
}

// writeSpec writes spec as the JSON file every process of a test deployment
// loads with -config.
func writeSpec(t *testing.T, spec config.ClusterSpec) string {
	t.Helper()
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cluster.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// placed is an address book placing replica i at addrs[i].
func placed(addrs []string) []config.ReplicaSpec {
	out := make([]config.ReplicaSpec, len(addrs))
	for i, a := range addrs {
		out[i].Listen = a
	}
	return out
}

// TestInProcessWithAdversary runs the single-process demo with replica
// (0,0) compromised by the share-forging script: the deployment tolerates
// f=1 Byzantine replica per cluster, so every batch must still commit, the
// honest ledger must verify, and the forged certificates must be counted as
// verify-rejects — the -adversary flag end to end, on an in-process run of a
// spec file.
func TestInProcessWithAdversary(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time adversarial run")
	}
	cfg := writeSpec(t, config.ClusterSpec{
		Clusters: 2, ReplicasPerCluster: 4, BatchSize: 4,
		LocalTimeout:  config.Duration(400 * time.Millisecond),
		RemoteTimeout: config.Duration(700 * time.Millisecond),
	})
	var out bytes.Buffer
	err := run([]string{"-config", cfg, "-batches", "6", "-adversary", "forge-shares"}, &out)
	if err != nil {
		t.Fatalf("adversarial run failed: %v\n%s", err, out.String())
	}
	if !regexp.MustCompile(`committed 12/12 batches`).Match(out.Bytes()) {
		t.Fatalf("not all batches committed:\n%s", out.String())
	}
	m := regexp.MustCompile(`adversary: (\d+) forged messages rejected`).FindSubmatch(out.Bytes())
	if m == nil {
		t.Fatalf("missing adversary report:\n%s", out.String())
	}
	if n, _ := strconv.Atoi(string(m[1])); n == 0 {
		t.Fatalf("adversarial run rejected nothing:\n%s", out.String())
	}
}

// TestRoleErrors checks that a process asked for a role the spec cannot give
// it fails with an error before it starts anything, never a panic. The first
// row is a spec with more client addresses than the default number of
// provisioned identities: its last client has an address but no key.
func TestRoleErrors(t *testing.T) {
	replicas := placed([]string{"127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"})
	clients := make([]string, config.DefaultProvisionClients+1)
	for i := range clients {
		clients[i] = "127.0.0.1:0"
	}
	unprovisioned := writeSpec(t, config.ClusterSpec{Clusters: 1, ReplicasPerCluster: 4,
		Replicas: replicas, Clients: clients})
	twoClients := writeSpec(t, config.ClusterSpec{Clusters: 1, ReplicasPerCluster: 4,
		Replicas: replicas, Clients: clients[:2], ProvisionClients: 8})
	noBook := writeSpec(t, config.ClusterSpec{Clusters: 1, ReplicasPerCluster: 4})
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"client without a key", []string{"-config", unprovisioned, "-client", strconv.Itoa(len(clients) - 1)}, "provisioned identities"},
		{"client without an address", []string{"-config", twoClients, "-client", "5"}, "client 5 is not one of them"},
		{"replica outside the spec", []string{"-config", twoClients, "-id", "4"}, "replica 4 is not one of them"},
		{"join without an address book", []string{"-config", noBook, "-id", "0"}, "needs 4"},
		{"role without a spec", []string{"-id", "0"}, "-config"},
		{"both roles", []string{"-config", twoClients, "-id", "0", "-client", "0"}, "not both"},
	}
	for _, c := range cases {
		err := run(c.args, io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one mentioning %q", c.name, err, c.want)
		}
	}
}

// TestMultiProcessCluster is the acceptance run: a z=2, n=4 deployment of 8
// separate replica OS processes over TCP on localhost, driven by one client
// process per cluster submitting 50 batches each. Every replica must report
// a verified ledger and all heads must be identical.
func TestMultiProcessCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process run")
	}
	const (
		z, n       = 2, 4
		numBatches = 50
	)
	addrs := reserveAddrs(t, z*n+z)
	cfg := writeSpec(t, config.ClusterSpec{
		Clusters: z, ReplicasPerCluster: n, BatchSize: 5,
		LocalTimeout:  config.Duration(2 * time.Second),
		RemoteTimeout: config.Duration(3 * time.Second),
		Replicas:      placed(addrs[:z*n]),
		Clients:       addrs[z*n:],
	})

	replicas := make([]*proc, z*n)
	for i := range replicas {
		replicas[i] = startProc(t, "-config", cfg, "-id", strconv.Itoa(i))
	}
	defer func() {
		for _, p := range replicas {
			if p.cmd.ProcessState == nil {
				p.cmd.Process.Kill()
				p.cmd.Wait()
			}
		}
	}()

	clientProcs := make([]*proc, z)
	var wg sync.WaitGroup
	for c := range clientProcs {
		clientProcs[c] = startProc(t, "-config", cfg, "-client", strconv.Itoa(c),
			"-batches", strconv.Itoa(numBatches))
	}
	for c, p := range clientProcs {
		wg.Add(1)
		go func(c int, p *proc) {
			defer wg.Done()
			waitProc(t, p, fmt.Sprintf("client %d", c), 120*time.Second)
		}(c, p)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	committed := regexp.MustCompile(`committed (\d+)/(\d+) batches`)
	for c, p := range clientProcs {
		m := committed.FindStringSubmatch(p.out.String())
		if m == nil || m[1] != strconv.Itoa(numBatches) {
			t.Fatalf("client %d did not commit %d batches:\n%s", c, numBatches, p.out.String())
		}
	}

	// Let stragglers finish executing the final rounds, then stop every
	// replica and collect its verified ledger head. The window must cover a
	// full remote-timeout recovery cycle: a replica that missed its shares
	// only re-requests them after the 1s remote timeout, and on a slow or
	// race-instrumented host that round trip can take several seconds.
	time.Sleep(5 * time.Second)
	for _, p := range replicas {
		p.cmd.Process.Signal(syscall.SIGTERM)
	}
	heads := make([]string, z*n)
	heights := make([]int, z*n)
	final := regexp.MustCompile(`replica (\d+): ledger height=(\d+) head=([0-9a-f]+) verified`)
	for i, p := range replicas {
		waitProc(t, p, fmt.Sprintf("replica %d", i), 30*time.Second)
		m := final.FindStringSubmatch(p.out.String())
		if m == nil {
			t.Fatalf("replica %d printed no verified ledger line:\n%s", i, p.out.String())
		}
		heights[i], _ = strconv.Atoi(m[2])
		heads[i] = m[3]
	}
	for i := 1; i < len(heads); i++ {
		if heads[i] != heads[0] || heights[i] != heights[0] {
			t.Errorf("replica %d ledger (height=%d head=%s) differs from replica 0 (height=%d head=%s)",
				i, heights[i], heads[i], heights[0], heads[0])
		}
	}
	// Two clients × 50 batches: with one consensus decision per submitted
	// batch, every ledger must hold at least 50 blocks per cluster.
	if heights[0] < z*numBatches {
		t.Errorf("ledger height %d < %d expected committed batches", heights[0], z*numBatches)
	}
}

// TestPrimaryKillAndRejoin is the end-to-end failure-model run over real
// TCP: a 4-replica cluster of separate OS processes — each persisting its
// ledger under the spec's data_dir — loses its primary to SIGKILL mid-load
// (possibly mid-write: the store must truncate the torn tail), the client's
// commits must resume through the local view change, and the killed process
// is then relaunched with the same command line and must rejoin from its data
// directory alone: no in-memory handoff exists across processes, so it
// re-verifies the on-disk prefix and pulls only the missed suffix from peers
// (ledger catch-up) — every replica, the reborn one included, reports the
// same verified ledger. A final solo relaunch with every peer down proves
// the chain really lives in the files: the replica must report the full
// converged height with nobody left to copy it from.
func TestPrimaryKillAndRejoin(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process run")
	}
	const n = 4
	addrs := reserveAddrs(t, n+2)
	// One data_dir for every process: each replica keeps its store under
	// node-<id>, so the four share the root like replicas on one machine.
	spec := config.ClusterSpec{
		Clusters: 1, ReplicasPerCluster: n, BatchSize: 5,
		LocalTimeout:  config.Duration(time.Second),
		RemoteTimeout: config.Duration(time.Second),
		Replicas:      placed(addrs[:n]),
		Clients:       addrs[n:],
	}
	spec.Retention.DataDir = t.TempDir()
	cfg := writeSpec(t, spec)
	replica := func(i int, extra ...string) *proc {
		return startProc(t, append([]string{"-config", cfg, "-id", strconv.Itoa(i)}, extra...)...)
	}
	client := func(c, batches int) *proc {
		return startProc(t, "-config", cfg, "-client", strconv.Itoa(c), "-batches", strconv.Itoa(batches))
	}

	replicas := make([]*proc, n)
	for i := range replicas {
		replicas[i] = replica(i)
	}
	defer func() {
		for _, p := range replicas {
			if p.cmd.ProcessState == nil {
				p.cmd.Process.Kill()
				p.cmd.Wait()
			}
		}
	}()

	// Load the cluster and kill the primary once the client has committed
	// its first batch, so the kill lands mid-load. Commits can only resume
	// after the remaining replicas complete a view change, so the client
	// finishing all its batches IS the liveness assertion. Its replies then
	// name the new primary, and the remaining batches go straight to it: a
	// client that kept sending to the dead one would wait a retry interval
	// (1 s or more) for each of them, far past the bound.
	const batches = 200
	client0 := client(0, batches)
	waitOutput(t, client0, "client 0: first commit", 60*time.Second)
	replicas[0].cmd.Process.Kill()
	replicas[0].cmd.Wait()
	killed := time.Now()
	if strings.Contains(client0.out.String(), "committed") {
		t.Fatalf("client 0 finished before the primary was killed:\n%s", client0.out.String())
	}
	waitProc(t, client0, "client 0 (across primary kill)", 30*time.Second)
	t.Logf("client 0 finished %v after the kill", time.Since(killed).Round(time.Millisecond))

	// Rejoin: same binary, same command line, fresh process. All it has is its
	// data directory — the SIGKILLed process took its memory with it — so
	// it must recover the persisted prefix (torn tail truncated, every
	// certificate re-verified) and close the remaining gap via catch-up
	// while fresh traffic from a second client provides the evidence that
	// it is behind.
	replicas[0] = replica(0)
	client1 := client(1, 8)
	waitProc(t, client1, "client 1 (during rejoin)", 120*time.Second)
	time.Sleep(5 * time.Second) // let the reborn replica drain its catch-up

	for _, p := range replicas {
		p.cmd.Process.Signal(syscall.SIGTERM)
	}
	final := regexp.MustCompile(`replica (\d+): ledger height=(\d+) head=([0-9a-f]+) verified`)
	heights := make([]int, n)
	heads := make([]string, n)
	for i, p := range replicas {
		waitProc(t, p, fmt.Sprintf("replica %d", i), 30*time.Second)
		m := final.FindStringSubmatch(p.out.String())
		if m == nil {
			t.Fatalf("replica %d printed no verified ledger line:\n%s", i, p.out.String())
		}
		heights[i], _ = strconv.Atoi(m[2])
		heads[i] = m[3]
	}
	for i := 1; i < n; i++ {
		if heads[i] != heads[0] || heights[i] != heights[0] {
			t.Errorf("replica %d ledger (height=%d head=%s) differs from replica 0 (height=%d head=%s)",
				i, heights[i], heads[i], heights[0], heads[0])
		}
	}
	// Every client batch committed is its own consensus round.
	if heights[0] < batches+8 {
		t.Errorf("ledger height %d < %d committed batches", heights[0], batches+8)
	}

	// Durability proof: relaunch replica 0 alone, every peer down. It has
	// no one to catch up from, so the full converged chain it reports can
	// only have come from its data directory — recovered, re-verified, and
	// byte-for-byte the same head the cluster agreed on.
	solo := replica(0, "-serve", "3s")
	waitProc(t, solo, "replica 0 (solo restart from disk)", 60*time.Second)
	m := final.FindStringSubmatch(solo.out.String())
	if m == nil {
		t.Fatalf("solo replica printed no verified ledger line:\n%s", solo.out.String())
	}
	if soloHeight, _ := strconv.Atoi(m[2]); soloHeight != heights[0] || m[3] != heads[0] {
		t.Errorf("solo restart from disk reports height=%s head=%s, cluster agreed on height=%d head=%s",
			m[2], m[3], heights[0], heads[0])
	}
}

// TestConfigFileClusterRPC is the config-driven acceptance run: a 4-replica
// cluster of separate OS processes started from one JSON spec file — no
// address flags, each process told only its -id — serving a real client over
// the RPC front door. The test submits a signed batch over HTTP, polls it to
// execution, and performs a proof-carrying read whose attestation (replica
// signature + head-block commit certificate) must verify against nothing but
// the deployment's public key material. Finally every replica must report
// the same verified ledger, proving the spec alone wired a working cluster.
func TestConfigFileClusterRPC(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process run")
	}
	const n = 4
	addrs := reserveAddrs(t, n+1)
	rpcAddr := addrs[n]

	spec := map[string]any{
		"clusters":             1,
		"replicas_per_cluster": n,
		"batch_size":           5,
		"local_timeout":        "1s",
		"remote_timeout":       "1s",
		"replicas": []map[string]string{
			{"listen": addrs[0], "rpc": rpcAddr},
			{"listen": addrs[1]},
			{"listen": addrs[2]},
			{"listen": addrs[3]},
		},
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(t.TempDir(), "cluster.json")
	if err := os.WriteFile(cfgPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	replicas := make([]*proc, n)
	for i := range replicas {
		replicas[i] = startProc(t, "-config", cfgPath, "-id", strconv.Itoa(i))
	}
	defer func() {
		for _, p := range replicas {
			if p.cmd.ProcessState == nil {
				p.cmd.Process.Kill()
				p.cmd.Wait()
			}
		}
	}()

	// The cluster is up when the primary's RPC front door answers.
	topo := config.NewTopology(1, n)
	cl := rpc.NewClient("http://"+rpcAddr, 0, topo)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := cl.Status(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("RPC front door never came up")
		}
		time.Sleep(100 * time.Millisecond)
	}

	seq, res, err := cl.Submit([]resilientdb.Transaction{{Key: 11, Value: 42}, {Key: 12, Value: 43}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != "admitted" {
		t.Fatalf("submit verdict %q, want admitted", res.Verdict)
	}
	if _, err := cl.WaitExecuted(seq, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	rs, err := cl.Read(11)
	if err != nil {
		t.Fatalf("proof-carrying read: %v", err)
	}
	if !rs.Found || rs.Value != 42 {
		t.Errorf("read (found=%v, value=%d), want (true, 42)", rs.Found, rs.Value)
	}
	if cl.ProofRejects() != 0 {
		t.Errorf("verified read counted as proof reject")
	}

	time.Sleep(2 * time.Second) // let the backups execute the round
	for _, p := range replicas {
		p.cmd.Process.Signal(syscall.SIGTERM)
	}
	final := regexp.MustCompile(`replica (\d+): ledger height=(\d+) head=([0-9a-f]+) verified`)
	heads := make([]string, n)
	for i, p := range replicas {
		waitProc(t, p, fmt.Sprintf("replica %d", i), 30*time.Second)
		m := final.FindStringSubmatch(p.out.String())
		if m == nil {
			t.Fatalf("replica %d printed no verified ledger line:\n%s", i, p.out.String())
		}
		heads[i] = m[3]
	}
	for i := 1; i < n; i++ {
		if heads[i] != heads[0] {
			t.Errorf("replica %d head %s differs from replica 0's %s", i, heads[i], heads[0])
		}
	}
}
