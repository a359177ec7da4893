package config

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const sampleSpec = `{
  "clusters": 2,
  "replicas_per_cluster": 4,
  "batch_size": 10,
  "local_timeout": "500ms",
  "remote_timeout": "1s",
  "replicas": [
    {"listen": "10.0.0.1:7000", "rpc": "10.0.0.1:9000"},
    {"listen": "10.0.0.2:7000"},
    {"listen": "10.0.0.3:7000"},
    {"listen": "10.0.0.4:7000"},
    {"listen": "10.0.1.1:7000", "rpc": "10.0.1.1:9000"},
    {"listen": "10.0.1.2:7000"},
    {"listen": "10.0.1.3:7000"},
    {"listen": "10.0.1.4:7000"}
  ],
  "clients": ["10.0.0.9:7100", "10.0.1.9:7100"],
  "provision_clients": 8,
  "mempool": {"capacity": 2048, "client_rate": 256, "replay_window": 16},
  "retention": {"data_dir": "/var/lib/resilientdb",
                "snapshot_interval": 64, "retain_segments": 3}
}`

func TestParseClusterSpec(t *testing.T) {
	spec, err := ParseClusterSpec([]byte(sampleSpec))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Clusters != 2 || spec.ReplicasPerCluster != 4 {
		t.Errorf("shape %d×%d, want 2×4", spec.Clusters, spec.ReplicasPerCluster)
	}
	if got := spec.LocalTimeout.Std(); got != 500*time.Millisecond {
		t.Errorf("local_timeout %v, want 500ms", got)
	}
	topo := spec.Topology()
	if topo.TotalReplicas() != 8 || topo.F() != 1 {
		t.Errorf("topology (%d replicas, f=%d), want (8, 1)", topo.TotalReplicas(), topo.F())
	}
	if err := spec.CheckAddressBook(); err != nil || spec.Replicas[4].Listen != "10.0.1.1:7000" {
		t.Errorf("address book: %v, replica 4 at %q", err, spec.Replicas[4].Listen)
	}
	if spec.Replicas[0].RPC != "10.0.0.1:9000" || spec.Replicas[1].RPC != "" {
		t.Errorf("rpc addrs: %q / %q", spec.Replicas[0].RPC, spec.Replicas[1].RPC)
	}
	if spec.Mempool.Capacity != 2048 || spec.Mempool.PerClientRate != 256 || spec.Retention.SnapshotInterval != 64 {
		t.Errorf("tuning blocks: %+v %+v", spec.Mempool, spec.Retention)
	}
}

func TestLoadClusterSpec(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cluster.json")
	if err := os.WriteFile(path, []byte(sampleSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadClusterSpec(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadClusterSpec(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing spec file loaded without error")
	}
}

func TestClusterSpecValidation(t *testing.T) {
	cases := []struct {
		name, spec, want string
	}{
		{"unknown field",
			`{"clusters": 1, "replicas_per_cluster": 4, "replicaz": []}`,
			"unknown field"},
		{"bad duration",
			`{"clusters": 1, "replicas_per_cluster": 4, "local_timeout": "fast", "replicas": []}`,
			"bad duration"},
		{"no clusters",
			`{"clusters": 0, "replicas_per_cluster": 4}`,
			"1 ≤ clusters"},
		{"too few replicas per cluster",
			`{"clusters": 1, "replicas_per_cluster": 3}`,
			"replicas_per_cluster ≥ 4"},
		{"more clusters than regions",
			`{"clusters": 7, "replicas_per_cluster": 4}`,
			"clusters ≤ 6"},
		{"more clients than identities",
			`{"clusters": 1, "replicas_per_cluster": 4, "provision_clients": 1,
			  "clients": ["a:1", "b:1"],
			  "replicas": [{"listen": "a:1"}, {"listen": "b:1"}, {"listen": "c:1"}, {"listen": "d:1"}]}`,
			"provisioned identities"},
		{"more clients than the default identities",
			`{"clusters": 1, "replicas_per_cluster": 4, "clients": [` +
				strings.Repeat(`"a:1", `, DefaultProvisionClients) + `"b:1"]}`,
			"provisioned identities"},
	}
	for _, c := range cases {
		_, err := ParseClusterSpec([]byte(c.spec))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestCheckAddressBook: a spec without an address book parses (it can run
// in-process), and only a process that joins over TCP needs a complete one.
func TestCheckAddressBook(t *testing.T) {
	cases := []struct {
		name, spec, want string
	}{
		{"no address book", `{"clusters": 1, "replicas_per_cluster": 4}`, "needs 4"},
		{"short address book",
			`{"clusters": 1, "replicas_per_cluster": 4, "replicas": [{"listen": "a:1"}]}`,
			"needs 4"},
		{"empty listen address",
			`{"clusters": 1, "replicas_per_cluster": 4,
			  "replicas": [{"listen": "a:1"}, {"listen": ""}, {"listen": "c:1"}, {"listen": "d:1"}]}`,
			"no listen address"},
	}
	for _, c := range cases {
		spec, err := ParseClusterSpec([]byte(c.spec))
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if err := spec.CheckAddressBook(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v does not mention %q", c.name, err, c.want)
		}
	}
}

func TestDurationRoundTrip(t *testing.T) {
	// A programmatically generated spec (nanosecond numbers) parses too.
	spec, err := ParseClusterSpec([]byte(`{"clusters": 1, "replicas_per_cluster": 4,
	  "local_timeout": 250000000,
	  "replicas": [{"listen": "a:1"}, {"listen": "b:1"}, {"listen": "c:1"}, {"listen": "d:1"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.LocalTimeout.Std() != 250*time.Millisecond {
		t.Errorf("numeric duration: %v, want 250ms", spec.LocalTimeout.Std())
	}
	if b, err := Duration(2 * time.Second).MarshalJSON(); err != nil || string(b) != `"2s"` {
		t.Errorf("marshal: %s, %v", b, err)
	}
}
