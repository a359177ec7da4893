package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"resilientdb/internal/config"
	"resilientdb/internal/crypto"
	"resilientdb/internal/fabric"
	"resilientdb/internal/metrics"
	"resilientdb/internal/rpc"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
)

// Shape common to every workload (ISSUE 12): the paper's batch size, a YCSB
// table small enough to preload in milliseconds, one client identity per
// in-flight slot.
const (
	batchSize     = 100
	records       = 100_000
	replicasPer   = 4
	submitTimeout = 10 * time.Second
)

// workload is one traffic mix and deployment shape. The fields are the whole
// difference between workloads; everything else is shared code.
type workload struct {
	name string
	why  string // one line, copied into BENCHMARK.json

	clusters int
	tcp      bool // one authenticated TCP transport per replica and per client cluster
	wan      bool // wrap each transport in Faulty with Table 1 one-way delays
	durable  bool // DataDir (fsync per commit), an rpc.Server per replica, fixed-rate proven reads

	pacedRate     float64 // latency phase: open-loop batches/s, all clusters together; 0 for one sequential client per cluster
	satPerCluster int     // client identities per cluster; the saturate phase drives them all
	readRate      float64 // proven reads/s, all clusters together (durable only)
}

var workloads = []workload{
	{
		name: "mem-sat", clusters: 2, satPerCluster: 8,
		why: "z=2 n=4 over transport.Mem, in-memory ledger: messages travel by pointer, so codec, frame MAC, sockets and disk do nothing - the CPU floor of consensus",
	},
	{
		name: "tcp-loop", clusters: 2, tcp: true, satPerCluster: 8,
		why: "mem-sat's shape over authenticated loopback TCP: differs by exactly encode/decode, frame MAC and socket I/O, so a codec or transport change shows here and not on mem-sat",
	},
	{
		name: "wan-geo", clusters: 3, tcp: true, wan: true, pacedRate: 150, satPerCluster: 32,
		why: "z=3 n=4 with Table 1 Oregon/Iowa/Montreal one-way delays injected: latency is delay-bound, so share fan-out, pipeline depth and round ordering do the work, not codec or crypto",
	},
	{
		name: "durable-rw", clusters: 2, tcp: true, durable: true, satPerCluster: 8, readRate: 200,
		why: "tcp-loop with fsync-per-commit disk ledgers and fixed-rate proof-carrying RPC reads beside the writes: the worker is used two ways, so a write gain that starves reads shows",
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// deployment is one live fabric stood up in-process the way the workload
// says: the replicas, the client-side fabrics (one per cluster over TCP, the
// replica fabric itself over Mem), the RPC front doors, and the data
// directory when durable.
type deployment struct {
	w    *workload
	topo config.Topology

	replicaFabs []*fabric.Fabric
	clientFabs  []*fabric.Fabric // indexed by cluster
	nodes       []*fabric.Node   // indexed by replica id
	clients     []*fabric.Client // indexed by client index (home cluster = index mod z)
	rpcs        []*rpc.Server    // indexed by replica id (durable only)
	dataDir     string
	profile     *config.Profile // wan only
}

// hooks are the observation points a traced run installs; the untraced run
// passes the zero value, so nothing sits between the fabric and its
// transport and no OnExecute callback runs.
type hooks struct {
	tap       transport.InterceptFn
	onExecute func(replica types.NodeID, round uint64, cluster types.ClusterID, batch types.Batch)
}

// openDeployment builds and starts the workload's deployment. Real crypto,
// shipped default timeouts and auto-sized verify workers throughout: no knob
// is tuned for the benchmark.
func openDeployment(w *workload, seed int64, dataRoot string, h hooks) (*deployment, error) {
	topo := config.NewTopology(w.clusters, replicasPer)
	d := &deployment{w: w, topo: topo, nodes: make([]*fabric.Node, topo.TotalReplicas())}
	ok := false
	defer func() {
		if !ok {
			d.close()
		}
	}()

	cfg := fabric.Config{
		Topo:      topo,
		BatchSize: batchSize,
		Records:   records,
		Mode:      crypto.Real,
		Clients:   w.clusters * w.satPerCluster,
		OnExecute: h.onExecute,
	}
	if w.durable {
		dir, err := os.MkdirTemp(dataRoot, w.name+"-")
		if err != nil {
			return nil, fmt.Errorf("data dir: %w", err)
		}
		d.dataDir = dir
		cfg.DataDir = dir
	}
	wrap := func(tr transport.Transport) transport.Transport {
		if h.tap != nil {
			return transport.NewTap(tr, h.tap)
		}
		return tr
	}

	if !w.tcp {
		c := cfg
		c.Transport = wrap(transport.NewMem())
		f, err := fabric.Open(c)
		if err != nil {
			return nil, err
		}
		d.replicaFabs = []*fabric.Fabric{f}
		for i := 0; i < w.clusters; i++ {
			d.clientFabs = append(d.clientFabs, f)
		}
	} else if err := d.openTCP(cfg, seed, wrap); err != nil {
		return nil, err
	}
	for _, f := range d.replicaFabs {
		for _, id := range topo.AllReplicas() {
			if n := f.Node(id); n != nil {
				d.nodes[id] = n
			}
		}
	}
	for i := 0; i < w.clusters*w.satPerCluster; i++ {
		d.clients = append(d.clients, d.clientFabs[i%w.clusters].NewClient(i))
	}
	if w.durable {
		for _, n := range d.nodes {
			s := rpc.NewServer(n, topo)
			if _, err := s.Start("127.0.0.1:0"); err != nil {
				return nil, err
			}
			d.rpcs = append(d.rpcs, s)
		}
	}
	ok = true
	return d, nil
}

// openTCP wires one authenticated TCP transport per replica "process" and one
// per client cluster, all on loopback — the multi-process wiring, in one
// process. On wan workloads each transport sits behind a Faulty injecting the
// Table 1 one-way delay between the sender's and the receiver's region.
func (d *deployment) openTCP(cfg fabric.Config, seed int64, wrap func(transport.Transport) transport.Transport) error {
	topo, z := d.topo, d.w.clusters
	total := topo.TotalReplicas()
	// The address book is complete before any fabric opens, and read-only after.
	book := map[types.NodeID]string{}
	lookup := func(id types.NodeID) string {
		if id.IsClient() {
			return book[config.ClientID(int(id-types.ClientIDBase)%z)] // every identity of a cluster shares its client transport
		}
		return book[id]
	}
	tcps := make([]*transport.TCP, total+z)
	defer func() {
		for _, t := range tcps { // transports no fabric took ownership of
			if t != nil {
				t.Close()
			}
		}
	}()
	for i := range tcps {
		t, err := transport.NewTCP("127.0.0.1:0", lookup)
		if err != nil {
			return err
		}
		t.Auth = crypto.NewFrameMAC(crypto.Real)
		tcps[i] = t
		if i < total {
			book[types.NodeID(i)] = t.Addr()
		} else {
			book[config.ClientID(i-total)] = t.Addr()
		}
	}
	var delay func(from, to types.NodeID) time.Duration
	if d.w.wan {
		d.profile = config.GoogleCloudProfile(z)
		region := func(id types.NodeID) int {
			if id.IsClient() {
				return int(id-types.ClientIDBase) % z
			}
			return int(topo.ClusterOf(id))
		}
		delay = func(from, to types.NodeID) time.Duration {
			return d.profile.OneWay(region(from), region(to))
		}
	}
	for i := range tcps {
		var tr transport.Transport = tcps[i]
		if delay != nil {
			f := transport.NewFaulty(tr, seed+int64(i))
			f.SetDelay(delay)
			tr = f
		}
		c := cfg
		c.Transport = wrap(tr)
		if i < total {
			c.Local = []types.NodeID{types.NodeID(i)}
		} else {
			c.Local = []types.NodeID{} // a client-only process
			c.DataDir = ""
		}
		tcps[i] = nil // fabric.Open owns (and on failure closes) the transport
		f, err := fabric.Open(c)
		if err != nil {
			return err
		}
		if i < total {
			d.replicaFabs = append(d.replicaFabs, f)
		} else {
			d.clientFabs = append(d.clientFabs, f)
		}
	}
	return nil
}

// fabrics lists every fabric once (over Mem the client fabric is the replica
// fabric).
func (d *deployment) fabrics() []*fabric.Fabric {
	out := append([]*fabric.Fabric(nil), d.replicaFabs...)
	if d.w.tcp {
		out = append(out, d.clientFabs...)
	}
	return out
}

// stats sums the loss and admission counters of every transport and node.
func (d *deployment) stats() metrics.DropStats {
	var out metrics.DropStats
	for _, f := range d.fabrics() {
		out.Add(f.Stats())
	}
	return out
}

// stop halts clients, front doors and fabrics; replica state stays readable
// for the correctness gate. Idempotent.
func (d *deployment) stop() {
	for _, c := range d.clients {
		c.Close()
	}
	for _, s := range d.rpcs {
		s.Close()
	}
	for _, f := range d.fabrics() {
		f.Stop()
	}
}

// close stops the deployment and removes its data directory.
func (d *deployment) close() {
	d.stop()
	if d.dataDir != "" {
		os.RemoveAll(d.dataDir)
	}
}

// delayMatrix renders the injected one-way delays for the host record.
func (d *deployment) delayMatrix() string {
	if d.profile == nil {
		return "none"
	}
	var legs []string
	for a := range d.profile.Names {
		for b := a; b < len(d.profile.Names); b++ {
			legs = append(legs, fmt.Sprintf("%s-%s=%.2fms", d.profile.Names[a], d.profile.Names[b], ms(d.profile.OneWay(a, b))))
		}
	}
	return strings.Join(legs, " ")
}
