package fabric_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"resilientdb/internal/config"
	"resilientdb/internal/fabric"
)

// leakFrames name the code a goroutine left running after Stop would be in:
// a fabric stage, a ledger's persister, or a transport's reader, writer or
// delivery goroutine.
var leakFrames = []string{
	"resilientdb/internal/fabric.",
	"ledger.(*Ledger).persist",
	"resilientdb/internal/transport.",
}

// checkNoLeaks fails t unless, within 2 s, no goroutine of the process runs
// in a fabric, a ledger persister or a transport: called once every fabric
// of a test has stopped, it holds Stop to taking down everything the
// deployment started. Goroutines still on their way out (a timer that fired
// as the node stopped) get the 2 s to finish.
func checkNoLeaks(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		g := leakedGoroutine()
		if g == "" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine still running 2 s after Stop:\n%s", g)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// leakedGoroutine returns the stack of one goroutine with a frame in
// leakFrames, or "".
func leakedGoroutine() string {
	for _, g := range goroutineStacks() {
		for _, frame := range leakFrames {
			if strings.Contains(g, frame) {
				return g
			}
		}
	}
	return ""
}

// goroutineStacks returns the stack of every goroutine of the process.
func goroutineStacks() []string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	return strings.Split(string(buf), "\n\n")
}

// countGoroutines returns how many goroutines have a frame containing each
// of frames.
func countGoroutines(frames ...string) []int {
	counts := make([]int, len(frames))
	for _, g := range goroutineStacks() {
		for i, frame := range frames {
			if strings.Contains(g, frame) {
				counts[i]++
			}
		}
	}
	return counts
}

// TestNodeGoroutineCensus pins a node's pipeline: K input goroutines (K
// derived from GOMAXPROCS and the hosted replicas) and the worker, nothing
// else — the worker sends straight to the transport, so no output or
// batching goroutine runs — plus the persister on a disk-backed node.
func TestNodeGoroutineCensus(t *testing.T) {
	for _, durable := range []bool{false, true} {
		name := "mem"
		if durable {
			name = "disk"
		}
		t.Run(name, func(t *testing.T) {
			cfg := fabric.Config{Topo: config.NewTopology(2, 4), Records: 64}
			if durable {
				cfg.DataDir = t.TempDir()
			}
			f, err := fabric.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			nodes := cfg.Topo.TotalReplicas()
			k := fabric.InputWorkers(runtime.GOMAXPROCS(0), nodes)
			wantPersisters := 0
			if durable {
				wantPersisters = nodes
			}
			// A persister starts on its node's worker, once the node boots.
			var counts []int
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
				counts = countGoroutines("fabric.(*Node).start", "ledger.(*Ledger).persist")
				if counts[1] >= wantPersisters || time.Now().After(deadline) {
					break
				}
			}
			if want := nodes * (k + 1); counts[0] != want {
				t.Errorf("%d node-pipeline goroutines, want %d: %d nodes × (%d input + 1 worker)", counts[0], want, nodes, k)
			}
			if counts[1] != wantPersisters {
				t.Errorf("%d persister goroutines, want %d", counts[1], wantPersisters)
			}
			f.Stop()
			checkNoLeaks(t)
		})
	}
}
