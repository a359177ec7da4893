package fabric_test

import (
	"runtime"
	"strings"
	"testing"
	"time"
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
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	for _, g := range strings.Split(string(buf), "\n\n") {
		for _, frame := range leakFrames {
			if strings.Contains(g, frame) {
				return g
			}
		}
	}
	return ""
}
