package detsim

import (
	"fmt"
	"testing"
	"time"

	"resilientdb/internal/config"
	"resilientdb/internal/crypto"
	"resilientdb/internal/proto"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
)

type ping struct{ size int }

func (*ping) MsgType() string { return "ping" }
func (p *ping) WireSize() int { return p.size }

// recorder is a handler capturing delivery times.
type recorder struct {
	env    *Env
	got    []time.Duration
	from   []types.NodeID
	onInit func(*Env)
	onRecv func(*Env, types.NodeID, types.Message)
}

func (r *recorder) InitEnv(env proto.Env) {
	r.env = env.(*Env)
	if r.onInit != nil {
		r.onInit(r.env)
	}
}

func (r *recorder) Receive(from types.NodeID, msg types.Message) {
	r.got = append(r.got, r.env.Now())
	r.from = append(r.from, from)
	if r.onRecv != nil {
		r.onRecv(r.env, from, msg)
	}
}

func twoRegionNet(jitter float64) (*Network, *recorder, *recorder) {
	prof := config.UniformProfile(2, 100*time.Millisecond, 80) // 80 Mbit/s WAN
	net := New(Options{Profile: prof, Seed: 1, JitterFrac: jitter})
	a, b := &recorder{}, &recorder{}
	net.AddNode(0, 0, a)
	net.AddNode(1, 1, b)
	return net, a, b
}

func TestLatencyMatchesProfile(t *testing.T) {
	net, a, b := twoRegionNet(-1)
	a.onInit = func(env *Env) { env.Send(1, &ping{size: 100}) }
	net.RunUntil(time.Second)
	if len(b.got) != 1 {
		t.Fatalf("b received %d messages, want 1", len(b.got))
	}
	// One-way latency 50 ms + tiny serialization (100 B / 10 MB/s = 10 µs).
	lo, hi := 50*time.Millisecond, 51*time.Millisecond
	if b.got[0] < lo || b.got[0] > hi {
		t.Errorf("arrival at %v, want within [%v, %v]", b.got[0], lo, hi)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	net, a, b := twoRegionNet(-1)
	// 10 MB over a 10 MB/s flow takes 1 s + 50 ms latency.
	a.onInit = func(env *Env) { env.Send(1, &ping{size: 10_000_000}) }
	net.RunUntil(5 * time.Second)
	if len(b.got) != 1 {
		t.Fatalf("b received %d messages", len(b.got))
	}
	lo, hi := 1040*time.Millisecond, 1060*time.Millisecond
	if b.got[0] < lo || b.got[0] > hi {
		t.Errorf("arrival at %v, want ≈1.05 s", b.got[0])
	}
}

func TestFlowQueuingBackToBack(t *testing.T) {
	net, a, b := twoRegionNet(-1)
	// Two 10 MB messages on the same flow serialize one after the other.
	a.onInit = func(env *Env) {
		env.Send(1, &ping{size: 10_000_000})
		env.Send(1, &ping{size: 10_000_000})
	}
	net.RunUntil(10 * time.Second)
	if len(b.got) != 2 {
		t.Fatalf("b received %d messages", len(b.got))
	}
	gap := b.got[1] - b.got[0]
	if gap < 900*time.Millisecond || gap > 1100*time.Millisecond {
		t.Errorf("inter-arrival gap %v, want ≈1 s (flow serialization)", gap)
	}
}

func TestUplinkSharedAcrossDestinations(t *testing.T) {
	// One sender, many receivers in another region, with per-flow bandwidth
	// far above the sender's NIC egress: the NIC caps aggregate throughput
	// (the effect that bottlenecks centralized primaries in the paper).
	prof := config.UniformProfile(2, 10*time.Millisecond, 1000)
	for i := range prof.Uplink {
		prof.Uplink[i] = 100e6 / 8 // 100 Mbit/s NIC = 12.5 MB/s
	}
	net := New(Options{Profile: prof, Seed: 1, JitterFrac: -1})
	src := &recorder{}
	net.AddNode(0, 0, src)
	sinks := make([]*recorder, 8)
	for i := range sinks {
		sinks[i] = &recorder{}
		net.AddNode(types.NodeID(i+1), 1, sinks[i])
	}
	src.onInit = func(env *Env) {
		for i := range sinks {
			env.Send(types.NodeID(i+1), &ping{size: 10_000_000})
		}
	}
	net.RunUntil(20 * time.Second)
	last := time.Duration(0)
	for i, s := range sinks {
		if len(s.got) != 1 {
			t.Fatalf("sink %d received %d", i, len(s.got))
		}
		if s.got[0] > last {
			last = s.got[0]
		}
	}
	// 80 MB through a 12.5 MB/s NIC takes 6.4 s even though each flow alone
	// would deliver in ≈ 0.1 s.
	if last < 5*time.Second {
		t.Errorf("last arrival %v; uplink sharing seems unmodelled", last)
	}
}

func TestCPUChargeDelaysSubsequentEvents(t *testing.T) {
	prof := config.UniformProfile(1, 0, 1000)
	net := New(Options{Profile: prof, Seed: 1, JitterFrac: -1})
	busy := &recorder{}
	busy.onRecv = func(env *Env, _ types.NodeID, _ types.Message) {
		env.Charge(10 * time.Millisecond)
	}
	sender := &recorder{}
	net.AddNode(0, 0, sender)
	net.AddNode(1, 0, busy)
	sender.onInit = func(env *Env) {
		env.Send(1, &ping{size: 10})
		env.Send(1, &ping{size: 10})
		env.Send(1, &ping{size: 10})
	}
	net.RunUntil(time.Second)
	if len(busy.got) != 3 {
		t.Fatalf("busy received %d", len(busy.got))
	}
	// Each event charges 10 ms of CPU, so handling must be spaced ≥ 10 ms.
	for i := 1; i < 3; i++ {
		if gap := busy.got[i] - busy.got[i-1]; gap < 10*time.Millisecond {
			t.Errorf("events %d,%d spaced %v, want ≥ 10 ms", i-1, i, gap)
		}
	}
}

func TestTimerFireAndStop(t *testing.T) {
	prof := config.UniformProfile(1, 0, 1000)
	net := New(Options{Profile: prof, Seed: 1})
	fired, stopped := 0, 0
	h := &recorder{}
	h.onInit = func(env *Env) {
		env.SetTimer(10*time.Millisecond, func() { fired++ })
		tm := env.SetTimer(20*time.Millisecond, func() { stopped++ })
		tm.Stop()
	}
	net.AddNode(0, 0, h)
	net.RunUntil(time.Second)
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	if stopped != 0 {
		t.Errorf("stopped timer fired %d times", stopped)
	}
}

func TestCrashSilencesNode(t *testing.T) {
	net, a, b := twoRegionNet(-1)
	a.onInit = func(env *Env) {
		env.SetTimer(200*time.Millisecond, func() { env.Send(1, &ping{size: 10}) })
	}
	net.RunUntil(100 * time.Millisecond)
	net.Crash(1)
	net.RunUntil(time.Second)
	if len(b.got) != 0 {
		t.Errorf("crashed node received %d messages", len(b.got))
	}
}

func TestInterceptSuppressesRewritesAndHolds(t *testing.T) {
	net, a, b := twoRegionNet(-1)
	c := &recorder{}
	net.AddNode(2, 1, c)
	var held []transport.Delivery
	net.Intercept = func(from, to types.NodeID, msg types.Message) ([]transport.Delivery, bool) {
		switch msg.(*ping).size {
		case 1: // suppressed
			return nil, true
		case 2: // redirected and duplicated
			return []transport.Delivery{{To: 2, Msg: msg}, {To: 2, Msg: &ping{size: 3}}}, true
		case 4: // held
			held = append(held, transport.Delivery{To: to, Msg: msg})
			return nil, true
		}
		return nil, false
	}
	var traced []int
	net.TraceSend = func(_, _ types.NodeID, msg types.Message, _ int, _ bool) {
		traced = append(traced, msg.WireSize())
	}
	a.onInit = func(env *Env) {
		for size := 1; size <= 5; size++ {
			env.Send(1, &ping{size: size})
		}
	}
	net.RunUntil(time.Second)
	if len(b.got) != 2 || len(c.got) != 2 || len(held) != 1 {
		t.Fatalf("b got %d, c got %d, held %d; want 2, 2, 1", len(b.got), len(c.got), len(held))
	}
	if got, want := fmt.Sprint(traced), "[2 3 3 5]"; got != want {
		t.Errorf("traced sizes %s, want %s (what is transmitted, after the intercept)", got, want)
	}
	net.Intercept = nil
	for _, d := range held {
		d := d
		net.At(net.Now(), d.To, func() { b.Receive(0, d.Msg) })
	}
	net.RunFor(0)
	if len(b.got) != 3 || b.got[2] != time.Second {
		t.Errorf("released message: b got %v, want a third delivery at 1s", b.got)
	}
}

func TestNilProfileIsInstantaneous(t *testing.T) {
	net := New(Options{Seed: 1})
	a, b := &recorder{}, &recorder{}
	net.AddNode(0, 0, a)
	net.AddNode(1, 7, b)
	b.onRecv = func(env *Env, from types.NodeID, _ types.Message) {
		if len(b.got) < 3 {
			env.Send(from, &ping{size: 1 << 20})
		}
	}
	a.onRecv = func(env *Env, from types.NodeID, _ types.Message) { env.Send(from, &ping{size: 1 << 20}) }
	a.onInit = func(env *Env) { env.SetTimer(5*time.Millisecond, func() { env.Send(1, &ping{size: 1 << 20}) }) }
	net.RunFor(0)
	if len(b.got) != 0 {
		t.Fatalf("delivered before the timer fired")
	}
	net.RunFor(5 * time.Millisecond)
	if len(b.got) != 3 || len(a.got) != 2 {
		t.Fatalf("b got %d, a got %d; want the whole exchange, 3 and 2", len(b.got), len(a.got))
	}
	for _, at := range append(a.got, b.got...) {
		if at != 5*time.Millisecond {
			t.Errorf("delivery at %v, want 5ms: no latency, bandwidth or jitter", at)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, time.Duration) {
		prof := config.GoogleCloudProfile(3)
		net := New(Options{Profile: prof, Seed: 42})
		var last time.Duration
		for i := 0; i < 9; i++ {
			i := i
			h := &recorder{}
			h.onInit = func(env *Env) {
				env.SetTimer(time.Duration(i)*time.Millisecond, func() {
					for j := 0; j < 9; j++ {
						env.Send(types.NodeID(j), &ping{size: 500})
					}
				})
			}
			h.onRecv = func(env *Env, _ types.NodeID, _ types.Message) {
				last = env.Now()
				env.Charge(time.Duration(i) * time.Microsecond)
			}
			net.AddNode(types.NodeID(i), i%3, h)
		}
		net.RunUntil(time.Second)
		return net.Events(), last
	}
	e1, t1 := run()
	e2, t2 := run()
	if e1 != e2 || t1 != t2 {
		t.Errorf("runs diverge: (%d, %v) vs (%d, %v)", e1, t1, e2, t2)
	}
}

func TestTraceSendObserver(t *testing.T) {
	net, a, _ := twoRegionNet(-1)
	var localN, globalN int
	net.TraceSend = func(_, _ types.NodeID, _ types.Message, _ int, sameRegion bool) {
		if sameRegion {
			localN++
		} else {
			globalN++
		}
	}
	a.onInit = func(env *Env) {
		env.Send(1, &ping{size: 10}) // cross-region
		env.Send(0, &ping{size: 10}) // to self: a local send
	}
	net.RunUntil(time.Second)
	if globalN != 1 {
		t.Errorf("globalN = %d", globalN)
	}
	if localN != 1 {
		t.Errorf("localN = %d", localN)
	}
}

func TestSuiteChargingIntegratesWithClock(t *testing.T) {
	prof := config.UniformProfile(1, 0, 1000)
	net := New(Options{Profile: prof, Seed: 1, Mode: crypto.Fast, Costs: crypto.Costs{Sign: 25 * time.Microsecond}, JitterFrac: -1})
	var first, second time.Duration
	h := &recorder{}
	h.onInit = func(env *Env) {
		env.SetTimer(0, func() {
			env.Suite().Sign([]byte("x")) // 25 µs
			first = env.Now()
		})
		env.SetTimer(0, func() { second = env.Now() })
	}
	net.AddNode(0, 0, h)
	net.RunUntil(time.Second)
	if first < 25*time.Microsecond {
		t.Errorf("suite did not charge CPU: now=%v", first)
	}
	if second < 25*time.Microsecond {
		t.Errorf("second event not delayed by busy CPU: %v", second)
	}
}
