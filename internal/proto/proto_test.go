package proto_test

import (
	"slices"
	"testing"
	"time"

	"resilientdb/internal/crypto"
	"resilientdb/internal/detsim"
	"resilientdb/internal/proto"
	"resilientdb/internal/types"
)

func TestReplyWireSize(t *testing.T) {
	r := &proto.Reply{TxnCount: 100}
	// 1.5 kB per 100-transaction batch (paper Section 4).
	if got := r.WireSize(); got < 1400 || got > 1700 {
		t.Errorf("reply-100 wire size = %d, want ≈1.5 kB", got)
	}
	if r.MsgType() != "reply" {
		t.Errorf("MsgType = %s", r.MsgType())
	}
}

type countHandler struct {
	got  int
	init func(proto.Env)
}

func (h *countHandler) InitEnv(env proto.Env) {
	if h.init != nil {
		h.init(env)
	}
}
func (h *countHandler) Receive(types.NodeID, types.Message) { h.got++ }

func TestMulticastSkipsSelf(t *testing.T) {
	net := detsim.New(detsim.Options{Seed: 1})
	hs := make([]*countHandler, 3)
	for i := range hs {
		hs[i] = &countHandler{}
		net.AddNode(types.NodeID(i), 0, hs[i])
	}
	hs[0].init = func(env proto.Env) {
		proto.Multicast(env, []types.NodeID{0, 1, 2}, &proto.Reply{})
	}
	net.RunUntil(time.Second)
	if hs[0].got != 0 {
		t.Errorf("self received %d", hs[0].got)
	}
	if hs[1].got != 1 || hs[2].got != 1 {
		t.Errorf("peers received %d, %d", hs[1].got, hs[2].got)
	}
}

// fakeEnv records what a client core sends and the timers it arms.
type fakeEnv struct {
	proto.Env
	suite  *crypto.Suite
	sent   []types.NodeID
	timers []func()
}

func (e *fakeEnv) ID() types.NodeID                      { return types.ClientIDBase }
func (e *fakeEnv) Send(to types.NodeID, _ types.Message) { e.sent = append(e.sent, to) }
func (e *fakeEnv) Suite() *crypto.Suite                  { return e.suite }
func (e *fakeEnv) SetTimer(_ time.Duration, fn func()) proto.Timer {
	e.timers = append(e.timers, fn)
	return nil
}

func TestClientTargetAndRetry(t *testing.T) {
	group := []types.NodeID{0, 1, 2, 3} // f = 1
	env := &fakeEnv{suite: crypto.NewSuite(crypto.NewDirectory(crypto.Fast, []types.NodeID{types.ClientIDBase}),
		types.ClientIDBase, crypto.FreeCosts(), nil)}
	c := proto.NewClient(env, group)
	done := map[uint64]bool{}
	submit := func(seq uint64, want ...types.NodeID) {
		t.Helper()
		env.sent = nil
		c.Submit(seq, &proto.Reply{}, func() { done[seq] = true })
		if !slices.Equal(env.sent, want) {
			t.Errorf("batch %d sent to %v, want %v", seq, env.sent, want)
		}
	}
	reply := func(from types.NodeID, seq, view uint64) {
		c.Receive(from, &proto.Reply{ClientSeq: seq, View: view})
	}

	submit(1, 0)
	reply(3, 1, 2) // one member, perhaps lying, claims view 2
	reply(9, 1, 2) // a non-member counts for nothing
	if done[1] {
		t.Fatal("completed on one member's reply")
	}
	reply(3, 1, 2) // nor twice from the same member
	if done[1] {
		t.Fatal("completed on one member's two replies")
	}
	reply(2, 1, 0)
	if !done[1] {
		t.Fatal("f+1 replies did not complete the batch")
	}
	submit(2, 0) // one report cannot raise the view
	reply(1, 2, 1)
	reply(2, 2, 1)
	submit(3, 1) // views 0, 1, 1, 2: the (f+1)-th highest is 1
	reply(1, 3, 0)
	reply(2, 3, 0) // a view reported lower than before is not a step back
	submit(4, 1)

	env.sent = nil
	env.timers[1]() // batch 2 completed: its retry does nothing
	if len(env.sent) != 0 {
		t.Errorf("completed batch 2 retried to %v", env.sent)
	}
	env.timers[3]() // batch 4 is unanswered: the whole group gets it
	if !slices.Equal(env.sent, group) {
		t.Errorf("batch 4 retried to %v, want %v", env.sent, group)
	}
	submit(5, 1) // the retry of one batch does not move later ones
	c.Cancel(5)
	env.sent = nil
	env.timers[len(env.timers)-1]()
	if len(env.sent) != 0 {
		t.Errorf("cancelled batch 5 retried to %v", env.sent)
	}
}
