package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"resilientdb/internal/metrics"
	"resilientdb/internal/types"
)

// TCP is a real network transport: one listener per process plus a
// dial-on-demand pool of outgoing connections, carrying length-prefixed
// frames of the canonical wire codec (types.EncodeMessage). It matches the
// Mem transport's semantics — non-blocking sends, drop on full mailbox or
// full send queue — so the fabric pipeline behaves identically over
// loopback, a LAN, or a WAN. Lost connections redial with exponential
// backoff; messages queued while a peer is unreachable are bounded by the
// send queue and dropped beyond it, exactly like datagrams.
//
// A process hosts any subset of a deployment's nodes: Register declares a
// node local, and the address book maps every other node to its process's
// listen address.
type TCP struct {
	// Auth, if set, appends an authentication tag to every outgoing frame
	// and verifies the tag of every inbound one against the sender identity
	// the frame claims, closing the connection on a mismatch (counted as an
	// AuthReject drop). Without it the wire `from` field is trusted — fine
	// on a closed loopback bench, spoofable on a shared network. It must be
	// set before the first Send, and every process of a deployment must
	// agree on it (authenticated and plaintext framings do not interoperate).
	Auth FrameAuth
	// Logf, if set, receives diagnostic messages (dropped frames, decode
	// failures, reconnects). Optional.
	Logf func(format string, args ...any)

	addr func(types.NodeID) string
	ln   net.Listener

	mu      sync.RWMutex
	boxes   map[types.NodeID]*mailbox
	peers   map[string]*peerConn
	inbound map[net.Conn]struct{}
	closed  bool

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup // accept loop, readers, peer writers
	drops  metrics.Drops
}

const (
	// maxFrame bounds one wire frame; larger frames poison the connection
	// (it is dropped and redialed).
	maxFrame = 64 << 20
	// sendQueueDepth bounds the per-peer outgoing queue.
	sendQueueDepth = 4096
	// maxQueuedBytes bounds the total bytes of frames parked in one peer's
	// outgoing queue. The queue depth alone bounds only the frame count:
	// against a permanently dead peer, 4096 queued catch-up responses could
	// pin gigabytes of pooled encoder memory while the dialer backs off
	// forever. Beyond this budget frames are dropped (counted) like any
	// other send-queue overflow.
	maxQueuedBytes = 32 << 20
	// maxRetainedRead bounds the reusable per-connection read buffer; the
	// encode side caps pooled buffers the same way (types.Release).
	maxRetainedRead = 1 << 20
	dialTimeout     = 3 * time.Second
	writeTimeout    = 10 * time.Second
	backoffFloor    = 50 * time.Millisecond
	backoffCeil     = 2 * time.Second
)

// NewTCP starts a TCP transport listening on listenAddr (host:port; use
// ":0" for an ephemeral port and Addr to read it back). addr is the address
// book: it returns the listen address of the process hosting a node, or ""
// for unknown nodes (sends to them are dropped).
func NewTCP(listenAddr string, addr func(types.NodeID) string) (*TCP, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", listenAddr, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t := &TCP{
		addr:    addr,
		ln:      ln,
		boxes:   make(map[types.NodeID]*mailbox),
		peers:   make(map[string]*peerConn),
		inbound: make(map[net.Conn]struct{}),
		ctx:     ctx,
		cancel:  cancel,
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the transport's bound listen address.
func (t *TCP) Addr() string { return t.ln.Addr().String() }

func (t *TCP) logf(format string, args ...any) {
	if t.Logf != nil {
		t.Logf(format, args...)
	}
}

// Register implements Transport: it declares id local to this process.
func (t *TCP) Register(id types.NodeID) <-chan Envelope {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.boxes[id]; dup {
		panic("transport: duplicate registration")
	}
	box := newMailbox(&t.drops)
	t.boxes[id] = box
	return box.ch
}

// Unregister implements Transport.
func (t *TCP) Unregister(id types.NodeID) {
	t.mu.Lock()
	box := t.boxes[id]
	delete(t.boxes, id)
	t.mu.Unlock()
	if box != nil {
		box.close()
	}
}

// Stats implements Transport.
func (t *TCP) Stats() metrics.DropStats { return t.drops.Snapshot() }

// Send implements Transport. Local destinations are delivered directly;
// remote ones are framed with the wire codec and queued on the connection
// to their hosting process.
func (t *TCP) Send(from, to types.NodeID, msg types.Message) {
	t.mu.RLock()
	if t.closed {
		t.mu.RUnlock()
		return
	}
	box := t.boxes[to]
	t.mu.RUnlock()
	if box != nil {
		box.put(Envelope{From: from, Msg: msg})
		return
	}
	dest := t.addr(to)
	if dest == "" {
		t.drops.NoRoute.Add(1)
		return // unknown node: drop, as Mem does
	}
	frame, err := t.encodeFrame(from, to, msg)
	if err != nil {
		t.drops.Encode.Add(1)
		t.logf("transport: dropping %s to %v: %v", msg.MsgType(), to, err)
		return
	}
	if peer := t.peerFor(dest); peer != nil {
		peer.enqueue(frame)
	} else {
		frame.Release()
	}
}

// encodeFrame builds one wire frame: 4-byte big-endian payload length, then
// the payload — sender, destination and the tagged message body, followed by
// the authentication tag over those payload bytes when the transport is
// authenticated. The frame lives in a pooled encoder that travels the send
// queue; whoever consumes the frame (writer loop, or the drop paths)
// releases it back to the pool, so steady-state sending allocates nothing.
func (t *TCP) encodeFrame(from, to types.NodeID, msg types.Message) (*types.Encoder, error) {
	enc := types.GetEncoder()
	enc.U32(0) // length, patched below
	enc.I32(int32(from))
	enc.I32(int32(to))
	if err := types.AppendMessage(enc, msg); err != nil {
		enc.Release()
		return nil, err
	}
	if t.Auth != nil {
		// The tag covers everything after the length prefix — including the
		// claimed (from, to) pair, which also selects the MAC key, so a frame
		// rewritten to claim another sender cannot verify.
		enc.Raw(t.Auth.Tag(from, to, enc.Bytes()[4:]))
	}
	frame := enc.Bytes()
	binary.BigEndian.PutUint32(frame[:4], uint32(len(frame)-4))
	return enc, nil
}

// peerFor returns (creating on first use) the outgoing connection to a
// remote process.
func (t *TCP) peerFor(dest string) *peerConn {
	t.mu.RLock()
	p := t.peers[dest]
	t.mu.RUnlock()
	if p != nil {
		return p
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	if p = t.peers[dest]; p != nil {
		return p
	}
	p = &peerConn{t: t, dest: dest, queue: make(chan *types.Encoder, sendQueueDepth)}
	t.peers[dest] = p
	t.wg.Add(1)
	go p.run()
	return p
}

// Close implements Transport.
func (t *TCP) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	boxes := t.boxes
	t.boxes = map[types.NodeID]*mailbox{}
	peers := make([]*peerConn, 0, len(t.peers))
	for _, p := range t.peers {
		peers = append(peers, p)
	}
	conns := make([]net.Conn, 0, len(t.inbound))
	for c := range t.inbound {
		conns = append(conns, c)
	}
	t.mu.Unlock()

	t.cancel()   // aborts in-flight dials and writer loops
	t.ln.Close() // stops the accept loop
	for _, c := range conns {
		c.Close() // unblocks readers
	}
	for _, p := range peers {
		p.closeConn() // unblocks a writer stuck mid-write
	}
	t.wg.Wait()
	for _, box := range boxes {
		box.close()
	}
}

// acceptLoop accepts inbound connections and spawns a reader per peer. It
// only exits on Close: transient Accept errors (e.g. EMFILE) are retried,
// since giving up would leave the process permanently deaf while peers'
// dials still land in the kernel backlog.
func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			select {
			case <-t.ctx.Done():
				return
			case <-time.After(10 * time.Millisecond):
			}
			t.logf("transport: accept: %v (retrying)", err)
			continue
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.inbound[conn] = struct{}{}
		t.wg.Add(1)
		t.mu.Unlock()
		go t.readLoop(conn)
	}
}

// readLoop reads frames off one inbound connection and routes them to local
// mailboxes. A malformed or oversized frame poisons the connection: it is
// closed and the peer redials.
func (t *TCP) readLoop(conn net.Conn) {
	defer func() {
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
		conn.Close()
		t.wg.Done()
	}()
	br := bufio.NewReaderSize(conn, 64<<10)
	var lenBuf [4]byte
	// One payload buffer per connection, grown on demand and reused across
	// frames: deliver's decoder copies every byte a message retains, so the
	// buffer is free again as soon as deliver returns.
	var payload []byte
	for {
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(lenBuf[:])
		minLen := uint32(8)
		if t.Auth != nil {
			minLen += uint32(t.Auth.TagSize())
		}
		if n < minLen || n > maxFrame {
			t.drops.Decode.Add(1)
			t.logf("transport: poisoned frame length %d from %s", n, conn.RemoteAddr())
			return
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			return
		}
		if !t.deliver(payload, conn) {
			return // authentication failure poisons the connection
		}
		if cap(payload) > maxRetainedRead {
			// An oversized frame (catch-up reply, view-change) grew the
			// buffer; do not pin that memory for the connection's lifetime.
			payload = nil
		}
	}
}

// deliver decodes one frame payload and hands it to the destination's
// mailbox. Unknown destinations and undecodable messages are dropped. With
// frame authentication enabled the tag is verified against the claimed
// (from, to) pair before the message body is even parsed; a mismatch — a
// connection trying to speak as a node whose pair keys it does not hold —
// is counted as an AuthReject drop and reported by returning false, which
// makes the caller close the connection (an honest peer never sends an
// unauthenticated frame, so nothing legitimate is lost).
func (t *TCP) deliver(payload []byte, conn net.Conn) bool {
	body := payload
	if t.Auth != nil {
		split := len(payload) - t.Auth.TagSize() // readLoop guaranteed ≥ 8
		body = payload[:split]
		from := types.NodeID(int32(binary.BigEndian.Uint32(body[0:4])))
		to := types.NodeID(int32(binary.BigEndian.Uint32(body[4:8])))
		if !t.Auth.Verify(from, to, body, payload[split:]) {
			t.drops.AuthReject.Add(1)
			t.logf("transport: rejecting frame with unauthenticated sender %v from %s", from, conn.RemoteAddr())
			return false
		}
	}
	dec := types.NewDecoder(body)
	from := types.NodeID(dec.I32())
	to := types.NodeID(dec.I32())
	msg, err := types.DecodeMessageFrom(dec)
	if err != nil || dec.Remaining() != 0 {
		t.drops.Decode.Add(1)
		t.logf("transport: dropping undecodable frame from %s: %v", conn.RemoteAddr(), err)
		return true
	}
	t.mu.RLock()
	box := t.boxes[to]
	t.mu.RUnlock()
	if box != nil {
		box.put(Envelope{From: from, Msg: msg})
	}
	return true
}

// peerConn is the outgoing connection to one remote process: a bounded
// frame queue drained by a writer goroutine that dials on demand and
// reconnects with exponential backoff. The queue is bounded twice — by
// frame count (sendQueueDepth) and by total bytes (maxQueuedBytes) — so a
// permanently dead peer pins a bounded amount of pooled encoder memory
// while the dialer backs off, no matter how large the frames are.
type peerConn struct {
	t      *TCP
	dest   string
	queue  chan *types.Encoder
	queued atomic.Int64 // bytes held by frames currently in queue

	mu   sync.Mutex
	conn net.Conn
}

// enqueue queues one frame without blocking; a queue full by count or by
// bytes drops it (counted) and recycles its buffer.
func (p *peerConn) enqueue(frame *types.Encoder) {
	size := int64(frame.Len())
	if p.queued.Add(size) > maxQueuedBytes {
		p.queued.Add(-size)
		frame.Release()
		p.t.drops.SendQueue.Add(1)
		p.t.logf("transport: send queue to %s over byte budget, dropping frame", p.dest)
		return
	}
	select {
	case p.queue <- frame:
	default:
		p.queued.Add(-size)
		frame.Release()
		p.t.drops.SendQueue.Add(1)
		p.t.logf("transport: send queue to %s full, dropping frame", p.dest)
	}
}

// take releases one frame's bytes from the queue budget as it leaves the
// queue.
func (p *peerConn) take(frame *types.Encoder) {
	p.queued.Add(-int64(frame.Len()))
}

func (p *peerConn) setConn(c net.Conn) {
	p.mu.Lock()
	p.conn = c
	p.mu.Unlock()
}

// closeConn closes the active connection (used by Close to unblock the
// writer).
func (p *peerConn) closeConn() {
	p.mu.Lock()
	if p.conn != nil {
		p.conn.Close()
	}
	p.mu.Unlock()
}

// run dials and drains the queue until the transport closes.
func (p *peerConn) run() {
	defer p.t.wg.Done()
	backoff := backoffFloor
	dialer := net.Dialer{Timeout: dialTimeout}
	for {
		select {
		case <-p.t.ctx.Done():
			return
		default:
		}
		conn, err := dialer.DialContext(p.t.ctx, "tcp", p.dest)
		if err != nil {
			select {
			case <-p.t.ctx.Done():
				return
			case <-time.After(backoff):
			}
			backoff *= 2
			if backoff > backoffCeil {
				backoff = backoffCeil
			}
			continue
		}
		backoff = backoffFloor
		p.setConn(conn)
		p.writeLoop(conn)
		p.setConn(nil)
		conn.Close()
	}
}

// writeLoop drains frames into conn until it fails or the transport closes.
// Frames are coalesced: after the blocking receive, the loop greedily drains
// whatever else is queued into a buffered writer and flushes only when the
// queue runs empty, so a burst of broadcasts costs one syscall instead of one
// per frame.
func (p *peerConn) writeLoop(conn net.Conn) {
	bw := bufio.NewWriterSize(conn, 64<<10)
	for {
		select {
		case frame := <-p.queue:
			p.take(frame)
			conn.SetWriteDeadline(time.Now().Add(writeTimeout))
			_, err := bw.Write(frame.Bytes())
			frame.Release()
		coalesce:
			for err == nil {
				select {
				case next := <-p.queue:
					p.take(next)
					// Re-arm the deadline per frame: under sustained load
					// this loop runs indefinitely, and a deadline fixed at
					// batch start would time out a healthy connection.
					conn.SetWriteDeadline(time.Now().Add(writeTimeout))
					_, err = bw.Write(next.Bytes())
					next.Release()
				default:
					break coalesce
				}
			}
			if err == nil {
				err = bw.Flush()
			}
			if err != nil {
				p.t.logf("transport: write to %s: %v (reconnecting)", p.dest, err)
				return
			}
		case <-p.t.ctx.Done():
			return
		}
	}
}
