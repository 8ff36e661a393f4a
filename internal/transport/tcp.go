package transport

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"edr/internal/telemetry"
)

// TCPNetwork is the live fabric: each node binds a real TCP listener and
// serves framed request/response exchanges, one at a time per accepted
// connection, for as long as the peer keeps the connection open — the
// paper's multithreaded socket server, one thread per peer connection.
// Senders keep their connections: a node pools idle connections per peer,
// so a coordination RPC costs one write and one read, not a handshake.
// Node names are host:port addresses, so any node can message any other by
// address with no central registry.
type TCPNetwork struct {
	// DialTimeout bounds connection establishment. Zero means 5s.
	DialTimeout time.Duration
}

// NewTCPNetwork returns a TCP fabric with default timeouts.
func NewTCPNetwork() *TCPNetwork { return &TCPNetwork{} }

const (
	// maxIdlePerPeer bounds the idle connections a node keeps to one peer;
	// a connection checked in above the bound is closed.
	maxIdlePerPeer = 8
	// maxIdleAge is how long a connection may sit idle and still be reused:
	// middleboxes forget quiet flows without telling either end. Older ones
	// are closed lazily, by the sends that come across them (checkout,
	// checkin) — there is no janitor goroutine.
	maxIdleAge = 30 * time.Second
	// connBufBytes sizes each connection's read buffer: large enough that
	// a coordination frame arrives in one read, small enough that ten
	// thousand parked connections cost megabytes, not tens of them. Bigger
	// payloads bypass the buffer (bufio reads straight into the caller's).
	connBufBytes = 1024
	// frameTimeout bounds how long the rest of a frame may take once its
	// first byte has arrived, and how long a response write may block.
	frameTimeout = 30 * time.Second
)

// tcpStats counts pool activity process-wide, like matrixFrameStats: a
// daemon runs one TCP node, and tests read deltas.
var tcpStats struct {
	dials, reuses, redials atomic.Uint64
	idle, served           atomic.Int64
}

// TCPStats is a snapshot of the TCP fabric's connection counters.
type TCPStats struct {
	// Dials counts connections established, Reuses sends that found an
	// idle pooled connection, Redials reused connections found dead and
	// transparently replaced.
	Dials   uint64 `json:"dials"`
	Reuses  uint64 `json:"reuses"`
	Redials uint64 `json:"redials"`
	// Idle is the number of pooled client connections right now, Served
	// the number of accepted connections being served.
	Idle   int64 `json:"idle"`
	Served int64 `json:"served"`
}

// TCPPoolStats reports the process's TCP connection counters.
func TCPPoolStats() TCPStats {
	return TCPStats{
		Dials:   tcpStats.dials.Load(),
		Reuses:  tcpStats.reuses.Load(),
		Redials: tcpStats.redials.Load(),
		Idle:    tcpStats.idle.Load(),
		Served:  tcpStats.served.Load(),
	}
}

// RegisterTCPStats exposes the counters on an admin registry.
func RegisterTCPStats(reg *telemetry.Registry) {
	reg.CounterFunc("edr_transport_tcp_dials_total",
		"TCP connections established to peers.", nil,
		func() float64 { return float64(tcpStats.dials.Load()) })
	reg.CounterFunc("edr_transport_tcp_reuses_total",
		"Sends that reused a pooled connection instead of dialing.", nil,
		func() float64 { return float64(tcpStats.reuses.Load()) })
	reg.CounterFunc("edr_transport_tcp_redials_total",
		"Pooled connections found dead and replaced by a fresh dial.", nil,
		func() float64 { return float64(tcpStats.redials.Load()) })
	reg.Gauge("edr_transport_tcp_idle_conns",
		"Client connections currently idle in the pool.", nil,
		func() float64 { return float64(tcpStats.idle.Load()) })
	reg.Gauge("edr_transport_tcp_served_conns",
		"Accepted connections currently being served.", nil,
		func() float64 { return float64(tcpStats.served.Load()) })
}

// tcpConn is one pooled client connection with its read buffer.
type tcpConn struct {
	net.Conn
	br        *bufio.Reader
	idleSince time.Time
}

type tcpNode struct {
	name     string
	listener net.Listener
	handler  Handler
	dialTO   time.Duration
	frameTO  time.Duration
	// ctx is what handlers run under; Close cancels it.
	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	closed bool
	idle   map[string][]*tcpConn // per peer, most recently used last
	swept  time.Time             // last sweep of idle for aged connections
	served map[net.Conn]bool     // accepted connections → handler running
	wg     sync.WaitGroup
}

// Listen binds the given address ("host:port", with ":0" choosing a free
// port) and serves h on every accepted connection. Use Name to learn the
// bound address.
func (n *TCPNetwork) Listen(addr string, h Handler) (Node, error) {
	to := n.DialTimeout
	if to == 0 {
		to = 5 * time.Second
	}
	return listenTCP(addr, h, to, frameTimeout)
}

func listenTCP(addr string, h Handler, dialTO, frameTO time.Duration) (*tcpNode, error) {
	if h == nil {
		return nil, fmt.Errorf("transport: tcp listen %q: nil handler", addr)
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: tcp listen %q: %w", addr, err)
	}
	node := &tcpNode{
		name:     l.Addr().String(),
		listener: l,
		handler:  h,
		dialTO:   dialTO,
		frameTO:  frameTO,
		idle:     make(map[string][]*tcpConn),
		swept:    time.Now(),
		served:   make(map[net.Conn]bool),
	}
	node.ctx, node.cancel = context.WithCancel(context.Background())
	node.wg.Add(1)
	go node.acceptLoop()
	return node, nil
}

func (nd *tcpNode) acceptLoop() {
	defer nd.wg.Done()
	for {
		conn, err := nd.listener.Accept()
		if err != nil {
			return // listener closed
		}
		nd.mu.Lock()
		if nd.closed {
			nd.mu.Unlock()
			conn.Close()
			return
		}
		nd.served[conn] = false
		nd.wg.Add(1)
		nd.mu.Unlock()
		tcpStats.served.Add(1)
		go nd.serveConn(conn)
	}
}

// setBusy marks conn as running a handler (or done with one). It reports
// false once the node is closed, and then leaves the mark alone: Close
// hangs up on exactly the connections not marked busy, so a request is
// either dropped unhandled or handled and answered, never handled and then
// cut off — the rule Send's transparent redial rests on.
func (nd *tcpNode) setBusy(conn net.Conn, busy bool) bool {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	if nd.closed {
		return false
	}
	nd.served[conn] = busy
	return true
}

// serveConn handles request/response exchanges until the peer hangs up,
// stalls mid-frame, or the node closes.
func (nd *tcpNode) serveConn(conn net.Conn) {
	defer func() {
		nd.mu.Lock()
		delete(nd.served, conn)
		nd.mu.Unlock()
		conn.Close()
		tcpStats.served.Add(-1)
		nd.wg.Done()
	}()
	br := bufio.NewReaderSize(conn, connBufBytes)
	for {
		// Waiting for the next request may take forever; finishing one
		// that has started may not. (Setting a deadline fails only on a
		// closed connection, which the read or write after it reports.)
		if _, err := br.Peek(1); err != nil {
			return
		}
		conn.SetReadDeadline(time.Now().Add(nd.frameTO))
		req, err := ReadFrame(br)
		if err != nil {
			return
		}
		conn.SetReadDeadline(time.Time{})
		if !nd.setBusy(conn, true) {
			return
		}
		resp, err := nd.handler(nd.ctx, req)
		if err != nil {
			// A string always marshals: the error text goes as JSON.
			resp, _ = NewMessage("error", nd.name, err.Error())
		}
		conn.SetWriteDeadline(time.Now().Add(nd.frameTO))
		err = WriteFrame(conn, resp)
		if !nd.setBusy(conn, false) || err != nil {
			return
		}
	}
}

func (nd *tcpNode) Name() string { return nd.name }

// checkout returns a connection to the peer: the most recently used idle
// one if it is young enough (reused = true), or a fresh dial.
func (nd *tcpNode) checkout(ctx context.Context, to string) (c *tcpConn, reused bool, err error) {
	nd.mu.Lock()
	if nd.closed {
		nd.mu.Unlock()
		return nil, false, ErrClosed
	}
	if conns := nd.idle[to]; len(conns) > 0 {
		last := len(conns) - 1
		c, conns[last], nd.idle[to] = conns[last], nil, conns[:last]
	}
	nd.mu.Unlock()
	if c != nil {
		tcpStats.idle.Add(-1)
		if time.Since(c.idleSince) <= maxIdleAge {
			tcpStats.reuses.Add(1)
			return c, true, nil
		}
		c.Close() // the ones beneath it are older still; checkin's sweep collects them
	}
	c, err = nd.dial(ctx, to)
	return c, false, err
}

func (nd *tcpNode) dial(ctx context.Context, to string) (*tcpConn, error) {
	d := net.Dialer{Timeout: nd.dialTO}
	conn, err := d.DialContext(ctx, "tcp", to)
	if err != nil {
		return nil, fmt.Errorf("%w: %q: %v", ErrUnknownPeer, to, err)
	}
	tcpStats.dials.Add(1)
	return &tcpConn{Conn: conn, br: bufio.NewReaderSize(conn, connBufBytes)}, nil
}

// checkin returns a connection whose last exchange completed cleanly to
// the peer's idle list, or closes it when the list is full or the node
// closed meanwhile. Once per maxIdleAge it also sweeps every peer's list
// for connections past that age, so sockets to peers this node never
// addresses again (one-shot clients it notified) do not pile up.
func (nd *tcpNode) checkin(to string, c *tcpConn) {
	now := time.Now()
	var drop []*tcpConn
	nd.mu.Lock()
	if !nd.closed && len(nd.idle[to]) < maxIdlePerPeer {
		c.idleSince = now
		nd.idle[to] = append(nd.idle[to], c)
	} else {
		drop = append(drop, c)
	}
	if now.Sub(nd.swept) > maxIdleAge {
		nd.swept = now
		for peer, conns := range nd.idle {
			young := 0 // lists are in check-in order, oldest first
			for young < len(conns) && now.Sub(conns[young].idleSince) > maxIdleAge {
				young++
			}
			drop = append(drop, conns[:young]...)
			if nd.idle[peer] = conns[young:]; young == len(conns) {
				delete(nd.idle, peer)
			}
		}
	}
	nd.mu.Unlock()
	for _, d := range drop {
		d.Close()
	}
	// c either joined the pool or is among the dropped.
	tcpStats.idle.Add(1 - int64(len(drop)))
}

// roundTrip performs one framed request/response on c and disposes of it:
// back to the pool after a clean exchange, closed otherwise. ctx ending
// unblocks the exchange by expiring the connection's deadline, which also
// spends the connection — its deadline is poisoned and a late reply may
// still arrive on it. replied reports whether any response byte arrived.
func (nd *tcpNode) roundTrip(ctx context.Context, c *tcpConn, to string, req Message) (resp Message, replied bool, err error) {
	stop := context.AfterFunc(ctx, func() { c.SetDeadline(time.Unix(1, 0)) })
	if err = WriteFrame(c, req); err == nil {
		if _, err = c.br.Peek(1); err == nil {
			replied = true
			resp, err = ReadFrame(c.br)
		}
		if err != nil {
			err = fmt.Errorf("transport: read response from %q: %w", to, err)
		}
	}
	if stop() && err == nil {
		nd.checkin(to, c)
	} else {
		c.Close()
	}
	if err != nil && ctx.Err() != nil {
		err = fmt.Errorf("transport: exchange with %q: %w (%v)", to, ctx.Err(), err)
	}
	return resp, replied, err
}

// Send performs one framed request/response exchange with the peer over a
// pooled connection, dialing only when none is idle. The connection goes
// back to the pool only after a clean exchange; one that failed, timed
// out, or whose ctx ended is closed, so a late reply is never read by the
// next request.
//
// One failure is repaired here instead of returned: a reused connection
// that dies before the first response byte while ctx is still live is
// replaced by a fresh dial, once. That is the peer having dropped the idle
// socket (restart, Close, a middlebox) — and a peer hangs up only between
// requests or mid-frame, never after reading a complete request without
// answering it (see setBusy), so the request was not handled and resending
// it keeps a failed send undelivered. Every other failure goes to the
// caller.
func (nd *tcpNode) Send(ctx context.Context, to string, req Message) (Message, error) {
	// As on the in-process fabric, nothing is delivered under a ctx that
	// has already ended.
	if err := ctx.Err(); err != nil {
		return Message{}, err
	}
	req.From = nd.name
	c, reused, err := nd.checkout(ctx, to)
	if err != nil {
		return Message{}, err
	}
	resp, replied, err := nd.roundTrip(ctx, c, to, req)
	if err != nil && reused && !replied && ctx.Err() == nil {
		tcpStats.redials.Add(1)
		if c, err = nd.dial(ctx, to); err != nil {
			return Message{}, err
		}
		resp, _, err = nd.roundTrip(ctx, c, to, req)
	}
	if err != nil {
		return Message{}, err
	}
	if resp.Type == "error" {
		var msg string
		if err := resp.DecodeBody(&msg); err != nil {
			msg = "remote handler error"
		}
		return Message{}, fmt.Errorf("transport: remote %q: %s", to, msg)
	}
	return resp, nil
}

// Close stops the node: it cancels the handlers' context, closes the
// listener, the idle client connections and every accepted connection not
// in the middle of a handler, and waits for the handlers still running to
// answer. Peers see their pooled connections to this node die and their
// redial refused, which surfaces as ErrUnknownPeer.
func (nd *tcpNode) Close() error {
	nd.mu.Lock()
	if nd.closed {
		nd.mu.Unlock()
		return nil
	}
	nd.closed = true
	idle := nd.idle
	nd.idle = nil
	for conn, busy := range nd.served {
		if !busy {
			conn.Close()
		}
	}
	nd.mu.Unlock()
	nd.cancel()
	err := nd.listener.Close()
	for _, conns := range idle {
		for _, c := range conns {
			c.Close()
		}
		tcpStats.idle.Add(-int64(len(conns)))
	}
	nd.wg.Wait()
	return err
}
