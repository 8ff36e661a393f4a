package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"edr/internal/transport"
)

// fabric is the benchmark's view of the wire: a transport.Network wrapper
// every client and replica of a fleet listens through. Untraced it does
// two atomic adds per Send — the sources of rpcs_per_window and
// wire_bytes_per_window — and nothing else. With a tracer attached it
// also records one span per Send and one per handler execution.
type fabric struct {
	inner transport.Network

	sends atomic.Int64
	bytes atomic.Int64 // request + response Message.BodyLen over every Send

	tr *tracer // nil on untraced fleets

	mu    sync.Mutex
	names []string // node id → fabric address
}

func newFabric(inner transport.Network, tr *tracer) *fabric {
	return &fabric{inner: inner, tr: tr}
}

// Listen registers a node; on traced fleets its handler is wrapped so each
// execution becomes a child span of the Send that caused it.
func (f *fabric) Listen(name string, h transport.Handler) (transport.Node, error) {
	// The id is fixed before the inner Listen so the handler wrapper
	// captures a constant: a TCP listener may accept before Listen returns.
	f.mu.Lock()
	id := int32(len(f.names))
	f.names = append(f.names, "")
	f.mu.Unlock()
	if f.tr != nil {
		h = f.tr.wrapHandler(id, h)
	}
	node, err := f.inner.Listen(name, h)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.names[id] = node.Name()
	f.mu.Unlock()
	return &fabricNode{Node: node, f: f, id: id}, nil
}

// nodeNames returns the address of every node by id.
func (f *fabric) nodeNames() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.names...)
}

type fabricNode struct {
	transport.Node
	f  *fabric
	id int32
}

func (n *fabricNode) Send(ctx context.Context, to string, req transport.Message) (transport.Message, error) {
	tr := n.f.tr
	idx := int32(-1)
	var start int64
	if tr != nil {
		if idx = tr.reserve(); idx >= 0 {
			start = tr.now()
		}
	}
	resp, err := n.Node.Send(ctx, to, req)
	n.f.sends.Add(1)
	n.f.bytes.Add(int64(req.BodyLen() + resp.BodyLen()))
	if idx >= 0 {
		tr.buf[idx] = span{
			kind: spanSend, name: req.Type, node: n.id, peer: to, parent: handlerOf(ctx),
			start: start, end: tr.now(), tx: int32(req.BodyLen()), rx: int32(resp.BodyLen()), failed: err != nil,
		}
	}
	return resp, err
}

// Span kinds.
const (
	spanBench   = iota // recorded by the closed loop: window, submit, round, drain
	spanSend           // one fabric Send, on the sender
	spanHandler        // one handler execution, on the receiver
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer's epoch. name and peer alias strings the fabric already
// holds. A Send's parent is the handler execution that issued it, carried
// in ctx (both fabrics hand the handler's ctx on to what it calls); a
// handler's parent is the Send that caused it, which the TCP server side
// cannot see in ctx, so it is resolved after the window by time containment
// (resolveParents) on both fabrics alike.
type span struct {
	kind   uint8
	failed bool
	node   int32 // fabric node id the span ran on (-1 for bench spans)
	parent int32 // index of the causing span in the same window, -1 none
	tx, rx int32 // request and response body bytes (sends only)
	start  int64
	end    int64
	name   string // verb, or the bench span's name
	peer   string // sends: destination address; handlers: req.From
}

// tracer holds one window's spans in preallocated memory. The closed loop
// turns it on for a window's timed part, reduces the window's spans to a
// windowTrace between windows, and reuses the buffer.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	n     atomic.Int32
	buf   []span
	// dropped counts spans lost to a full buffer; a window that dropped
	// any is discarded rather than reported short.
	dropped atomic.Int32
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), buf: make([]span, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// reserve claims the next span slot, or -1 when the tracer is off or full.
func (t *tracer) reserve() int32 {
	if !t.on.Load() {
		return -1
	}
	idx := t.n.Add(1) - 1
	if int(idx) >= len(t.buf) {
		t.dropped.Add(1)
		return -1
	}
	return idx
}

// bench records a span of the closed loop itself (window, submit, round,
// drain) that started at start; on a nil or switched-off tracer it is inert.
func (t *tracer) bench(name string, start int64) {
	if t == nil {
		return
	}
	if idx := t.reserve(); idx >= 0 {
		t.buf[idx] = span{kind: spanBench, name: name, node: -1, parent: -1, start: start, end: t.now()}
	}
}

// clock is now() for the closed loop, 0 on a nil tracer.
func (t *tracer) clock() int64 {
	if t == nil {
		return 0
	}
	return t.now()
}

// enable switches span recording; the closed loop turns it on for a traced
// window's timed part only.
func (t *tracer) enable(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

type handlerKey struct{}

// handlerOf returns the span of the handler execution ctx descends from.
func handlerOf(ctx context.Context) int32 {
	if idx, ok := ctx.Value(handlerKey{}).(int32); ok {
		return idx
	}
	return -1
}

// wrapHandler records each execution of h on node id and marks the ctx it
// hands h, so the Sends h issues know their parent.
func (t *tracer) wrapHandler(id int32, h transport.Handler) transport.Handler {
	return func(ctx context.Context, req transport.Message) (transport.Message, error) {
		idx := t.reserve()
		if idx < 0 {
			return h(ctx, req)
		}
		ctx = context.WithValue(ctx, handlerKey{}, idx)
		start := t.now()
		resp, err := h(ctx, req)
		t.buf[idx] = span{
			kind: spanHandler, name: req.Type, node: id, peer: req.From, parent: -1,
			start: start, end: t.now(), failed: err != nil,
		}
		return resp, err
	}
}

// spans returns the window's spans in place (valid until reset). ok is
// false when the buffer overflowed and the window must be discarded.
func (t *tracer) spans() (spans []span, ok bool) {
	n := min(int(t.n.Load()), len(t.buf))
	return t.buf[:n], t.dropped.Load() == 0
}

// reset empties the buffer for the next window, doubling it when the last
// window filled more than half.
func (t *tracer) reset() {
	if n := int(t.n.Load()); 2*n > len(t.buf) {
		t.buf = make([]span, 2*len(t.buf))
	} else {
		clear(t.buf[:n])
	}
	t.n.Store(0)
	t.dropped.Store(0)
}
