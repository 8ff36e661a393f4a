package transport

import (
	"context"
	"errors"
)

// Handler processes one request message and returns the response. Handlers
// run concurrently; implementations must be safe for concurrent use. A
// handler may be handed the sender's own req.Body (the in-process fabric
// does), so it copies whatever of it it keeps past its return.
type Handler func(ctx context.Context, req Message) (Message, error)

// ErrUnknownPeer is returned by Send when the destination is not reachable
// on the fabric (never registered, or already closed).
var ErrUnknownPeer = errors.New("transport: unknown peer")

// ErrClosed is returned by operations on a closed node or network.
var ErrClosed = errors.New("transport: closed")

// Node is one addressable endpoint on a fabric: it serves its Handler and
// can issue request/response calls to peers.
type Node interface {
	// Name returns the node's fabric address (a logical name on the
	// in-process fabric, host:port on TCP).
	Name() string
	// Send delivers req to the named peer and waits for its response.
	// Send is done with req.Body when it returns, error or not: no
	// goroutine of the fabric reads it afterwards, so the caller may reuse
	// the bytes for its next request.
	Send(ctx context.Context, to string, req Message) (Message, error)
	// Close releases the endpoint. Further Sends fail with ErrClosed.
	Close() error
}

// Network is a message fabric on which nodes can be created.
type Network interface {
	// Listen registers a node under name, serving h.
	Listen(name string, h Handler) (Node, error)
}
