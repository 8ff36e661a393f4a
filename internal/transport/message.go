// Package transport carries EDR's inter-node messages: a small typed
// envelope, one length-prefixed binary frame layout (binary.go), and two
// interchangeable fabrics — real TCP sockets held open between peers (the
// paper's deployment, §III-C) and an in-process fabric for deterministic
// tests and simulations.
//
// The paper's server design is multithreaded with TCP/IP sockets: a
// ClientListener accepting client requests, a ReplicaListener exchanging
// solution state between replicas, and FileDownload workers streaming the
// selected bytes. This package provides the socket substrate those
// components are built on (see internal/core for the components).
package transport

import (
	"encoding"
	"encoding/binary"
	"fmt"
	"io"
)

// Message is the envelope exchanged between EDR nodes. Every body is
// binary: its Go type implements encoding.BinaryMarshaler on the sending
// end and encoding.BinaryUnmarshaler on the receiving one (binary.go).
type Message struct {
	// Type routes the message (e.g. "client.request", "replica.solution",
	// "ring.heartbeat").
	Type string
	// From names the sending node.
	From string
	// Body is the encoded payload.
	Body []byte
}

// BodyLen reports the payload size in bytes.
func (m Message) BodyLen() int { return len(m.Body) }

// NewMessage builds a Message with the body v marshals to. A nil v leaves
// the body empty.
func NewMessage(msgType, from string, v encoding.BinaryMarshaler) (Message, error) {
	m := Message{Type: msgType, From: from}
	if v == nil {
		return m, nil
	}
	body, err := v.MarshalBinary()
	if err != nil {
		return Message{}, fmt.Errorf("transport: marshal %s body: %w", msgType, err)
	}
	m.Body = body
	return m, nil
}

// DecodeBody unmarshals the message body into v, with an error naming the
// message type when v refuses it.
func (m Message) DecodeBody(v encoding.BinaryUnmarshaler) error {
	if err := v.UnmarshalBinary(m.Body); err != nil {
		return fmt.Errorf("transport: decode %s body: %w", m.Type, err)
	}
	return nil
}

// MaxFrameBytes bounds a single wire frame. Solution matrices for the
// paper-scale problems are well under this; the bound protects listeners
// from corrupt length prefixes.
const MaxFrameBytes = 64 << 20

// frameEagerBytes is the largest payload ReadFrame allocates on the
// strength of the length prefix alone. A longer frame's buffer grows with
// the bytes actually received, so a peer that claims MaxFrameBytes and
// sends nothing costs this much, not 64 MB.
const frameEagerBytes = 64 << 10

// readPayload reads n payload bytes from r.
func readPayload(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, min(n, frameEagerBytes))
	for read := 0; ; {
		if _, err := io.ReadFull(r, buf[read:]); err != nil {
			return nil, err
		}
		if read = len(buf); read == n {
			return buf, nil
		}
		buf = append(buf, make([]byte, min(n-read, read))...)
	}
}

// ReadFrame reads one length-prefixed message written by WriteFrame.
func ReadFrame(r io.Reader) (Message, error) {
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return Message{}, err // io.EOF passes through for clean shutdown
	}
	n := binary.BigEndian.Uint32(prefix[:])
	if n > MaxFrameBytes {
		return Message{}, fmt.Errorf("transport: frame length %d exceeds limit %d", n, MaxFrameBytes)
	}
	payload, err := readPayload(r, int(n))
	if err != nil {
		return Message{}, fmt.Errorf("transport: read frame payload: %w", err)
	}
	return decodeFrame(payload)
}
