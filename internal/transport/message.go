// Package transport carries EDR's inter-node messages: a small typed
// envelope, a length-prefixed wire codec (JSON, or the compact binary
// envelope of binary.go), and two interchangeable fabrics — real TCP
// sockets held open between peers (the paper's deployment, §III-C) and an
// in-process fabric for deterministic tests and simulations.
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
	"encoding/json"
	"fmt"
	"io"
)

// Message is the envelope exchanged between EDR nodes. A message carries
// exactly one body: Body (type-specific JSON, the original codec) or Bin
// (the compact binary codec of binary.go, for every body on a round's
// path). DecodeBody accepts either, so handlers are codec-agnostic.
type Message struct {
	// Type routes the message (e.g. "client.request", "replica.solution",
	// "ring.heartbeat").
	Type string `json:"type"`
	// From names the sending node.
	From string `json:"from"`
	// Body is the type-specific JSON payload.
	Body json.RawMessage `json:"body,omitempty"`
	// Bin is the compact binary payload, used instead of Body when the
	// body type implements encoding.BinaryMarshaler.
	Bin []byte `json:"bin,omitempty"`
}

// BodyLen reports the payload size in bytes, whichever codec carries it.
func (m Message) BodyLen() int { return len(m.Body) + len(m.Bin) }

// NewMessage builds a Message with the body marshaled from v, preferring
// the compact binary codec when v implements encoding.BinaryMarshaler and
// falling back to JSON otherwise. A nil v leaves the body empty.
func NewMessage(msgType, from string, v any) (Message, error) {
	if bm, ok := v.(encoding.BinaryMarshaler); ok {
		b, err := bm.MarshalBinary()
		if err != nil {
			return Message{}, fmt.Errorf("transport: marshal %s body: %w", msgType, err)
		}
		return Message{Type: msgType, From: from, Bin: b}, nil
	}
	return NewJSONMessage(msgType, from, v)
}

// NewJSONMessage builds a Message with a JSON body regardless of codec
// support — for peers (or configurations) that speak only JSON.
func NewJSONMessage(msgType, from string, v any) (Message, error) {
	m := Message{Type: msgType, From: from}
	if v != nil {
		b, err := json.Marshal(v)
		if err != nil {
			return Message{}, fmt.Errorf("transport: marshal %s body: %w", msgType, err)
		}
		m.Body = b
	}
	return m, nil
}

// NewReply builds a response mirroring the request's codec: a binary
// request gets a binary reply (when v supports it), a JSON request always
// gets a JSON reply. This is the negotiation rule that keeps JSON-only
// peers working — they never receive bytes they cannot decode.
func NewReply(req Message, msgType, from string, v any) (Message, error) {
	if len(req.Bin) > 0 {
		return NewMessage(msgType, from, v)
	}
	return NewJSONMessage(msgType, from, v)
}

// DecodeBody unmarshals the message body into v, from whichever codec the
// sender used. A binary body requires v to implement
// encoding.BinaryUnmarshaler.
func (m Message) DecodeBody(v any) error {
	if len(m.Bin) > 0 {
		bu, ok := v.(encoding.BinaryUnmarshaler)
		if !ok {
			return fmt.Errorf("transport: %s message has a binary body but %T cannot decode it", m.Type, v)
		}
		if err := bu.UnmarshalBinary(m.Bin); err != nil {
			return fmt.Errorf("transport: decode %s binary body: %w", m.Type, err)
		}
		return nil
	}
	if len(m.Body) == 0 {
		return fmt.Errorf("transport: %s message has empty body", m.Type)
	}
	if err := json.Unmarshal(m.Body, v); err != nil {
		return fmt.Errorf("transport: decode %s body: %w", m.Type, err)
	}
	return nil
}

// MaxFrameBytes bounds a single wire frame. Solution matrices for the
// paper-scale problems are well under this; the bound protects listeners
// from corrupt length prefixes.
const MaxFrameBytes = 64 << 20

// WriteFrame writes m as a 4-byte big-endian length prefix followed by
// the payload. Messages with a binary body use the compact envelope of
// binary.go, flagged by the prefix's top bit; everything else is JSON,
// byte-identical to the original codec.
func WriteFrame(w io.Writer, m Message) error {
	if len(m.Bin) > 0 {
		return writeBinaryFrame(w, m)
	}
	payload, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("transport: encode frame: %w", err)
	}
	if len(payload) > MaxFrameBytes {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit %d", len(payload), MaxFrameBytes)
	}
	// One buffer, one Write: on a TCP_NODELAY socket two writes are two
	// segments.
	buf := make([]byte, 4, 4+len(payload))
	binary.BigEndian.PutUint32(buf, uint32(len(payload)))
	if _, err := w.Write(append(buf, payload...)); err != nil {
		return fmt.Errorf("transport: write frame: %w", err)
	}
	return nil
}

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

// ReadFrame reads one length-prefixed message written by WriteFrame,
// dispatching on the binary flag bit of the prefix.
func ReadFrame(r io.Reader) (Message, error) {
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return Message{}, err // io.EOF passes through for clean shutdown
	}
	raw := binary.BigEndian.Uint32(prefix[:])
	isBin := raw&binFlag != 0
	n := raw &^ uint32(binFlag)
	if n > MaxFrameBytes {
		return Message{}, fmt.Errorf("transport: frame length %d exceeds limit %d", n, MaxFrameBytes)
	}
	payload, err := readPayload(r, int(n))
	if err != nil {
		return Message{}, fmt.Errorf("transport: read frame payload: %w", err)
	}
	if isBin {
		return decodeBinaryFrame(payload)
	}
	var m Message
	if err := json.Unmarshal(payload, &m); err != nil {
		return Message{}, fmt.Errorf("transport: decode frame: %w", err)
	}
	return m, nil
}
