package transport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync/atomic"
)

// Compact binary body codec, version 1. Two kinds of body dominate a
// round's bytes and codec time: the engine's vector-bearing iteration verbs
// — every CDPSM step pulls each peer's estimate, nnz float64s packed over
// the support, which would cost ~19 bytes per value as JSON text — and the
// control-plane bodies paid once per client or per replica every round
// (internal/core/codec.go). Bodies that implement
// encoding.BinaryMarshaler/BinaryUnmarshaler are carried as raw
// little-endian scalars, length-headed strings and vectors and kinded
// matrix frames (at most 8 bytes per element, no reflection), assembled
// from the primitives below.
//
// Wire format: every frame, whatever codec its body's type picked, has one
// layout:
//
//	[u32 BE  len]
//	[u8      version (=1)]
//	[u16 BE  len(Type)] [Type]
//	[u16 BE  len(From)] [From]
//	[body bytes]
//
// The body's Go type picks its codec on both ends (NewMessage,
// DecodeBody): a body sent in the codec its receiver's type does not
// speak is refused, never reinterpreted. Body convention: every request
// body addressed to a round's participant state (the engine verbs,
// round.start, replica.assign) starts with its u32 LE round id, so a
// dispatcher can route a body without decoding it.

// BinaryVersion is the envelope version emitted and accepted.
const BinaryVersion = 1

// WriteFrame writes m in the envelope above, as one Write: on a
// TCP_NODELAY socket two writes are two segments.
func WriteFrame(w io.Writer, m Message) error {
	if len(m.Type) > math.MaxUint16 || len(m.From) > math.MaxUint16 {
		return fmt.Errorf("transport: frame type/from too long (%d/%d)", len(m.Type), len(m.From))
	}
	n := 1 + 2 + len(m.Type) + 2 + len(m.From) + len(m.Body)
	if n > MaxFrameBytes {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit %d", n, MaxFrameBytes)
	}
	buf := make([]byte, 4, 4+n)
	binary.BigEndian.PutUint32(buf, uint32(n))
	buf = append(buf, BinaryVersion)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Type)))
	buf = append(buf, m.Type...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.From)))
	buf = append(buf, m.From...)
	buf = append(buf, m.Body...)
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("transport: write frame: %w", err)
	}
	return nil
}

// decodeFrame parses a frame's payload (after the length prefix).
func decodeFrame(payload []byte) (Message, error) {
	if len(payload) < 1 {
		return Message{}, fmt.Errorf("transport: empty frame")
	}
	if v := payload[0]; v != BinaryVersion {
		return Message{}, fmt.Errorf("transport: frame version %d, want %d", v, BinaryVersion)
	}
	rest := payload[1:]
	readStr := func() (string, error) {
		if len(rest) < 2 {
			return "", fmt.Errorf("transport: truncated frame header")
		}
		n := int(binary.BigEndian.Uint16(rest))
		rest = rest[2:]
		if len(rest) < n {
			return "", fmt.Errorf("transport: frame header claims %d bytes, %d left", n, len(rest))
		}
		s := string(rest[:n])
		rest = rest[n:]
		return s, nil
	}
	var m Message
	var err error
	if m.Type, err = readStr(); err != nil {
		return Message{}, err
	}
	if m.From, err = readStr(); err != nil {
		return Message{}, err
	}
	if len(rest) > 0 {
		m.Body = append([]byte(nil), rest...)
	}
	return m, nil
}

// --- Body primitives ----------------------------------------------------
//
// The Append*/Read* pairs below are the vocabulary algorithm packages
// build their MarshalBinary/UnmarshalBinary from. All scalars are
// little-endian; vectors, lists and matrices carry u32 dims headers and a
// string a u16 length.

// AppendUint32 appends v little-endian.
func AppendUint32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

// AppendFloat64 appends v's IEEE-754 bits little-endian.
func AppendFloat64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendFloats appends a u32 length header followed by the values.
func AppendFloats(b []byte, v []float64) []byte {
	b = AppendUint32(b, uint32(len(v)))
	for _, x := range v {
		b = AppendFloat64(b, x)
	}
	return b
}

// AppendString appends a u16 length header followed by s's bytes. A string
// the header cannot describe is an error, never a truncated length.
func AppendString(b []byte, s string) ([]byte, error) {
	if len(s) > math.MaxUint16 {
		return nil, fmt.Errorf("transport: string of %d bytes exceeds the %d the binary codec carries", len(s), math.MaxUint16)
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...), nil
}

// AppendStrings appends a u32 count followed by each string as AppendString
// writes it.
func AppendStrings(b []byte, v []string) ([]byte, error) {
	b = AppendUint32(b, uint32(len(v)))
	var err error
	for _, s := range v {
		if b, err = AppendString(b, s); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// ReadString consumes a string written by AppendString.
func ReadString(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, fmt.Errorf("transport: binary body truncated (want string header, %d bytes left)", len(b))
	}
	n := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if n > len(b) {
		return "", nil, fmt.Errorf("transport: binary string claims %d bytes, %d left", n, len(b))
	}
	return string(b[:n]), b[n:], nil
}

// ReadStrings consumes a list written by AppendStrings. The count is checked
// against the bytes left (every string costs at least its header) before
// anything is allocated, and the strings share one backing allocation.
func ReadStrings(b []byte) ([]string, []byte, error) {
	n, b, err := ReadUint32(b)
	if err != nil {
		return nil, nil, err
	}
	if uint64(n)*2 > uint64(len(b)) {
		return nil, nil, fmt.Errorf("transport: binary list claims %d strings, %d bytes left", n, len(b))
	}
	size, err := listSize(b, int(n), 0, false)
	if err != nil {
		return nil, nil, err
	}
	all, v := string(b[:size]), make([]string, n)
	for i, off := 0, 0; i < len(v); i++ {
		l := int(binary.LittleEndian.Uint16(b[off:]))
		v[i] = all[off+2 : off+2+l]
		off += 2 + l
	}
	return v, b[size:], nil
}

// AppendPairs appends a pair list: a u32 count, then per pair its key as
// AppendString writes it and its f64 value. pair(i) yields the i-th pair;
// keys must ascend strictly in byte order, so a list has exactly one
// encoding and ReadPairs accepts what this writes.
func AppendPairs(b []byte, n int, pair func(i int) (string, float64)) ([]byte, error) {
	b = AppendUint32(b, uint32(n))
	var prev string
	for i := 0; i < n; i++ {
		key, v := pair(i)
		if i > 0 && key <= prev {
			return nil, fmt.Errorf("transport: pair list key %q at %d does not ascend past %q", key, i, prev)
		}
		var err error
		if b, err = AppendString(b, key); err != nil {
			return nil, err
		}
		b = AppendFloat64(b, v)
		prev = key
	}
	return b, nil
}

// ReadPairs consumes a pair list written by AppendPairs, building each
// element with pair(key, value). A list whose keys repeat or descend is
// refused, as is a count the bytes left cannot hold (a pair costs at least
// 10); the keys share one backing allocation. An empty list reads as nil.
func ReadPairs[T any](b []byte, pair func(key string, v float64) T) ([]T, []byte, error) {
	n, b, err := ReadUint32(b)
	if err != nil {
		return nil, nil, err
	}
	if uint64(n)*10 > uint64(len(b)) {
		return nil, nil, fmt.Errorf("transport: binary pair list claims %d pairs, %d bytes left", n, len(b))
	}
	if n == 0 {
		return nil, b, nil
	}
	size, err := listSize(b, int(n), 8, true)
	if err != nil {
		return nil, nil, err
	}
	all, v := string(b[:size]), make([]T, n)
	for i, off := 0, 0; i < len(v); i++ {
		l := int(binary.LittleEndian.Uint16(b[off:]))
		x, _, _ := ReadFloat64(b[off+2+l:])
		v[i] = pair(all[off+2:off+2+l], x)
		off += 2 + l + 8
	}
	return v, b[size:], nil
}

// listSize walks n length-headed strings at the front of b, each followed
// by gap bytes of other fields (8 for a pair's value), and returns the
// bytes they occupy. Every header and gap must fit in b; with ascending set,
// the strings must strictly ascend. The list's strings are then cut from
// one copy of those bytes, so a list costs one allocation for its names
// (and pins its headers and values with them).
func listSize(b []byte, n, gap int, ascending bool) (int, error) {
	off := 0
	var prev []byte
	for i := 0; i < n; i++ {
		if len(b)-off < 2 {
			return 0, fmt.Errorf("transport: binary body truncated (want string header, %d bytes left)", len(b)-off)
		}
		l := int(binary.LittleEndian.Uint16(b[off:]))
		if l+gap > len(b)-off-2 {
			return 0, fmt.Errorf("transport: binary string claims %d bytes and %d more, %d left", l, gap, len(b)-off-2)
		}
		key := b[off+2 : off+2+l]
		if ascending && i > 0 && bytes.Compare(prev, key) >= 0 {
			return 0, fmt.Errorf("transport: pair list key %q at %d does not ascend past %q", key, i, prev)
		}
		prev = key
		off += 2 + l + gap
	}
	return off, nil
}

// ReadUint32 consumes a little-endian u32.
func ReadUint32(b []byte) (uint32, []byte, error) {
	if len(b) < 4 {
		return 0, nil, fmt.Errorf("transport: binary body truncated (want u32, %d bytes left)", len(b))
	}
	return binary.LittleEndian.Uint32(b), b[4:], nil
}

// ReadFloat64 consumes a little-endian float64.
func ReadFloat64(b []byte) (float64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("transport: binary body truncated (want f64, %d bytes left)", len(b))
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), b[8:], nil
}

// ReadFloats consumes a length-headed vector written by AppendFloats.
func ReadFloats(b []byte) ([]float64, []byte, error) {
	n, b, err := ReadUint32(b)
	if err != nil {
		return nil, nil, err
	}
	if uint64(n)*8 > uint64(len(b)) {
		return nil, nil, fmt.Errorf("transport: binary vector claims %d values, %d bytes left", n, len(b))
	}
	v := make([]float64, n)
	for i := range v {
		v[i], b, _ = ReadFloat64(b)
	}
	return v, b, nil
}

// --- Kinded matrix frames -----------------------------------------------
//
// A dense row-major frame pays 8 bytes per element even when most entries
// are structural zeros (latency-masked instances) or unchanged since a
// matrix the receiver already holds. A kinded frame prefixes one byte
// selecting the cheapest of three layouts, then a u32 dims header:
//
//	[u8 kind] [u32 rows] [u32 cols] ...
//	kind 0 (full):   values row-major
//	kind 1 (sparse): u32 count, then (u32 flat index, f64 value) per
//	                 entry whose bits differ from +0
//	kind 2 (delta):  u32 count, then (u32 flat index, f64 value) per
//	                 entry whose bits differ from the shared base matrix
//
// Change detection is bitwise (math.Float64bits), so a decoded matrix is
// bit-identical to the encoded one regardless of kind. Delta frames need
// the receiver to hold the same base the sender diffed against; no verb
// negotiates a base any more, and every caller outside the tests passes a
// nil base. Vectors (ADMM targets, CDPSM estimates) are packed over the
// support and ride plain AppendFloats frames: a packed vector has no
// structural zeros for a sparse frame to drop.
const (
	// MatrixFull is the dense row-major layout.
	MatrixFull = 0
	// MatrixSparse enumerates the nonzero entries.
	MatrixSparse = 1
	// MatrixDelta enumerates the entries that changed versus a base.
	MatrixDelta = 2
)

// matrixFrameStats counts emitted kinded frames per kind, for the
// benchmark harness's delta-hit-rate report.
var matrixFrameStats [3]atomic.Uint64

// MatrixFrameStats reports how many kinded matrix frames have been
// emitted per kind (full, sparse, delta) since the last reset.
func MatrixFrameStats() (full, sparse, delta uint64) {
	return matrixFrameStats[MatrixFull].Load(),
		matrixFrameStats[MatrixSparse].Load(),
		matrixFrameStats[MatrixDelta].Load()
}

// ResetMatrixFrameStats zeroes the kinded-frame counters.
func ResetMatrixFrameStats() {
	for i := range matrixFrameStats {
		matrixFrameStats[i].Store(0)
	}
}

// AppendMatrixKinded appends m in whichever kinded frame is smallest.
// base, when non-nil and of identical dims, enables the delta layout;
// ties prefer the simpler kind (full, then sparse, then delta).
func AppendMatrixKinded(b []byte, m, base [][]float64) []byte {
	rows := len(m)
	cols := 0
	if rows > 0 {
		cols = len(m[0])
	}
	total := rows * cols
	nonzero := 0
	for _, row := range m {
		for _, x := range row {
			if math.Float64bits(x) != 0 {
				nonzero++
			}
		}
	}
	changed := -1
	if base != nil && len(base) == rows && (rows == 0 || len(base[0]) == cols) {
		changed = 0
		for i, row := range m {
			for j, x := range row {
				if math.Float64bits(x) != math.Float64bits(base[i][j]) {
					changed++
				}
			}
		}
	}
	// Body costs beyond the shared kind+dims header: full 8·total,
	// sparse/delta 4 + 12·count.
	kind := MatrixFull
	best := 8 * total
	if c := 4 + 12*nonzero; c < best {
		kind, best = MatrixSparse, c
	}
	if changed >= 0 {
		if c := 4 + 12*changed; c < best {
			kind = MatrixDelta
		}
	}
	b = append(b, byte(kind))
	b = AppendUint32(b, uint32(rows))
	b = AppendUint32(b, uint32(cols))
	switch kind {
	case MatrixFull:
		for _, row := range m {
			for _, x := range row {
				b = AppendFloat64(b, x)
			}
		}
	case MatrixSparse:
		b = AppendUint32(b, uint32(nonzero))
		for i, row := range m {
			for j, x := range row {
				if math.Float64bits(x) != 0 {
					b = AppendUint32(b, uint32(i*cols+j))
					b = AppendFloat64(b, x)
				}
			}
		}
	case MatrixDelta:
		b = AppendUint32(b, uint32(changed))
		for i, row := range m {
			for j, x := range row {
				if math.Float64bits(x) != math.Float64bits(base[i][j]) {
					b = AppendUint32(b, uint32(i*cols+j))
					b = AppendFloat64(b, x)
				}
			}
		}
	}
	matrixFrameStats[kind].Add(1)
	return b
}

// ReadMatrixKinded consumes a kinded matrix frame. base supplies the
// reference a delta frame was diffed against (it is read, never mutated);
// decoding a delta without a matching base is an error. The returned
// matrix is always freshly allocated.
func ReadMatrixKinded(b []byte, base [][]float64) ([][]float64, []byte, error) {
	if len(b) < 1 {
		return nil, nil, fmt.Errorf("transport: kinded matrix frame truncated")
	}
	kind := b[0]
	b = b[1:]
	rows32, b, err := ReadUint32(b)
	if err != nil {
		return nil, nil, err
	}
	cols32, b, err := ReadUint32(b)
	if err != nil {
		return nil, nil, err
	}
	rows, cols := int(rows32), int(cols32)
	if rows != 0 && cols == 0 {
		return nil, nil, fmt.Errorf("transport: kinded matrix claims %d rows of zero columns", rows)
	}
	// Cap the decoded size at what a dense frame could have carried, so a
	// corrupt sparse/delta header cannot force a huge allocation.
	if uint64(rows)*uint64(cols) > MaxFrameBytes/8 {
		return nil, nil, fmt.Errorf("transport: kinded matrix claims %d×%d elements", rows, cols)
	}
	newMatrix := func() [][]float64 {
		backing := make([]float64, rows*cols)
		m := make([][]float64, rows)
		for i := range m {
			m[i], backing = backing[:cols:cols], backing[cols:]
		}
		return m
	}
	readEntries := func(m [][]float64) ([]byte, error) {
		count, rest, err := ReadUint32(b)
		if err != nil {
			return nil, err
		}
		if uint64(count)*12 > uint64(len(rest)) {
			return nil, fmt.Errorf("transport: kinded matrix claims %d entries, %d bytes left", count, len(rest))
		}
		if uint64(count) > uint64(rows*cols) {
			return nil, fmt.Errorf("transport: kinded matrix claims %d entries for %d×%d", count, rows, cols)
		}
		for e := uint32(0); e < count; e++ {
			var idx uint32
			idx, rest, _ = ReadUint32(rest)
			var v float64
			v, rest, _ = ReadFloat64(rest)
			if int(idx) >= rows*cols {
				return nil, fmt.Errorf("transport: kinded matrix entry index %d out of %d×%d", idx, rows, cols)
			}
			m[int(idx)/cols][int(idx)%cols] = v
		}
		return rest, nil
	}
	switch kind {
	case MatrixFull:
		if uint64(rows)*uint64(cols)*8 > uint64(len(b)) {
			return nil, nil, fmt.Errorf("transport: kinded matrix claims %d×%d values, %d bytes left", rows, cols, len(b))
		}
		m := newMatrix()
		for i := range m {
			for j := range m[i] {
				m[i][j], b, _ = ReadFloat64(b)
			}
		}
		return m, b, nil
	case MatrixSparse:
		m := newMatrix()
		rest, err := readEntries(m)
		if err != nil {
			return nil, nil, err
		}
		return m, rest, nil
	case MatrixDelta:
		if base == nil || len(base) != rows || (rows > 0 && len(base[0]) != cols) {
			return nil, nil, fmt.Errorf("transport: %d×%d delta matrix frame without a matching base", rows, cols)
		}
		m := newMatrix()
		for i := range m {
			copy(m[i], base[i])
		}
		rest, err := readEntries(m)
		if err != nil {
			return nil, nil, err
		}
		return m, rest, nil
	}
	return nil, nil, fmt.Errorf("transport: unknown matrix frame kind %d", kind)
}

// BinaryRound reads the u32 LE round id every engine request body leads
// with, letting dispatchers route without a full decode.
func BinaryRound(m Message) (int, error) {
	if len(m.Body) < 4 {
		return 0, fmt.Errorf("transport: %s body too short for a round header", m.Type)
	}
	return int(binary.LittleEndian.Uint32(m.Body)), nil
}
