package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync/atomic"
)

// Compact binary body codec, version 1. Every body on the wire is binary:
// the engines' iteration verbs (LDDM's μ and reply, ADMM's targets and
// shift, the CDPSM step carrying the initiator's consensus and answered
// with the replica's estimate, each vector packed over the round's
// support), the runtime's control-plane bodies (internal/core/codec.go),
// membership epochs and the DONAR runtime's bodies. A body implements
// encoding.BinaryMarshaler/BinaryUnmarshaler and is written and read with
// the Writer and Reader below: little-endian scalars, length-headed
// strings, vectors and lists, and bitmaps, with no reflection and at most
// 8 bytes per value. A body that is one string or one byte run (the TCP
// error reply, a download's payload, a death notice) is those bytes, with
// no header. The kinded matrix frame at the end of this file is built from
// the same Writer and Reader, but no round body carries one.
//
// Wire format: every frame has one layout:
//
//	[u32 BE  len]
//	[u8      version (=1)]
//	[u16 BE  len(Type)] [Type]
//	[u16 BE  len(From)] [From]
//	[body bytes]
//
// A body's layout is fixed by its Go type on both ends (NewMessage,
// DecodeBody), and its decoder refuses any other bytes. Body convention:
// every request body addressed to a round's participant state (the engine
// verbs, round.start, replica.assign) starts with its u32 LE round id, so
// a dispatcher can route a body without decoding it.

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

// --- Body codec ---------------------------------------------------------
//
// Writer and Reader are the one vocabulary every binary body is written
// and read in. All scalars are little-endian:
//
//	u32, u64, f64   4, 8 and 8 bytes (f64: IEEE-754 bits)
//	string          u16 length + bytes
//	strings         u32 count + strings
//	floats          u32 count + f64s
//	pairs           u32 count + (string, f64) pairs, keys strictly ascending
//	bitmap          u32 byte count + ⌈k/8⌉ bytes over k cells: cell i is
//	                bit i%8 of byte i/8, no bit set at or past k
//
// A layout the writer refuses (a string over 64 KiB, pair keys out of
// order) is refused by the reader too, so a body has one encoding. Both
// keep the first error, so a codec checks once, at Done.

// Writer appends a body to a buffer. The first value the layout cannot
// carry sticks as its error and fails Done.
type Writer struct {
	b   []byte
	err error
}

// NewWriter returns a Writer appending to buf.
func NewWriter(buf []byte) Writer { return Writer{b: buf} }

// U32 appends v as a u32.
func (w *Writer) U32(v int) { w.b = binary.LittleEndian.AppendUint32(w.b, uint32(v)) }

// U64 appends v.
func (w *Writer) U64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }

// F64 appends v's IEEE-754 bits.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Raw appends p as it is, with no header.
func (w *Writer) Raw(p []byte) { w.b = append(w.b, p...) }

// Floats appends a u32 count followed by the values.
func (w *Writer) Floats(v []float64) {
	w.U32(len(v))
	for _, x := range v {
		w.F64(x)
	}
}

// Str appends a u16 length followed by s's bytes. A string the header
// cannot describe fails the body; it is never written with a truncated
// length.
func (w *Writer) Str(s string) {
	if len(s) > math.MaxUint16 {
		w.tooLong(s)
		return
	}
	w.b = append(binary.LittleEndian.AppendUint16(w.b, uint16(len(s))), s...)
}

// tooLong is Str's refusal, kept out of line so that Str inlines.
//
//go:noinline
func (w *Writer) tooLong(s string) {
	w.Fail(fmt.Errorf("transport: string of %d bytes exceeds the %d the binary codec carries", len(s), math.MaxUint16))
}

// Strs appends a u32 count followed by each string as Str writes it.
func (w *Writer) Strs(v []string) {
	l := NewWriter(w.b) // see Pairs
	l.U32(len(v))
	for _, s := range v {
		l.Str(s)
	}
	w.b = l.b
	w.Fail(l.err)
}

// Pairs appends a pair list of n pairs; pair(i) yields the i-th. Keys
// that do not strictly ascend in byte order fail the body, so a list has
// exactly one encoding and ReadPairs accepts what this writes.
func (w *Writer) Pairs(n int, pair func(i int) (string, float64)) {
	// The loop writes a local Writer: a store through w would pay the GC's
	// write barrier per field, a store to the stack pays none.
	l := NewWriter(w.b)
	l.U32(n)
	var prev string
	for i := 0; i < n && l.err == nil; i++ {
		key, v := pair(i)
		if i > 0 && key <= prev {
			l.Fail(fmt.Errorf("transport: pair list key %q at %d does not ascend past %q", key, i, prev))
		}
		l.Str(key)
		l.F64(v)
		prev = key
	}
	w.b = l.b
	w.Fail(l.err)
}

// Bitmap appends the header of a bitmap of cells bits and returns its
// bytes, all clear, for the caller to set bits in.
func (w *Writer) Bitmap(cells int) []byte {
	width := (cells + 7) / 8
	w.U32(width)
	w.b = append(w.b, make([]byte, width)...)
	return w.b[len(w.b)-width:]
}

// Fail makes err the body's error unless it already has one; a nil err
// changes nothing.
func (w *Writer) Fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// Done returns the body, or the first error it met.
func (w *Writer) Done() ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	return w.b, nil
}

// Encode returns the body write writes into a buffer of capacity size, or
// the first error it met.
func Encode(size int, write func(w *Writer)) ([]byte, error) {
	w := NewWriter(make([]byte, 0, size))
	write(&w)
	return w.Done()
}

// Reader consumes a body. The first failure sticks as its error, and every
// later read returns a zero value. A count is checked against the bytes
// left before anything is allocated for it, and an empty list reads as
// nil.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Err returns the first failure, if any.
func (r *Reader) Err() error { return r.err }

// Len returns the bytes left.
func (r *Reader) Len() int { return len(r.b) }

// Fail makes err the body's error unless it already has one; a nil err
// changes nothing.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Done returns the first failure, or refuses the body if bytes are left
// after its last field.
func (r *Reader) Done() error {
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("transport: %d trailing bytes after the body's last field", len(r.b))
	}
	return r.err
}

// Decode reads data with read and refuses it, as Done does, if bytes are
// left after read's last field.
func Decode(data []byte, read func(r *Reader)) error {
	r := NewReader(data)
	read(&r)
	return r.Done()
}

// Raw consumes n bytes with no header and returns them, aliasing the body.
func (r *Reader) Raw(n int) []byte {
	if r.err != nil || n > len(r.b) {
		if r.err == nil {
			r.err = errTruncated
		}
		return nil
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p
}

var errTruncated = errors.New("transport: binary body truncated")

// U32 consumes a u32.
func (r *Reader) U32() int {
	if p := r.Raw(4); p != nil {
		return int(binary.LittleEndian.Uint32(p))
	}
	return 0
}

// U64 consumes a u64.
func (r *Reader) U64() uint64 {
	if p := r.Raw(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// F64 consumes a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Floats consumes a vector written by Writer.Floats.
func (r *Reader) Floats() []float64 { return r.AppendFloats(nil) }

// AppendFloats consumes a vector written by Writer.Floats and appends its
// values to dst, growing it only when it lacks the room, so a caller that
// hands back the same buffer each time decodes without allocating. On a
// refused body it returns dst unchanged.
func (r *Reader) AppendFloats(dst []float64) []float64 {
	n := r.U32()
	if r.err == nil && uint64(n)*8 > uint64(len(r.b)) {
		r.err = fmt.Errorf("transport: binary vector claims %d values, %d bytes left", n, len(r.b))
	}
	if r.err != nil || n == 0 {
		return dst
	}
	dst = slices.Grow(dst, n)
	v := dst[len(dst) : len(dst)+n]
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[8*i:]))
	}
	r.b = r.b[8*n:]
	return dst[:len(dst)+n]
}

// Str consumes a string written by Writer.Str.
func (r *Reader) Str() string {
	p := r.Raw(2)
	if p == nil {
		return ""
	}
	n := int(binary.LittleEndian.Uint16(p))
	if n > len(r.b) {
		r.err = fmt.Errorf("transport: binary string claims %d bytes, %d left", n, len(r.b))
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// Intern consumes a string, returning held itself when the bytes spell
// it, so a name every body repeats costs no allocation.
func (r *Reader) Intern(held string) string {
	if r.err == nil && len(r.b) >= 2 {
		if n := int(binary.LittleEndian.Uint16(r.b)); n <= len(r.b)-2 && string(r.b[2:2+n]) == held {
			r.b = r.b[2+n:]
			return held
		}
	}
	return r.Str()
}

// Strs consumes a list written by Writer.Strs. Its strings share one
// backing allocation.
func (r *Reader) Strs() []string {
	n := r.U32()
	if r.err == nil && uint64(n)*2 > uint64(len(r.b)) {
		r.err = fmt.Errorf("transport: binary list claims %d strings, %d bytes left", n, len(r.b))
	}
	if r.err != nil || n == 0 {
		return nil
	}
	size := r.listSize(n, 0, false)
	if r.err != nil {
		return nil
	}
	all, v := string(r.b[:size]), make([]string, n)
	for i, off := 0, 0; i < len(v); i++ {
		l := int(binary.LittleEndian.Uint16(r.b[off:]))
		v[i] = all[off+2 : off+2+l]
		off += 2 + l
	}
	r.b = r.b[size:]
	return v
}

// ReadPairs consumes a pair list written by Writer.Pairs, building each
// element with pair(key, value). It refuses what PairBytes refuses; the
// keys share one backing allocation. It is a function, not a method,
// because a method cannot take a type parameter.
func ReadPairs[T any](r *Reader, pair func(key string, v float64) T) []T {
	n, raw := r.PairBytes()
	if n == 0 {
		return nil
	}
	all, v := string(raw), make([]T, n)
	for i, off := 0, 0; i < len(v); i++ {
		key, x, next := raw.At(off)
		v[i] = pair(all[off+2:off+2+len(key)], x)
		off = next
	}
	return v
}

// PairBytes consumes a pair list written by Writer.Pairs and returns its
// count and its pairs as written, aliasing the body. A list whose keys
// repeat or descend is refused, as is a count the bytes left cannot hold
// (a pair costs at least 10); an empty or refused list reads as 0 and nil.
func (r *Reader) PairBytes() (int, Pairs) {
	n := r.U32()
	if r.err == nil && uint64(n)*10 > uint64(len(r.b)) {
		r.err = fmt.Errorf("transport: binary pair list claims %d pairs, %d bytes left", n, len(r.b))
	}
	if r.err != nil || n == 0 {
		return 0, nil
	}
	size := r.listSize(n, 8, true)
	if r.err != nil {
		return 0, nil
	}
	raw := r.b[:size]
	r.b = r.b[size:]
	return n, raw
}

// Pairs is a pair list's pairs as written, with no count: each key's u16
// length, the key and its f64 value, back to back. It holds no pointer
// for the GC to trace.
type Pairs []byte

// At returns the pair at offset off, its key aliasing p, and the offset
// past it.
func (p Pairs) At(off int) (key []byte, v float64, next int) {
	l := int(binary.LittleEndian.Uint16(p[off:]))
	next = off + 2 + l + 8
	return p[off+2 : off+2+l], math.Float64frombits(binary.LittleEndian.Uint64(p[next-8:])), next
}

// Len is how many pairs p holds, or -1 when its bytes are not whole pairs.
func (p Pairs) Len() (n int) {
	for off := 0; off < len(p); n++ {
		if len(p)-off < 10 || int(binary.LittleEndian.Uint16(p[off:])) > len(p)-off-10 {
			return -1
		}
		_, _, off = p.At(off)
	}
	return n
}

// ReadList consumes a u32 count and then that many elements, each read by
// elem and at least min bytes long: a count the bytes left cannot hold is
// refused before anything is allocated for it, and an empty list reads as
// nil.
func ReadList[T any](r *Reader, min int, elem func(r *Reader) T) []T {
	n := r.U32()
	if r.err == nil && uint64(n)*uint64(min) > uint64(len(r.b)) {
		r.err = fmt.Errorf("transport: binary list claims %d elements of %d bytes or more, %d bytes left", n, min, len(r.b))
	}
	if r.err != nil || n == 0 {
		return nil
	}
	v := make([]T, n)
	for i := range v {
		v[i] = elem(r)
	}
	return v
}

// listSize walks n length-headed strings at the front of the body, each
// followed by gap bytes of other fields (8 for a pair's value), and returns
// the bytes they occupy. Every header and gap must fit; with ascending set,
// the strings must strictly ascend. The list's strings are then cut from
// one copy of those bytes, so a list costs one allocation for its names
// (and pins its headers and values with them).
func (r *Reader) listSize(n, gap int, ascending bool) int {
	b, off := r.b, 0
	var prev []byte
	for i := 0; i < n; i++ {
		if len(b)-off < 2 {
			r.err = fmt.Errorf("transport: binary body truncated (want string header, %d bytes left)", len(b)-off)
			return 0
		}
		l := int(binary.LittleEndian.Uint16(b[off:]))
		if l+gap > len(b)-off-2 {
			r.err = fmt.Errorf("transport: binary string claims %d bytes and %d more, %d left", l, gap, len(b)-off-2)
			return 0
		}
		key := b[off+2 : off+2+l]
		if ascending && i > 0 && bytes.Compare(prev, key) >= 0 {
			r.err = fmt.Errorf("transport: pair list key %q at %d does not ascend past %q", key, i, prev)
			return 0
		}
		prev = key
		off += 2 + l + gap
	}
	return off
}

// Bitmap consumes a bitmap of cells bits written by Writer.Bitmap and
// returns its bytes, aliasing the body (nil when it has no cells); what
// names it in a refusal. The width must be exactly ⌈cells/8⌉ and no bit
// may be set past the last cell, so a bitmap has one encoding.
func (r *Reader) Bitmap(cells int, what string) []byte {
	width := (cells + 7) / 8
	if got := r.U32(); r.err == nil && (got != width || got > len(r.b)) {
		r.err = fmt.Errorf("transport: %s of %d bytes (%d left) for %d cells, which take %d", what, got, len(r.b), cells, width)
	}
	if r.err != nil || cells == 0 {
		return nil
	}
	bm := r.Raw(width)
	if bm[width-1]>>((cells-1)%8+1) != 0 {
		r.err = fmt.Errorf("transport: %s sets bits past its %d cells", what, cells)
		return nil
	}
	return bm
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
// support and ride plain floats (Writer.Floats): a packed vector has no
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
	w := NewWriter(append(b, byte(kind)))
	w.U32(rows)
	w.U32(cols)
	switch kind {
	case MatrixFull:
		for _, row := range m {
			for _, x := range row {
				w.F64(x)
			}
		}
	case MatrixSparse:
		w.U32(nonzero)
		for i, row := range m {
			for j, x := range row {
				if math.Float64bits(x) != 0 {
					w.U32(i*cols + j)
					w.F64(x)
				}
			}
		}
	case MatrixDelta:
		w.U32(changed)
		for i, row := range m {
			for j, x := range row {
				if math.Float64bits(x) != math.Float64bits(base[i][j]) {
					w.U32(i*cols + j)
					w.F64(x)
				}
			}
		}
	}
	matrixFrameStats[kind].Add(1)
	return w.b
}

// ReadMatrixKinded consumes a kinded matrix frame. base supplies the
// reference a delta frame was diffed against (it is read, never mutated);
// decoding a delta without a matching base is an error. The returned
// matrix is always freshly allocated.
func ReadMatrixKinded(b []byte, base [][]float64) ([][]float64, []byte, error) {
	r := NewReader(b)
	kind := r.Raw(1)
	rows, cols := r.U32(), r.U32()
	if r.err != nil {
		return nil, nil, r.err
	}
	if rows != 0 && cols == 0 {
		return nil, nil, fmt.Errorf("transport: kinded matrix claims %d rows of zero columns", rows)
	}
	// Cap the decoded size at what a dense frame could have carried, so a
	// corrupt sparse/delta header cannot force a huge allocation.
	if uint64(rows)*uint64(cols) > MaxFrameBytes/8 {
		return nil, nil, fmt.Errorf("transport: kinded matrix claims %d×%d elements", rows, cols)
	}
	full := kind[0] == MatrixFull
	switch {
	case full && uint64(rows)*uint64(cols)*8 > uint64(len(r.b)):
		return nil, nil, fmt.Errorf("transport: kinded matrix claims %d×%d values, %d bytes left", rows, cols, len(r.b))
	case kind[0] > MatrixDelta:
		return nil, nil, fmt.Errorf("transport: unknown matrix frame kind %d", kind[0])
	case kind[0] == MatrixDelta && (base == nil || len(base) != rows || (rows > 0 && len(base[0]) != cols)):
		return nil, nil, fmt.Errorf("transport: %d×%d delta matrix frame without a matching base", rows, cols)
	}
	backing := make([]float64, rows*cols)
	m := make([][]float64, rows)
	for i := range m {
		m[i], backing = backing[:cols:cols], backing[cols:]
	}
	if full {
		for i := range m {
			for j := range m[i] {
				m[i][j] = r.F64()
			}
		}
		return m, r.b, nil
	}
	if kind[0] == MatrixDelta {
		for i := range m {
			copy(m[i], base[i])
		}
	}
	count := r.U32()
	if r.err == nil && uint64(count)*12 > uint64(len(r.b)) {
		r.err = fmt.Errorf("transport: kinded matrix claims %d entries, %d bytes left", count, len(r.b))
	}
	if r.err == nil && count > rows*cols {
		r.err = fmt.Errorf("transport: kinded matrix claims %d entries for %d×%d", count, rows, cols)
	}
	for e := 0; e < count && r.err == nil; e++ {
		if idx, v := r.U32(), r.F64(); idx < rows*cols {
			m[idx/cols][idx%cols] = v
		} else {
			r.err = fmt.Errorf("transport: kinded matrix entry index %d out of %d×%d", idx, rows, cols)
		}
	}
	if r.err != nil {
		return nil, nil, r.err
	}
	return m, r.b, nil
}

// BinaryRound reads the u32 LE round id every engine request body leads
// with, letting dispatchers route without a full decode.
func BinaryRound(m Message) (int, error) {
	if len(m.Body) < 4 {
		return 0, fmt.Errorf("transport: %s body too short for a round header", m.Type)
	}
	return int(binary.LittleEndian.Uint32(m.Body)), nil
}
