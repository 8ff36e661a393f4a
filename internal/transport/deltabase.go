package transport

import "sync"

// Per-peer delta-base negotiation, generalized from the CDPSM estimate
// protocol (PR 8) so any engine verb can opt into v2 delta frames.
//
// Two shapes exist:
//
//   - Pull verbs (CDPSM estimates): the requester caches the last matrix
//     it pulled from each peer (MatrixBaseCache) and declares its
//     iteration id; the server diffs its reply against the matching
//     snapshot it kept.
//
//   - Push verbs (ADMM proximal targets; LDDM's μ, packed over each
//     replica's support, rides plain vectors): the sender
//     tracks, per peer, the last vector that peer confirmed decoding
//     (DeltaTx) and diffs each new frame against it; the receiver keeps
//     its last two absorbed vectors (DeltaRx) so both the next frame and
//     a retried duplicate of the current one can resolve their base.
//
// Correctness leans on the engine's wave barriers: exchange i of
// iteration k completes (every reply folded) before iteration k+1
// starts, so a frame for iteration k deltas against an iteration the
// receiver absorbed at k−1 or earlier, and transport-level retries
// resend the identical marshaled bytes. Base matching is by iteration
// id, and the marshal-time chooser (AppendMatrixKinded) only emits a
// delta when it is strictly smallest — bases drifting apart degrade to
// full/sparse frames, never to corruption.

// DeltaTx is the sender half of per-peer base negotiation for a push
// verb: Stage before marshaling a frame, Ack after the peer's reply
// folds. The zero value is ready to use. Safe for concurrent use —
// engine exchanges build bodies for distinct peers concurrently.
type DeltaTx struct {
	mu    sync.Mutex
	peers map[string]*deltaTxPeer
}

type deltaTxPeer struct {
	staged     []float64
	stagedIter int
	acked      []float64
	ackedIter  int
}

// Stage records the vector about to be shipped to peer at iteration iter
// (copied — callers mutate their iterates in place between waves) and
// returns the base the frame may delta against: the last vector this
// peer acked, or (nil, −1) when none exists. The returned slice stays
// valid until the Stage after the next Ack.
func (tx *DeltaTx) Stage(peer string, iter int, v []float64) (base []float64, baseIter int) {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if tx.peers == nil {
		tx.peers = make(map[string]*deltaTxPeer)
	}
	p := tx.peers[peer]
	if p == nil {
		p = &deltaTxPeer{}
		tx.peers[peer] = p
	}
	if len(p.staged) != len(v) {
		p.staged = make([]float64, len(v))
	}
	copy(p.staged, v)
	p.stagedIter = iter
	if p.acked == nil {
		return nil, -1
	}
	return p.acked, p.ackedIter
}

// Ack promotes peer's staged vector to the acked base: the peer's reply
// folded, so it decoded (and now holds) that exact vector. The old acked
// buffer is recycled as the next staging scratch.
func (tx *DeltaTx) Ack(peer string) {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	p := tx.peers[peer]
	if p == nil || p.staged == nil {
		return
	}
	p.staged, p.acked = p.acked, p.staged
	p.ackedIter = p.stagedIter
}

// DeltaRx is the receiver half for a push verb: it holds the last two
// absorbed vectors so a frame can resolve its declared base by iteration
// id. The zero value is ready to use; safe for concurrent use.
type DeltaRx struct {
	mu       sync.Mutex
	cur      []float64
	curIter  int
	prev     []float64
	prevIter int
}

// Resolve returns the held vector absorbed at iteration iter, or nil.
// The result is read-only shared state.
func (rx *DeltaRx) Resolve(iter int) []float64 {
	rx.mu.Lock()
	defer rx.mu.Unlock()
	if rx.cur != nil && rx.curIter == iter {
		return rx.cur
	}
	if rx.prev != nil && rx.prevIter == iter {
		return rx.prev
	}
	return nil
}

// Absorb records a decoded vector for iteration iter. Newer iterations
// rotate the pair forward; a duplicate of the current iteration replaces
// it in place (retried frames decode to identical bytes); older
// duplicates are ignored so an out-of-order dup cannot roll the window
// back. v must not be mutated afterwards (decoded frames are freshly
// allocated, so handlers hand them over naturally).
func (rx *DeltaRx) Absorb(iter int, v []float64) {
	rx.mu.Lock()
	defer rx.mu.Unlock()
	switch {
	case rx.cur == nil || iter > rx.curIter:
		rx.prev, rx.prevIter = rx.cur, rx.curIter
		rx.cur, rx.curIter = v, iter
	case iter == rx.curIter:
		rx.cur = v
	}
}

// MatrixBaseCache is the requester half of a pull verb's base
// negotiation: the last matrix pulled from each peer and the iteration
// id it was committed at (CDPSM's per-peer estimate cache, hoisted here
// so other verbs can reuse it). The zero value is ready to use; safe for
// concurrent use.
type MatrixBaseCache struct {
	mu    sync.Mutex
	bases map[string]matrixBase
}

type matrixBase struct {
	m    [][]float64
	iter int
}

// Get returns the cached matrix and iteration id for peer, or (nil, −1).
func (c *MatrixBaseCache) Get(peer string) ([][]float64, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.bases[peer]
	if !ok {
		return nil, -1
	}
	return b.m, b.iter
}

// Put records the matrix just decoded from peer at iteration iter. m
// must not be mutated afterwards.
func (c *MatrixBaseCache) Put(peer string, iter int, m [][]float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.bases == nil {
		c.bases = make(map[string]matrixBase)
	}
	c.bases[peer] = matrixBase{m: m, iter: iter}
}

// AppendFloatsKinded appends v as a kinded 1×len(v) matrix frame,
// sharing the matrix chooser (full/sparse/delta, smallest wins, bitwise
// change detection) and the MatrixFrameStats counters. base, when
// non-nil and of equal length, enables the delta layout. An empty vector
// is carried as a 0×0 frame.
func AppendFloatsKinded(b []byte, v, base []float64) []byte {
	if len(v) == 0 {
		return AppendMatrixKinded(b, nil, nil)
	}
	var bm [][]float64
	if len(base) == len(v) {
		bm = [][]float64{base}
	}
	return AppendMatrixKinded(b, [][]float64{v}, bm)
}

// ReadFloatsKinded consumes a kinded vector frame written by
// AppendFloatsKinded. base supplies the delta reference; decoding a
// delta without a matching base is an error. The result is freshly
// allocated.
func ReadFloatsKinded(b []byte, base []float64) ([]float64, []byte, error) {
	var bm [][]float64
	if base != nil {
		bm = [][]float64{base}
	}
	m, rest, err := ReadMatrixKinded(b, bm)
	if err != nil {
		return nil, nil, err
	}
	if len(m) == 0 {
		return []float64{}, rest, nil
	}
	return m[0], rest, nil
}
