// Package cluster simulates the compute substrate the paper runs on: eight
// nodes of Virginia Tech's SystemG cluster (2× quad-core 2.8 GHz Xeon,
// 8 GB RAM), each emulating one data-center replica. A node's electrical
// draw is a step function of its utilization between a calibrated idle and
// peak level; the runtime power profiles in the paper's Fig. 3/4 swing
// between ≈215 W (listening/idle) and ≈240 W (request handling and file
// transfer), which the defaults here reproduce.
package cluster

import (
	"fmt"
	"sort"
	"time"
)

// SystemG-calibrated power levels (watts), read off the paper's Fig. 3/4
// y-axes.
const (
	// DefaultIdleWatts is a node's draw while only listening for requests.
	DefaultIdleWatts = 215.0
	// DefaultPeakWatts is the draw at full utilization (transfer phase).
	DefaultPeakWatts = 240.0
)

// utilPoint is one step of the utilization timeline: utilization holds the
// given value from At until the next point.
type utilPoint struct {
	at   time.Time
	util float64
}

// Node is one simulated cluster machine. Utilization is recorded as a
// step function over virtual time; power interpolates linearly between the
// idle and peak draw. Node is not safe for concurrent mutation; the
// experiment harnesses drive each node from a single event loop.
type Node struct {
	// Name identifies the node ("replica1"...).
	Name string
	// IdleWatts and PeakWatts bound the draw.
	IdleWatts, PeakWatts float64

	timeline []utilPoint
}

// NewSystemGNode returns a node with the paper-calibrated idle/peak draw,
// initially idle (utilization 0) for all time.
func NewSystemGNode(name string) *Node {
	return &Node{Name: name, IdleWatts: DefaultIdleWatts, PeakWatts: DefaultPeakWatts}
}

// SetUtilization records that the node's utilization becomes u (clamped to
// [0, 1]) at time at. Calls must be in non-decreasing time order; a call
// at the same instant as the previous one overwrites it.
func (n *Node) SetUtilization(at time.Time, u float64) {
	if u < 0 {
		u = 0
	} else if u > 1 {
		u = 1
	}
	if last := len(n.timeline) - 1; last >= 0 {
		prev := n.timeline[last]
		if at.Before(prev.at) {
			panic(fmt.Sprintf("cluster: %s: utilization set at %v after later point %v", n.Name, at, prev.at))
		}
		if at.Equal(prev.at) {
			n.timeline[last].util = u
			return
		}
	}
	n.timeline = append(n.timeline, utilPoint{at: at, util: u})
}

// UtilizationAt returns the step-function value at time t (0 before the
// first recorded point).
func (n *Node) UtilizationAt(t time.Time) float64 {
	// Find the last point with at <= t.
	idx := sort.Search(len(n.timeline), func(i int) bool {
		return n.timeline[i].at.After(t)
	})
	if idx == 0 {
		return 0
	}
	return n.timeline[idx-1].util
}

// PowerAt returns the node's electrical draw at time t:
// idle + (peak − idle) · utilization(t).
func (n *Node) PowerAt(t time.Time) float64 {
	return n.IdleWatts + (n.PeakWatts-n.IdleWatts)*n.UtilizationAt(t)
}

// Reset clears the utilization timeline, returning the node to idle.
func (n *Node) Reset() { n.timeline = n.timeline[:0] }

// Cluster is a named set of nodes emulating the replica fleet.
type Cluster struct {
	Nodes []*Node
}

// NewSystemG builds the paper's eight-node deployment (or any other size)
// with nodes named replica1..replicaN.
func NewSystemG(n int) *Cluster {
	if n <= 0 {
		panic(fmt.Sprintf("cluster: NewSystemG(%d) needs n > 0", n))
	}
	c := &Cluster{Nodes: make([]*Node, n)}
	for i := range c.Nodes {
		c.Nodes[i] = NewSystemGNode(fmt.Sprintf("replica%d", i+1))
	}
	return c
}

// Node returns the i-th node.
func (c *Cluster) Node(i int) *Node { return c.Nodes[i] }

// Reset returns every node to idle.
func (c *Cluster) Reset() {
	for _, n := range c.Nodes {
		n.Reset()
	}
}
