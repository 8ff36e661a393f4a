package main

import (
	"context"
	"fmt"
	"net"
	"syscall"
	"time"

	"edr/internal/core"
	"edr/internal/model"
	"edr/internal/opt"
	"edr/internal/transport"
)

// fleet is one workload's whole deployment — every replica and client on
// one fabric, in this process — reached only through core's public entry
// points.
type fleet struct {
	w   workload
	in  *instance
	fab *fabric

	models       []model.Replica       // by instance column
	replicas     []*core.ReplicaServer // by instance column
	clients      []*core.Client        // by instance row
	replicaAddrs []string
	clientAddrs  []string
	lats         []map[string]float64 // per client: replica address → latency
	replicaCol   map[string]int
	clientRow    map[string]int
}

// reservePorts picks n free loopback ports by binding and releasing them,
// the way cmd_e2e_test.go's freePorts does: a replica's address must be in
// its peers' member lists before any of them listens.
func reservePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	listeners := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range listeners {
			l.Close()
		}
	}()
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		listeners = append(listeners, l)
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// buildFleet brings up w's replicas and clients. ReplicaConfig is edrd's
// defaults apart from what the workload names.
func buildFleet(w workload, in *instance, tr *tracer) (*fleet, error) {
	var network transport.Network = transport.NewInProcNetwork()
	if w.tcp {
		network = transport.NewTCPNetwork()
	}
	f := &fleet{
		w: w, in: in, fab: newFabric(network, tr),
		replicaCol: make(map[string]int, w.replicas),
		clientRow:  make(map[string]int, w.clients),
	}
	listen := make([]string, w.replicas)
	for j := range listen {
		listen[j] = fmt.Sprintf("r%02d", j)
	}
	if w.tcp {
		var err error
		if listen, err = reservePorts(w.replicas); err != nil {
			return nil, err
		}
	}
	for j, addr := range listen {
		f.models = append(f.models, model.NewReplica(addr, in.prices[j]))
		rs, err := core.NewReplicaServer(f.fab, addr, listen, core.ReplicaConfig{
			Replica:          f.models[j],
			Algorithm:        w.alg,
			CohortMinClients: w.cohortMin,
			Incremental:      w.incremental,
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.replicas = append(f.replicas, rs)
		f.replicaAddrs = append(f.replicaAddrs, rs.Addr())
		f.replicaCol[rs.Addr()] = j
	}
	for i := 0; i < w.clients; i++ {
		addr := fmt.Sprintf("c%05d", i)
		if w.tcp {
			addr = "127.0.0.1:0"
		}
		cl, err := core.NewClient(f.fab, addr)
		if err != nil {
			f.close()
			return nil, err
		}
		f.clients = append(f.clients, cl)
		f.clientAddrs = append(f.clientAddrs, cl.Addr())
		f.clientRow[cl.Addr()] = i
		lat := make(map[string]float64, w.replicas)
		for j, ra := range f.replicaAddrs {
			lat[ra] = in.lat[i][j]
		}
		f.lats = append(f.lats, lat)
	}
	return f, nil
}

func (f *fleet) close() {
	for _, cl := range f.clients {
		cl.Close()
	}
	for _, rs := range f.replicas {
		rs.Close()
	}
}

// problem is the optimization instance of one window, rows and columns in
// instance order — what the checks and the reference solver see.
func (f *fleet) problem(demands []float64) (*opt.Problem, error) {
	sys, err := model.NewSystem(f.models)
	if err != nil {
		return nil, err
	}
	prob := &opt.Problem{System: sys, Demands: demands, Latency: f.in.lat, MaxLatency: maxLatencySec}
	return prob, prob.Validate()
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// window is what one scheduling window produced and cost.
type window struct {
	demands []float64 // in instance row order (a private copy)
	report  *core.RoundReport
	// allocs[i] is the allocation client i was pushed this window (got[i]).
	// Both are the loop's buffers, valid until its next window.
	allocs []core.AllocationBody
	got    []bool

	roundS, windowS, cpuS float64
	sends, bytes          int64
	// submitErrs counts refused or failed Submits; roundErr is RunRound's.
	submitErrs int
	roundErr   error
	drainErr   error
	trace      *windowTrace // traced windows only
}

// loop is the closed scheduling loop over one fleet: window k+1 is
// submitted only after window k's round returned and every allocation it
// pushed was drained, by one generator goroutine.
type loop struct {
	f    *fleet
	gen  *demandGen
	seen []int64 // per client: allocations already drained
	// Receive buffers reused across windows, so the harness adds little
	// garbage of its own to the heap the measured rounds collect.
	allocs []core.AllocationBody
	got    []bool
}

func newLoop(f *fleet, seed uint64) *loop {
	n := len(f.clients)
	return &loop{
		f: f, gen: newDemandGen(f.w, seed), seen: make([]int64, n),
		allocs: make([]core.AllocationBody, n), got: make([]bool, n),
	}
}

// run executes the next window. Only Submit → RunRound → drain sit inside
// the timed, CPU-accounted and traced region.
func (l *loop) run(ctx context.Context, traced bool) *window {
	f := l.f
	clear(l.allocs)
	clear(l.got)
	win := &window{demands: append([]float64(nil), l.gen.window()...), allocs: l.allocs, got: l.got}
	contact := f.replicas[0]
	tr := f.fab.tr
	tr.enable(traced)
	sends0, bytes0 := f.fab.sends.Load(), f.fab.bytes.Load()
	cpu0 := cpuSeconds()
	start, t0 := time.Now(), tr.clock()

	for i, cl := range f.clients {
		if err := cl.Submit(ctx, contact.Addr(), win.demands[i], f.lats[i]); err != nil {
			win.submitErrs++
		}
	}
	tr.bench("submit", t0)
	submitted, t1 := time.Now(), tr.clock()

	win.report, win.roundErr = contact.RunRound(ctx)
	tr.bench("round", t1)
	rounded, t2 := time.Now(), tr.clock()

	win.drainErr = l.drain(ctx, win)
	tr.bench("drain", t2)
	end := time.Now()

	win.cpuS = cpuSeconds() - cpu0
	win.sends, win.bytes = f.fab.sends.Load()-sends0, f.fab.bytes.Load()-bytes0
	tr.bench("window", t0)
	tr.enable(false)
	win.roundS = rounded.Sub(submitted).Seconds()
	win.windowS = end.Sub(start).Seconds()
	return win
}

// drain receives every allocation the round pushed. A client's push is in
// its channel before the initiator's notify fan-out returns, so each
// client's allocation counter says whether one is waiting; suppressed
// clients have none.
func (l *loop) drain(ctx context.Context, win *window) error {
	received := 0
	for i, cl := range l.f.clients {
		for n := cl.Stats.Allocations.Value(); l.seen[i] < n; l.seen[i]++ {
			body, err := cl.WaitAllocation(ctx)
			if err != nil {
				return fmt.Errorf("drain client %d: %w", i, err)
			}
			win.allocs[i], win.got[i] = body, true
			received++
		}
	}
	if win.report != nil {
		if want := len(l.f.clients) - win.report.SuppressedNotifies; received != want {
			return fmt.Errorf("drained %d allocations, round pushed %d", received, want)
		}
	}
	return nil
}
