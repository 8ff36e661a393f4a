package edr_test

// End-to-end test of the telemetry subsystem: boot an in-process fleet
// with the full observability stack (instrumented fabric, event bus,
// collector, HTTP admin plane), run a healthy round and a degraded one,
// and scrape /metrics, /status, and /debug/rounds over real HTTP the way
// Prometheus and edrctl status would.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"edr/internal/core"
	"edr/internal/model"
	"edr/internal/telemetry"
	"edr/internal/telemetry/admin"
	"edr/internal/transport"
)

// scrape GETs an admin endpoint and returns the body.
func scrape(t *testing.T, base, path string) (string, *http.Response) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	return string(body), resp
}

// metricValue extracts the value of a metric sample (exact name plus
// rendered label block) from a Prometheus exposition body.
func metricValue(t *testing.T, body, sample string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(sample) + ` (\S+)$`)
	m := re.FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("metric sample %q not found in exposition:\n%s", sample, body)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric sample %q has unparsable value %q", sample, m[1])
	}
	return v
}

func TestTelemetryEndToEnd(t *testing.T) {
	// The fleet: three replicas on the in-process fabric, wrapped by the
	// instrumented transport exactly as edrd -admin wires it.
	inner := transport.NewInProcNetwork()
	bus := telemetry.NewBus()
	collector := telemetry.NewCollector(telemetry.DefaultRoundLog)
	collector.Attach(bus)
	var net transport.Network = transport.NewInstrumented(inner, collector.Registry, bus)

	names := []string{"replica1", "replica2", "replica3"}
	prices := []float64{1, 6, 11}
	var replicas []*core.ReplicaServer
	for i, name := range names {
		rs, err := core.NewReplicaServer(net, name, names, core.ReplicaConfig{
			Replica:      model.NewReplica(name, prices[i]),
			Algorithm:    core.LDDM,
			Telemetry:    bus,
			SendRetries:  -1, // fail fast when we crash a member below
			RoundRetries: -1,
			RPCTimeout:   200 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer rs.Close()
		replicas = append(replicas, rs)
	}
	replicas[0].RegisterMetrics(collector.Registry)
	plane, err := admin.Serve("127.0.0.1:0", admin.Config{
		Registry: collector.Registry,
		Status:   func() any { return replicas[0].Status() },
		Rounds:   collector.Rounds,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer plane.Close()
	base := "http://" + plane.Addr()

	ctx := t.Context()
	lat := map[string]float64{"replica1": 0.0005, "replica2": 0.0005, "replica3": 0.0005}
	// Clients stay up for the whole test: LDDM rounds push μ updates to
	// the submitting clients while iterating.
	nextClient := 0
	submit := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			nextClient++
			cl, err := core.NewClient(net, fmt.Sprintf("client%d", nextClient))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { cl.Close() })
			if err := cl.Submit(ctx, "replica1", 10, lat); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Round 1: healthy.
	submit(2)
	if _, err := replicas[0].RunRound(ctx); err != nil {
		t.Fatal(err)
	}

	if body, resp := scrape(t, base, "/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d %q", resp.StatusCode, body)
	}
	body, resp := scrape(t, base, "/metrics")
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	if v := metricValue(t, body, `edr_rounds_total{algorithm="LDDM"}`); v != 1 {
		t.Fatalf("edr_rounds_total = %v after one round", v)
	}
	if v := metricValue(t, body, `edr_round_duration_seconds_count`); v != 1 {
		t.Fatalf("edr_round_duration_seconds_count = %v", v)
	}
	// The instrumented fabric saw the initiator's fan-out to both peers.
	for _, peer := range []string{"replica2", "replica3"} {
		sample := fmt.Sprintf(`edr_transport_messages_total{peer=%q,verb="round.start"}`, peer)
		if v := metricValue(t, body, sample); v < 1 {
			t.Fatalf("%s = %v, want >= 1", sample, v)
		}
	}

	// The queue-depth gauge reads the requests waiting for the next round,
	// and the runtime's profiles are mounted on the same mux.
	if v := metricValue(t, body, `edr_pending_requests`); v != 0 {
		t.Fatalf("edr_pending_requests = %v after the round drained the queue", v)
	}
	if body, resp := scrape(t, base, "/debug/pprof/"); resp.StatusCode != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d %q", resp.StatusCode, body)
	}
	if body, resp := scrape(t, base, "/debug/pprof/heap"); resp.StatusCode != http.StatusOK || !strings.HasPrefix(body, "\x1f\x8b") {
		t.Fatalf("/debug/pprof/heap = %d, %d bytes, not a gzipped profile", resp.StatusCode, len(body))
	}

	// Round 2: crash replica3 mid-fleet; with retries disabled the round
	// falls back to the last-known-good assignment and flags itself.
	inner.Crash("replica3")
	submit(2)
	body, _ = scrape(t, base, "/metrics")
	if v := metricValue(t, body, `edr_pending_requests`); v != float64(replicas[0].PendingRequests()) || v != 2 {
		t.Fatalf("edr_pending_requests = %v with %d requests queued", v, replicas[0].PendingRequests())
	}
	report, err := replicas[0].RunRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Degraded {
		t.Fatalf("round 2 did not degrade: %+v", report)
	}

	body, _ = scrape(t, base, "/metrics")
	if v := metricValue(t, body, `edr_rounds_total{algorithm="LDDM"}`); v != 2 {
		t.Fatalf("edr_rounds_total = %v after two rounds", v)
	}
	if v := metricValue(t, body, `edr_rounds_degraded_total`); v != 1 {
		t.Fatalf("edr_rounds_degraded_total = %v", v)
	}
	if v := metricValue(t, body, `edr_round_degradations_total{failed_member="replica3"}`); v != 1 {
		t.Fatalf("edr_round_degradations_total{failed_member=\"replica3\"} = %v", v)
	}

	// /status carries the degraded flag and the live assignment matrix.
	body, resp = scrape(t, base, "/status")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/status = %d", resp.StatusCode)
	}
	var st core.Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/status is not JSON: %v\n%s", err, body)
	}
	if st.Addr != "replica1" || !st.Degraded || st.RoundsInitiated != 2 {
		t.Fatalf("/status = %+v", st)
	}
	if st.LastRound == nil || len(st.LastRound.Assignment) != 2 {
		t.Fatalf("/status last round lacks the assignment matrix: %+v", st.LastRound)
	}
	for _, row := range st.LastRound.Assignment {
		if len(row) != len(st.LastRound.ReplicaAddrs) {
			t.Fatalf("assignment row width %d != %d replicas", len(row), len(st.LastRound.ReplicaAddrs))
		}
	}

	// /debug/rounds retains both rounds, trajectories included: the bus
	// had a subscriber, so the healthy LDDM round recorded per-iteration
	// residuals and energy costs.
	body, resp = scrape(t, base, "/debug/rounds")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/rounds = %d", resp.StatusCode)
	}
	var rounds []telemetry.RoundCompleted
	if err := json.Unmarshal([]byte(body), &rounds); err != nil {
		t.Fatalf("/debug/rounds is not JSON: %v\n%s", err, body)
	}
	if len(rounds) != 2 {
		t.Fatalf("/debug/rounds has %d entries, want 2", len(rounds))
	}
	healthy, degraded := rounds[0], rounds[1]
	if healthy.Degraded || !degraded.Degraded {
		t.Fatalf("round order wrong: %+v / %+v", healthy, degraded)
	}
	if len(healthy.Residuals) == 0 || len(healthy.Costs) != len(healthy.Residuals) {
		t.Fatalf("healthy round lacks trajectories: %d residuals, %d costs",
			len(healthy.Residuals), len(healthy.Costs))
	}
}
