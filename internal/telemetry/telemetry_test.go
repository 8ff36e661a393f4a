package telemetry

import (
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestBusPublishSubscribe(t *testing.T) {
	bus := NewBus()
	var got []Event
	cancel := bus.Subscribe(func(e Event) { got = append(got, e) })
	bus.Publish(MemberSuspected{Member: "r2", Misses: 1})
	bus.Publish(MemberHealed{Member: "r2", Misses: 1})
	if len(got) != 2 {
		t.Fatalf("delivered %d events, want 2", len(got))
	}
	if s, ok := got[0].(MemberSuspected); !ok || s.Member != "r2" {
		t.Fatalf("event 0 = %#v", got[0])
	}
	cancel()
	bus.Publish(MemberHealed{Member: "r2"})
	if len(got) != 2 {
		t.Fatal("event delivered after cancel")
	}
}

func TestBusNilSafe(t *testing.T) {
	var bus *Bus
	bus.Publish(RoundCompleted{}) // must not panic
	if bus.Active() {
		t.Fatal("nil bus reports active")
	}
	bus.Subscribe(func(Event) {})() // cancel on nil bus is a no-op
}

func TestBusActive(t *testing.T) {
	bus := NewBus()
	if bus.Active() {
		t.Fatal("empty bus reports active")
	}
	cancel := bus.Subscribe(func(Event) {})
	if !bus.Active() {
		t.Fatal("subscribed bus reports inactive")
	}
	cancel()
	if bus.Active() {
		t.Fatal("cancelled bus reports active")
	}
}

func TestBusConcurrentPublish(t *testing.T) {
	bus := NewBus()
	var n atomic.Int64
	defer bus.Subscribe(func(Event) { n.Add(1) })()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				bus.Publish(RPCRetried{Peer: "p", Verb: "v", Attempt: 1})
			}
		}()
	}
	wg.Wait()
	if n.Load() != 4000 {
		t.Fatalf("delivered %d, want 4000", n.Load())
	}
}

// promLine matches every legal non-comment sample line of the text
// exposition format (loosely — enough to catch malformed output).
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9.e+-]+|\+Inf|-Inf|NaN)$`)

// checkPrometheusText asserts text is structurally valid exposition
// format: every line is a comment or a sample, and every sample's family
// has HELP and TYPE comments.
func checkPrometheusText(t *testing.T, text string) {
	t.Helper()
	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			typed[parts[2]] = true
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("malformed exposition line: %q", line)
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if !typed[name] && !typed[base] {
			t.Fatalf("sample %q has no HELP/TYPE header", name)
		}
	}
}

func TestRegistryPrometheusRender(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("edr_test_total", "A test counter.", Labels{"peer": `a"b\c`}).Inc(3)
	reg.Counter("edr_test_total", "A test counter.", Labels{"peer": "plain"}).Inc(1)
	reg.Gauge("edr_test_gauge", "A test gauge.", nil, func() float64 { return 2.5 })
	reg.CounterFunc("edr_test_read_total", "A counter kept elsewhere.", nil, func() float64 { return 7 })
	reg.Histogram("edr_test_seconds", "A test histogram.", nil, []float64{0.1, 1}).Observe(0.5)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	checkPrometheusText(t, text)
	for _, want := range []string{
		`edr_test_total{peer="a\"b\\c"} 3`,
		`edr_test_total{peer="plain"} 1`,
		"edr_test_gauge 2.5",
		`edr_test_seconds_bucket{le="1"} 1`,
		`edr_test_seconds_bucket{le="+Inf"} 1`,
		"edr_test_seconds_sum 0.5",
		"edr_test_seconds_count 1",
		"# TYPE edr_test_total counter",
		"# TYPE edr_test_read_total counter",
		"edr_test_read_total 7",
		"# TYPE edr_test_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("edr_x_total", "x", Labels{"p": "1"})
	b := reg.Counter("edr_x_total", "x", Labels{"p": "1"})
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	c := reg.Counter("edr_x_total", "x", Labels{"p": "2"})
	if a == c {
		t.Fatal("distinct labels share a counter")
	}
}

func TestRegistryTypeClashPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("edr_clash", "x", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	reg.Gauge("edr_clash", "x", nil, func() float64 { return 0 })
}

func TestCollectorRoundAccounting(t *testing.T) {
	c := NewCollector(2)
	for round := 1; round <= 3; round++ {
		c.Handle(RoundCompleted{
			Round:     round,
			Algorithm: "LDDM",
			Duration:  10 * time.Millisecond,
			Objective: float64(round),
			Degraded:  round == 3,
			Restarts:  1,
		})
	}
	c.Handle(MemberSuspected{Member: "r2", Misses: 1})
	c.Handle(MemberDeclared{Member: "r2", By: "r1"})
	c.Handle(MemberHealed{Member: "r3", Misses: 2})
	c.Handle(RPCRetried{Peer: "r2", Verb: "replica.localsolve", Attempt: 1})
	c.Handle(MessageDropped{Peer: "r2", Verb: "replica.assign", Err: "timeout"})
	c.Handle(RoundFailed{Err: "boom"})

	rounds := c.Rounds()
	if len(rounds) != 2 {
		t.Fatalf("round log holds %d, want cap 2", len(rounds))
	}
	if rounds[0].Round != 2 || rounds[1].Round != 3 {
		t.Fatalf("round log kept %d,%d; want 2,3", rounds[0].Round, rounds[1].Round)
	}

	var b strings.Builder
	if err := c.Registry.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	checkPrometheusText(t, text)
	for _, want := range []string{
		`edr_rounds_total{algorithm="LDDM"} 3`,
		"edr_rounds_degraded_total 1",
		"edr_rounds_failed_total 1",
		"edr_round_restarts_total 3",
		"edr_round_objective 3",
		`edr_ring_suspected_total{member="r2"} 1`,
		`edr_ring_declared_dead_total{member="r2"} 1`,
		`edr_ring_healed_total{member="r3"} 1`,
		`edr_rpc_retries_total{peer="r2",verb="replica.localsolve"} 1`,
		`edr_messages_dropped_total{peer="r2",verb="replica.assign"} 1`,
		"edr_round_duration_seconds_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}
