package admin

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"edr/internal/telemetry"
)

func TestAdminEndpoints(t *testing.T) {
	c := telemetry.NewCollector(0)
	bus := telemetry.NewBus()
	defer c.Attach(bus)()
	bus.Publish(telemetry.RoundCompleted{Round: 1, Algorithm: "LDDM", Residuals: []float64{0.5, 0.1}, Costs: []float64{9, 8}})

	srv, err := Serve("127.0.0.1:0", Config{
		Registry: c.Registry,
		Status:   func() any { return map[string]any{"ring": []string{"r1", "r2"}} },
		Rounds:   c.Rounds,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	// /metrics is the registry's exposition, byte for byte.
	var exposition strings.Builder
	if err := c.Registry.WritePrometheus(&exposition); err != nil {
		t.Fatal(err)
	}
	code, body := get("/metrics")
	if code != 200 || body != exposition.String() {
		t.Fatalf("/metrics = %d\n%s\nwant\n%s", code, body, exposition.String())
	}
	if !strings.Contains(body, `edr_rounds_total{algorithm="LDDM"} 1`) {
		t.Fatalf("/metrics missing round counter:\n%s", body)
	}
	if code, body := get("/status"); code != 200 || !strings.Contains(body, `"ring"`) {
		t.Fatalf("/status = %d %q", code, body)
	}
	if code, body := get("/debug/rounds"); code != 200 || !strings.Contains(body, `"residuals"`) {
		t.Fatalf("/debug/rounds = %d %q", code, body)
	}
}
