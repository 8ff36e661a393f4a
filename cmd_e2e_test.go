package edr_test

// End-to-end test of the shipped binaries: build edrd/edrctl into a temp
// directory, boot a three-replica fleet on loopback, and drive a real
// client through submission, allocation, and download. Skipped in -short
// mode (it compiles binaries and sleeps through batch windows).

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// freePorts reserves n distinct loopback ports.
func freePorts(t *testing.T, n int) []int {
	t.Helper()
	ports := make([]int, n)
	listeners := make([]net.Listener, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		ports[i] = l.Addr().(*net.TCPAddr).Port
	}
	for _, l := range listeners {
		l.Close()
	}
	return ports
}

func TestBinariesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("binary e2e skipped in -short mode")
	}
	bin := t.TempDir()
	for _, tool := range []string{"edrd", "edrctl"} {
		out, err := exec.Command("go", "build", "-o", filepath.Join(bin, tool), "./cmd/"+tool).CombinedOutput()
		if err != nil {
			t.Fatalf("build %s: %v\n%s", tool, err, out)
		}
	}

	ports := freePorts(t, 4)
	addrs := make([]string, 3)
	for i, p := range ports[:3] {
		addrs[i] = fmt.Sprintf("127.0.0.1:%d", p)
	}
	adminAddr := fmt.Sprintf("127.0.0.1:%d", ports[3])
	prices := []string{"1", "8", "3"}
	var daemons []*exec.Cmd
	for i := range addrs {
		peers := make([]string, 0, 2)
		for j := range addrs {
			if j != i {
				peers = append(peers, addrs[j])
			}
		}
		args := []string{
			"-listen", addrs[i],
			"-peers", strings.Join(peers, ","),
			"-price", prices[i],
			"-batch-window", "300ms",
		}
		if i == 0 {
			// The first replica also exposes the admin plane so the test
			// can exercise edrctl status against a real daemon.
			args = append(args, "-admin", adminAddr)
		}
		cmd := exec.Command(filepath.Join(bin, "edrd"), args...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		daemons = append(daemons, cmd)
	}
	t.Cleanup(func() {
		for _, d := range daemons {
			_ = d.Process.Kill()
			_ = d.Wait()
		}
	})

	// Wait until every daemon accepts connections.
	deadline := time.Now().Add(10 * time.Second)
	for _, addr := range addrs {
		for {
			conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
			if err == nil {
				conn.Close()
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("daemon %s never came up", addr)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	out, err := exec.Command(filepath.Join(bin, "edrctl"),
		"-replicas", strings.Join(addrs, ","),
		"-demand", "30",
		"-download",
		"-timeout", "30s",
	).CombinedOutput()
	if err != nil {
		t.Fatalf("edrctl: %v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{"allocation (round", "LDDM", "downloaded"} {
		if !strings.Contains(text, want) {
			t.Fatalf("edrctl output missing %q:\n%s", want, text)
		}
	}

	// The contact replica ran the round, so its admin plane must show it.
	out, err = exec.Command(filepath.Join(bin, "edrctl"),
		"status", "-admin", adminAddr, "-timeout", "10s",
	).CombinedOutput()
	if err != nil {
		t.Fatalf("edrctl status: %v\n%s", err, out)
	}
	text = string(out)
	for _, want := range []string{
		"replica   " + addrs[0],
		"ring",
		"tcp pool  ",
		"last round 1: LDDM",
		"assignment (MB, 1 clients x 3 replicas):",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("edrctl status output missing %q:\n%s", want, text)
		}
	}

	// A round's iterations reuse the fleet's pooled connections, and the
	// admin plane says so.
	resp, err := http.Get("http://" + adminAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metrics, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE edr_transport_tcp_dials_total counter",
		"edr_transport_tcp_redials_total ",
		"edr_transport_tcp_idle_conns ",
		"edr_transport_tcp_served_conns ",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}
	if strings.Contains(string(metrics), "edr_transport_tcp_reuses_total 0\n") {
		t.Fatalf("no connection was reused across a whole round:\n%s", metrics)
	}
}
