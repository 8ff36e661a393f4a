// Package admin serves the telemetry admin plane over HTTP. It is apart
// from package telemetry so that the packages recording telemetry
// (transport among them) link no HTTP or JSON code.
package admin

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"edr/internal/telemetry"
)

// Config wires the admin plane's endpoints to the runtime.
type Config struct {
	// Registry backs /metrics. Required.
	Registry *telemetry.Registry
	// Status, when non-nil, backs /status with any JSON-marshalable
	// document (edrd serves core.ReplicaServer.Status()).
	Status func() any
	// Rounds, when non-nil, backs /debug/rounds (typically
	// Collector.Rounds).
	Rounds func() []telemetry.RoundCompleted
	// Health, when non-nil, lets /healthz report failure; nil means
	// always healthy.
	Health func() error
}

// NewHandler builds the admin plane's HTTP mux:
//
//	/metrics       Prometheus text exposition
//	/healthz       200 "ok" (503 + error text when Health fails)
//	/status        JSON runtime status document
//	/debug/rounds  JSON array of recent rounds with convergence and
//	               energy-cost trajectories
//	/debug/pprof/  the Go runtime's profiles, served from runtime/pprof
//	               on this mux alone (see serveProfile)
func NewHandler(cfg Config) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = cfg.Registry.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Health != nil {
			if err := cfg.Health(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Status == nil {
			http.Error(w, "no status provider", http.StatusNotFound)
			return
		}
		writeJSON(w, cfg.Status())
	})
	mux.HandleFunc("/debug/rounds", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Rounds == nil {
			http.Error(w, "no round log", http.StatusNotFound)
			return
		}
		writeJSON(w, cfg.Rounds())
	})
	mux.HandleFunc("/debug/pprof/", serveProfile)
	return mux
}

// serveProfile answers /debug/pprof/<name> in the paths and formats `go
// tool pprof` fetches: profile is a CPU profile over ?seconds= (default
// 30), any other name one of runtime/pprof's profiles (heap, allocs,
// goroutine, ...), with ?debug=N for its text form, and the bare prefix
// lists the names. It uses runtime/pprof rather than net/http/pprof, whose
// import registers on http.DefaultServeMux and links html/template into
// every binary that links this package.
func serveProfile(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/debug/pprof/")
	switch name {
	case "":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "profile")
		for _, p := range pprof.Profiles() {
			fmt.Fprintln(w, p.Name())
		}
	case "profile":
		sec, err := strconv.Atoi(r.FormValue("seconds"))
		if err != nil || sec <= 0 {
			sec = 30
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		if err := pprof.StartCPUProfile(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		select {
		case <-time.After(time.Duration(sec) * time.Second):
		case <-r.Context().Done():
		}
		pprof.StopCPUProfile()
	default:
		p := pprof.Lookup(name)
		if p == nil {
			http.NotFound(w, r)
			return
		}
		debug, _ := strconv.Atoi(r.FormValue("debug"))
		w.Header().Set("Content-Type", "application/octet-stream")
		if debug > 0 {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		}
		_ = p.WriteTo(w, debug)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Server is a running admin plane listener.
type Server struct {
	srv *http.Server
	ln  net.Listener
}

// Serve binds addr (host:port; port 0 picks a free port) and serves the
// admin plane on it until Close.
func Serve(addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("admin: listen %s: %w", addr, err)
	}
	srv := &http.Server{
		Handler:           NewHandler(cfg),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() { _ = srv.Serve(ln) }()
	return &Server{srv: srv, ln: ln}, nil
}

// Addr returns the bound address (useful with port 0).
func (a *Server) Addr() string { return a.ln.Addr().String() }

// Close stops the listener and in-flight handlers.
func (a *Server) Close() error { return a.srv.Close() }
