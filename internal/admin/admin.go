// Package admin serves a live node's observability endpoints over HTTP:
//
//	/metrics       Prometheus text exposition of the node's metrics
//	/healthz       liveness+readiness: 200 when started and connected
//	/statusz       JSON snapshot: health, trace ring, flattened metrics
//	/debug/pprof/  the standard Go profiler endpoints
//
// The server is a pure observer with the same serialization contract as
// the protocol code: every sample of protocol state (building and encoding
// the registry, health probes, status snapshots) runs inside Options.Locked, so
// scrapes interleave with the event loop instead of racing it. Encoding
// happens into a buffer under the lock and the response is written outside
// it, keeping slow scrapers off the protocol's critical path.
package admin

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"jxta/internal/metrics"
)

// Health is the node's liveness view, sampled under Options.Locked.
type Health struct {
	// Started reports the node lifecycle state.
	Started bool `json:"started"`
	// Role is "rendezvous" or "edge" (current, not deployed: promotions
	// flip it at runtime).
	Role string `json:"role"`
	// Connected is true for a started rendezvous, and for an edge holding
	// a live lease. A started but disconnected edge is alive yet not ready.
	Connected bool `json:"connected"`
	// Detail optionally names the lease holder or last transition.
	Detail string `json:"detail,omitempty"`
}

// Options wires a node into the admin server.
type Options struct {
	// Registry builds the registry /metrics encodes and /statusz flattens.
	// It is called under Locked, once per request: a node builds its
	// registry from its services' counters (node.Metrics.Registry).
	Registry func() *metrics.Registry
	// Trace, when non-nil, is included in /statusz.
	Trace *metrics.Trace
	// Locked serializes sampling with the node's event loop (env.Real's
	// Locked on a live node). Nil means call directly.
	Locked func(func())
	// Health is sampled under Locked for /healthz and /statusz.
	Health func() Health
}

// Server is a running admin endpoint.
type Server struct {
	ln   net.Listener
	srv  *http.Server
	opts Options
}

// locked runs fn under the node's serialization, if any.
func (s *Server) locked(fn func()) {
	if s.opts.Locked != nil {
		s.opts.Locked(fn)
		return
	}
	fn()
}

// Serve binds addr (host:port; port 0 picks one) and serves the admin
// endpoints until Close. Handlers run on a private mux, so the process's
// default mux stays untouched.
func Serve(addr string, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("admin: %w", err)
	}
	s := &Server{ln: ln, opts: opts}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statusz", s.handleStatusz)
	// pprof handlers registered explicitly: importing net/http/pprof only
	// touches http.DefaultServeMux, which this server does not use.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound address (resolved port when addr was :0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and open connections.
func (s *Server) Close() error { return s.srv.Close() }

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var buf bytes.Buffer
	s.locked(func() { s.opts.Registry().WritePrometheus(&buf) })
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(buf.Bytes())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	var h Health
	s.locked(func() {
		if s.opts.Health != nil {
			h = s.opts.Health()
		}
	})
	if h.Started && h.Connected {
		fmt.Fprintf(w, "ok role=%s\n", h.Role)
		return
	}
	w.WriteHeader(http.StatusServiceUnavailable)
	fmt.Fprintf(w, "unhealthy started=%v connected=%v role=%s %s\n",
		h.Started, h.Connected, h.Role, h.Detail)
}

// statusz is the /statusz JSON document.
type statusz struct {
	Health  Health               `json:"health"`
	Metrics map[string]float64   `json:"metrics"`
	Trace   []metrics.TraceEvent `json:"trace,omitempty"`
}

func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	var st statusz
	s.locked(func() {
		if s.opts.Health != nil {
			st.Health = s.opts.Health()
		}
		st.Metrics = s.opts.Registry().Snapshot()
		if s.opts.Trace != nil {
			st.Trace = s.opts.Trace.Events()
		}
	})
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(st)
}
