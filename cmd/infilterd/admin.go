package main

import (
	"context"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"infilter/internal/telemetry"
)

// adminServer is the daemon's operator-facing HTTP endpoint:
//
//	/metrics      Prometheus text exposition of the telemetry registry
//	/healthz      200 "ok" while serving, 503 "draining" during shutdown
//	/debug/pprof  the standard Go profiling handlers
//
// It participates in the SIGTERM sequence from both ends: setDraining is
// called the moment the signal arrives (so load balancers and probes see
// the drain immediately), and Close runs after the pipeline has flushed,
// keeping /metrics scrapable while queued flows drain.
type adminServer struct {
	srv      *http.Server
	addr     string
	draining atomic.Bool
	done     chan struct{}
}

// adminShutdownTimeout bounds how long Close waits for in-flight scrapes.
const adminShutdownTimeout = 5 * time.Second

// newAdminServer binds addr (port 0 picks a free port) and starts
// serving the admin endpoints.
func newAdminServer(addr string, reg *telemetry.Registry) (*adminServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	a := &adminServer{addr: ln.Addr().String(), done: make(chan struct{})}

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if a.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte("draining\n"))
			return
		}
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	a.srv = &http.Server{Handler: mux}
	go func() {
		defer close(a.done)
		a.srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return a, nil
}

// Addr returns the bound listen address.
func (a *adminServer) Addr() string { return a.addr }

// setDraining flips /healthz to 503 "draining". It does not stop the
// server: metrics stay scrapable until Close.
func (a *adminServer) setDraining() { a.draining.Store(true) }

// Close gracefully shuts the server down: the listener closes, in-flight
// requests get adminShutdownTimeout to finish, idle keep-alive
// connections are closed, and the serve goroutine is joined.
func (a *adminServer) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), adminShutdownTimeout)
	defer cancel()
	err := a.srv.Shutdown(ctx)
	<-a.done
	return err
}
