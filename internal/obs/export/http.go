package export

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"

	"repro/internal/obs"
)

// Server exposes a live run over HTTP — the fimmine -metrics-addr
// endpoint. Routes:
//
//	/              index with links
//	/report        the ReportBuilder's current snapshot as JSON
//	/trace         the span timeline so far, as Chrome trace-event JSON
//	/debug/vars    expvar (memstats, cmdline)
//	/debug/pprof/  net/http/pprof profiles
//
// It binds its own listener and mux (never the defaults), so ":0"
// works for tests and multiple servers can coexist in one process.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts an exposition server for b on addr (host:port; ":0"
// picks a free port — read it back with Addr). tr, when non-nil, backs
// a live /trace snapshot: each GET renders the spans recorded so far,
// so a long mine can be inspected in Perfetto mid-run. It returns once
// the listener is bound; serving continues in a background goroutine
// until Close.
func Serve(addr string, b *ReportBuilder, tr *obs.TraceRecorder) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "<html><body><h1>fim run</h1><ul>"+
			"<li><a href=\"/report\">/report</a> — run report snapshot</li>"+
			"<li><a href=\"/trace\">/trace</a> — span timeline (Chrome trace-event JSON)</li>"+
			"<li><a href=\"/debug/vars\">/debug/vars</a> — expvar</li>"+
			"<li><a href=\"/debug/pprof/\">/debug/pprof/</a> — profiles</li>"+
			"</ul></body></html>")
	})
	mux.HandleFunc("/report", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := WriteReport(w, b.Snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		if tr == nil {
			http.Error(w, "no trace recorder attached (run fimmine with -trace)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := WriteTrace(w, BuildTrace(tr)); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.Handle("/debug/vars", expvar.Handler())
	HandlePprof(mux)
	s := &Server{ln: ln, srv: &http.Server{Handler: mux}}
	go s.srv.Serve(ln)
	return s, nil
}

// HandlePprof registers the standard library's on-demand profiling
// handlers under /debug/pprof/ on mux — fimmine -metrics-addr and the
// fimserve daemon both serve them. A labeled run's samples carry its
// fim_* labels (internal/obs/prof), so a CPU profile taken here can be
// sliced by run and phase with `go tool pprof -tagfocus`.
func HandlePprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the listener down.
func (s *Server) Close() error { return s.srv.Close() }
