// Command fimserve is the multi-tenant mining service daemon: an HTTP
// server around the library's miners with admission control,
// backpressure and graceful degradation (see internal/serve).
//
//	fimserve -addr :8080 -workers 4 -queue 16 -global-memory-mb 2048
//
// API:
//
//	POST /mine?dataset=chess&support=0.6&algo=eclat&rep=diffset
//	POST /mine?support=0.1            (FIMI text in the request body)
//	GET  /runs            live and recent runs with stop causes
//	GET  /runs/{id}       one run's record
//	GET  /runs/{id}/events   the run's event stream as SSE
//	GET  /healthz /readyz
//	GET  /stats           admission, cache and pool counters
//	GET  /debug/pprof/    the standard library's on-demand profiles
//
// Every mining run executes under pprof labels (fim_run_id, fim_tenant,
// fim_algo, fim_rep, fim_phase), so a CPU profile taken from
// /debug/pprof/profile attributes samples to runs and phases:
//
//	go tool pprof -tagfocus fim_run_id=7 'http://localhost:8080/debug/pprof/profile?seconds=30'
//
// Requests carry a tenant in the X-Tenant header ("anon" if absent).
// On SIGTERM/SIGINT the daemon stops admitting, drains in-flight runs
// (budget-stopping stragglers after the grace period), optionally
// writes a shutdown report (-report), and exits 0.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		workers     = flag.Int("workers", 2, "concurrent mining runs")
		queue       = flag.Int("queue", 8, "admission queue depth (full queue sheds with 429)")
		perTenant   = flag.Int("per-tenant", 4, "per-tenant in-flight request quota")
		mineWorkers = flag.Int("mine-workers", 2, "worker team size per run")
		runMemMB    = flag.Int64("max-run-memory-mb", 256, "per-run live payload cap (MiB)")
		globalMemMB = flag.Int64("global-memory-mb", 1024, "shared live payload cap across all runs (MiB)")
		runTimeout  = flag.Duration("max-run-duration", 60*time.Second, "per-run wall clock cap")
		cacheMB     = flag.Int64("cache-mb", 64, "result cache budget (MiB, -1 disables)")
		drainGrace  = flag.Duration("drain-grace", 10*time.Second, "how long drain lets runs finish before stopping them")
		report      = flag.String("report", "", "write a JSON shutdown report (stats + recent runs) to this file on exit")
	)
	flag.Parse()

	cacheBytes := *cacheMB << 20
	if *cacheMB < 0 {
		cacheBytes = -1
	}
	srv := serve.New(serve.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		PerTenant:      *perTenant,
		MineWorkers:    *mineWorkers,
		MaxRunMemory:   *runMemMB << 20,
		GlobalMemory:   *globalMemMB << 20,
		MaxRunDuration: *runTimeout,
		CacheBytes:     cacheBytes,
		DrainGrace:     *drainGrace,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("fimserve: %v", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	log.Printf("fimserve: listening on %s (%d workers, queue %d, pool %d MiB)",
		ln.Addr(), *workers, *queue, *globalMemMB)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case s := <-sig:
		log.Printf("fimserve: %v: draining (grace %s)", s, *drainGrace)
	case err := <-errCh:
		log.Fatalf("fimserve: serve: %v", err)
	}

	// Drain: stop admitting, let in-flight runs finish, budget-stop
	// stragglers after the grace period. The hard deadline below only
	// bounds a run that ignores its stop signal — it should never fire.
	ctx, cancel := context.WithTimeout(context.Background(), *drainGrace*2+5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Printf("fimserve: drain incomplete: %v", err)
	}
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("fimserve: shutdown: %v", err)
	}

	if *report != "" {
		if err := writeReport(*report, srv); err != nil {
			log.Printf("fimserve: report: %v", err)
			os.Exit(1)
		}
		log.Printf("fimserve: report written to %s", *report)
	}
	log.Printf("fimserve: drained, exiting")
}

// writeReport dumps the server's terminal state: aggregate stats plus
// the recent-run records, so a drained daemon leaves an audit trail of
// what it served and why each run ended.
func writeReport(path string, srv *serve.Server) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(srv.ShutdownReport()); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", path, err)
	}
	return nil
}
