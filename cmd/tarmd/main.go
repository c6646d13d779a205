// Command tarmd is the concurrent TML mining server: it opens a
// database directory and serves MINE / EXPLAIN MINE statements over
// HTTP to many sessions at once, all sharing one hold-table cache.
//
// Usage:
//
//	tarmd -db ./data -addr :8440
//	tarmd -db ./data -addr :8440 -pool 8 -queue 16 -timeout 30s -cache 256
//	tarmd -db ./data -slow-query 2s -journal 256 -journal-log queries.jsonl
//	curl -d 'MINE CYCLES FROM baskets THRESHOLD SUPPORT 0.1 CONFIDENCE 0.6;' \
//	     'http://localhost:8440/v1/statements?format=text'
//
// Continuous mining: POST a SUBSCRIBE MINE statement to
// /v1/subscriptions to register a standing statement that re-runs when
// the append stream closes a granule, emitting rule deltas on
// GET /v1/subscriptions/{id}/events (long-poll or SSE). -subs bounds
// the standing statements, -sub-queue each subscriber's event ring.
//
// The same port serves the observability endpoints (/metrics,
// /debug/vars, /debug/pprof) and the query introspection endpoints
// (/v1/queries, /v1/queries/{id}, /v1/cache): every statement is
// traced under its X-Request-ID and journalled. SIGINT/SIGTERM drains
// gracefully: new statements get 503, in-flight statements finish (up
// to -drain), then the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/tarm-project/tarm/internal/clihelp"
	"github.com/tarm-project/tarm/internal/obs"
	"github.com/tarm-project/tarm/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tarmd:", err)
		os.Exit(1)
	}
}

func run() error {
	var mf clihelp.MiningFlags
	fs := flag.CommandLine
	dbDir := fs.String("db", "", "database directory")
	addr := fs.String("addr", ":8440", "listen address")
	pool := fs.Int("pool", 4, "statements executing concurrently")
	queue := fs.Int("queue", 0, "statements allowed to wait for a slot (0 = 2*pool)")
	drain := fs.Duration("drain", 30*time.Second, "how long to wait for in-flight statements on shutdown")
	subs := fs.Int("subs", 16, "standing SUBSCRIBE MINE statements allowed at once")
	subQueue := fs.Int("sub-queue", 64, "per-subscription event ring capacity")
	mf.RegisterWorkers(fs)
	mf.RegisterTimeout(fs)
	mf.RegisterCache(fs)
	mf.RegisterJournal(fs)
	mf.RegisterDurability(fs)
	flag.Parse()

	if *dbDir == "" {
		return errors.New("-db is required")
	}
	sink, err := mf.JournalSink()
	if err != nil {
		return err
	}
	if sink != nil {
		defer sink.Close()
	}
	// One registry for server and storage engine, so wal_*/checkpoint_*
	// metrics land next to the request metrics on /metrics.
	reg := obs.NewRegistry()
	db, err := mf.OpenDB(*dbDir, reg)
	if err != nil {
		return err
	}
	rec := db.Recovery()
	fmt.Fprintf(os.Stderr, "tarmd: durable open (fsync %s): replayed %d wal records (%d tx, %d skipped, %d torn bytes) in %s\n",
		db.FsyncPolicy(), rec.Records, rec.AppendedTx, rec.SkippedTx, rec.TornBytes, rec.Wall.Round(time.Millisecond))

	cfg := server.Config{
		Pool:        *pool,
		Queue:       *queue,
		Timeout:     mf.Timeout,
		Workers:     mf.Workers,
		CacheBytes:  mf.CacheBytes(),
		JournalSize: mf.JournalSize,
		SlowQuery:   mf.SlowQuery,
		Registry:    reg,
		MaxSubs:     *subs,
		SubQueue:    *subQueue,
	}
	if sink != nil {
		cfg.JournalSink = sink
	}
	srv := server.New(db, cfg)

	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "tarmd: serving %s on %s (pool %d, metrics on /metrics)\n",
			*dbDir, *addr, *pool)
		errc <- httpSrv.ListenAndServe()
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "tarmd: %v, draining (up to %s)\n", s, *drain)
	}

	// Statement-level drain first (stop admitting, finish what's
	// running), then the connection-level shutdown.
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "tarmd:", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	// The drain stopped admission and the pool is empty: checkpoint so
	// appends acknowledged this run restart from segments, not replay.
	if err := db.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	fmt.Fprintln(os.Stderr, "tarmd: drained, bye")
	return nil
}
