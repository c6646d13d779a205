// Package clihelp holds the flag and metrics setup shared by the three
// binaries (iqms, tarmine, tarmd), so -workers, -timeout and -cache
// spell, default and behave identically everywhere. Each binary
// registers the subset it supports on its own FlagSet; validation and
// resolution (the cache sizing, the durability config, the
// per-statement context) live here so the binaries cannot drift apart.
// No flag selects a counting backend: each build picks its own.
package clihelp

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"time"

	"github.com/tarm-project/tarm/internal/core"
	"github.com/tarm-project/tarm/internal/obs"
	"github.com/tarm-project/tarm/internal/tdb"
)

// Flag usage strings, shared verbatim by every binary that registers
// the flag.
const (
	workersUsage    = "parallel counting workers: one per CPU by default (GOMAXPROCS); 0 or 1 counts sequentially"
	timeoutUsage    = "abort any single statement after this long, e.g. 30s (0 = no limit)"
	cacheUsage      = "hold-table cache budget in MB (0 = disable caching)"
	journalUsage    = "query-journal ring size in statements (0 = default 128, -1 = disable)"
	slowQueryUsage  = "log a structured warning for statements slower than this, e.g. 2s (0 = off)"
	journalLogUsage = "append every completed statement as a JSON line to this file"
	walUsage        = "accepted and ignored: the WAL-backed engine is the only storage engine (the non-durable setting is -fsync off)"
	fsyncUsage      = "WAL fsync policy: always (group commit per ack; the default), interval or off"
	fsyncIntUsage   = "background fsync cadence under -fsync interval, e.g. 50ms"
	checkpointUsage = "checkpoint cadence, e.g. 5m (0 = only on flush/exit); implies bounded recovery time"
)

// MiningFlags is the cross-binary flag bundle. Zero value + Register*
// + fs.Parse yields the shared defaults.
type MiningFlags struct {
	// Workers is the -workers value: runtime.GOMAXPROCS(0) when unset.
	Workers int
	// Timeout is the -timeout value (per statement).
	Timeout time.Duration
	// CacheMB is the -cache value in megabytes.
	CacheMB int
	// JournalSize is the -journal value (ring capacity; -1 disables).
	JournalSize int
	// SlowQuery is the -slow-query value (0 = off).
	SlowQuery time.Duration
	// JournalLog is the -journal-log value (JSONL sink path).
	JournalLog string
	// Fsync is the -fsync policy.
	Fsync tdb.FsyncPolicy
	// FsyncInterval is the -fsync-interval value.
	FsyncInterval time.Duration
	// CheckpointInterval is the -checkpoint-interval value.
	CheckpointInterval time.Duration
}

// RegisterWorkers adds -workers, the parallelism of the counting pass,
// which every binary supports. It defaults to the CPUs the process may
// use: a cold build's granule blocks and candidate chunks are
// independent, and its counts are identical at any worker count, so an
// unset flag should not leave cores idle. A negative count fails the
// parse.
func (f *MiningFlags) RegisterWorkers(fs *flag.FlagSet) {
	f.Workers = runtime.GOMAXPROCS(0)
	fs.Func("workers", workersUsage, func(v string) error {
		n, err := strconv.Atoi(v)
		if err != nil {
			return err
		}
		if n < 0 {
			return fmt.Errorf("must be >= 0 (got %d)", n)
		}
		f.Workers = n
		return nil
	})
}

// RegisterTimeout adds -timeout, the per-statement deadline.
func (f *MiningFlags) RegisterTimeout(fs *flag.FlagSet) {
	fs.DurationVar(&f.Timeout, "timeout", 0, timeoutUsage)
}

// RegisterCache adds -cache, the hold-table cache budget, defaulting
// to core.DefaultCacheBytes.
func (f *MiningFlags) RegisterCache(fs *flag.FlagSet) {
	fs.IntVar(&f.CacheMB, "cache", int(core.DefaultCacheBytes>>20), cacheUsage)
}

// RegisterJournal adds -journal, -slow-query and -journal-log, the
// query-journal knobs of the serving front end.
func (f *MiningFlags) RegisterJournal(fs *flag.FlagSet) {
	fs.IntVar(&f.JournalSize, "journal", 0, journalUsage)
	fs.DurationVar(&f.SlowQuery, "slow-query", 0, slowQueryUsage)
	fs.StringVar(&f.JournalLog, "journal-log", "", journalLogUsage)
}

// RegisterDurability adds -wal, -fsync, -fsync-interval and
// -checkpoint-interval, the storage-engine knobs of every binary that
// opens a database directory.
func (f *MiningFlags) RegisterDurability(fs *flag.FlagSet) {
	// -wal used to select the engine; scripts still pass it, so it
	// parses, but it no longer holds a value anyone reads. -wal=false
	// asked for a storage path that is gone: say so rather than open the
	// engine the caller tried to decline.
	fs.BoolFunc("wal", walUsage, func(v string) error {
		if on, err := strconv.ParseBool(v); err != nil || !on {
			return errors.New("the WAL-backed engine cannot be switched off; use -fsync off for non-durable appends")
		}
		return nil
	})
	f.Fsync = tdb.FsyncAlways
	fs.Func("fsync", fsyncUsage, func(v string) error {
		pol, err := tdb.ParseFsyncPolicy(v)
		if err != nil {
			return err
		}
		f.Fsync = pol
		return nil
	})
	fs.Func("fsync-interval", fsyncIntUsage, nonNegativeDuration(&f.FsyncInterval))
	fs.Func("checkpoint-interval", checkpointUsage, nonNegativeDuration(&f.CheckpointInterval))
}

// nonNegativeDuration parses a duration flag into dst, failing the
// parse on a negative one.
func nonNegativeDuration(dst *time.Duration) func(string) error {
	return func(v string) error {
		d, err := time.ParseDuration(v)
		if err != nil {
			return err
		}
		if d < 0 {
			return fmt.Errorf("must be >= 0 (got %v)", d)
		}
		*dst = d
		return nil
	}
}

// Durability is the tdb config the durability flags name; reg may be
// nil (no metrics).
func (f *MiningFlags) Durability(reg *obs.Registry) tdb.Durability {
	return tdb.Durability{
		Fsync:              f.Fsync,
		SyncInterval:       f.FsyncInterval,
		CheckpointInterval: f.CheckpointInterval,
		Registry:           reg,
	}
}

// OpenDB opens dir under the storage engine with the durability the
// flags name (metrics on reg when non-nil).
func (f *MiningFlags) OpenDB(dir string, reg *obs.Registry) (*tdb.DB, error) {
	return tdb.OpenDurable(dir, f.Durability(reg))
}

// JournalSink opens the -journal-log sink for appending, or returns
// (nil, nil) when the flag is unset. The caller owns the returned file.
func (f *MiningFlags) JournalSink() (*os.File, error) {
	if f.JournalLog == "" {
		return nil, nil
	}
	return os.OpenFile(f.JournalLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// CacheBytes converts -cache to a byte budget for core.NewHoldCache or
// server.Config.CacheBytes. -cache 0 (or less) disables caching and
// comes out as -1, not 0: the server's Config reads 0 as "unset" and
// would fall back to the 256 MB default.
func (f *MiningFlags) CacheBytes() int64 {
	if f.CacheMB <= 0 {
		return -1
	}
	return int64(f.CacheMB) << 20
}

// StatementContext applies -timeout to parent: with a timeout it
// returns a deadline context, without one it returns parent and a
// no-op cancel, so callers can defer cancel() unconditionally.
func (f *MiningFlags) StatementContext(parent context.Context) (context.Context, context.CancelFunc) {
	if f.Timeout > 0 {
		return context.WithTimeout(parent, f.Timeout)
	}
	return parent, func() {}
}

// ServeMetrics binds addr and serves the observability DebugMux
// (/metrics, /debug/vars, /debug/pprof) for reg in the background,
// announcing the resolved address on stderr under the binary's name.
// Binding synchronously surfaces a bad address as a startup error
// rather than a lost log line.
func ServeMetrics(binary, addr string, reg *obs.Registry) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s: metrics on http://%s/metrics (pprof under /debug/pprof/)\n", binary, ln.Addr())
	go func() {
		if err := http.Serve(ln, obs.DebugMux(reg)); err != nil {
			fmt.Fprintf(os.Stderr, "%s: metrics server: %v\n", binary, err)
		}
	}()
	return nil
}
