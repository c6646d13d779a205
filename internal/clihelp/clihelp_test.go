package clihelp

import (
	"context"
	"flag"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/tarm-project/tarm/internal/apriori"
	"github.com/tarm-project/tarm/internal/core"
	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/tdb"
)

// newFlagSet builds a fresh FlagSet the way each binary does, so the
// tests exercise exactly the per-binary registration path.
func newFlagSet(name string, mf *MiningFlags) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	mf.RegisterWorkers(fs)
	mf.RegisterTimeout(fs)
	mf.RegisterCache(fs)
	mf.RegisterDurability(fs)
	return fs
}

// TestFlagsIdenticalAcrossBinaries parses the same command lines
// through three independent FlagSets — one per binary — and asserts
// every resolved value matches, which is the clihelp contract:
// -workers/-timeout/-cache cannot drift between iqms, tarmine and
// tarmd. -wal parses everywhere and changes nothing; -wal=false, a
// negative -workers and -backend (no flag selects a counting backend)
// are errors everywhere.
func TestFlagsIdenticalAcrossBinaries(t *testing.T) {
	cases := [][]string{
		{}, // defaults
		{"-workers", "4"},
		{"-timeout", "30s"},
		{"-workers", "2", "-timeout", "1500ms", "-cache", "64"},
		{"-cache", "0"},
		{"-fsync", "interval", "-fsync-interval", "25ms", "-checkpoint-interval", "5m"},
	}
	bins := []string{"iqms", "tarmine", "tarmd"}
	for _, args := range cases {
		var got []MiningFlags
		for _, bin := range bins {
			var mf, withWAL MiningFlags
			if err := newFlagSet(bin, &mf).Parse(args); err != nil {
				t.Fatalf("%s %v: %v", bin, args, err)
			}
			for _, spelling := range []string{"-wal", "-wal=true"} {
				if err := newFlagSet(bin, &withWAL).Parse(append([]string{spelling}, args...)); err != nil {
					t.Fatalf("%s %s %v: %v", bin, spelling, args, err)
				}
				if withWAL != mf {
					t.Errorf("%s %v: %s changed the parse to %+v from %+v", bin, args, spelling, withWAL, mf)
				}
			}
			got = append(got, mf)
		}
		for i := 1; i < len(got); i++ {
			if got[i] != got[0] {
				t.Errorf("args %v: binary %d parsed %+v, binary 0 parsed %+v", args, i, got[i], got[0])
			}
		}
	}
	for _, bin := range bins {
		for _, off := range []string{"-wal=false", "-wal=0", "-wal=maybe"} {
			err := newFlagSet(bin, new(MiningFlags)).Parse([]string{off})
			if err == nil || !strings.Contains(err.Error(), "-fsync off") {
				t.Errorf("%s %s: err = %v, want a rejection pointing at -fsync off", bin, off, err)
			}
		}
		for _, c := range []struct {
			args []string
			want string
		}{
			{[]string{"-workers", "-3"}, "must be >= 0 (got -3)"},
			{[]string{"-workers", "two"}, "invalid value"},
			{[]string{"-backend", "naive"}, "flag provided but not defined: -backend"},
		} {
			err := newFlagSet(bin, new(MiningFlags)).Parse(c.args)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s %v: err = %v, want %q", bin, c.args, err, c.want)
			}
		}
	}
}

func TestDefaults(t *testing.T) {
	var mf MiningFlags
	if err := newFlagSet("x", &mf).Parse(nil); err != nil {
		t.Fatal(err)
	}
	if mf.Workers != runtime.GOMAXPROCS(0) || mf.Timeout != 0 {
		t.Errorf("defaults: %+v", mf)
	}
	if got, want := mf.CacheBytes(), core.DefaultCacheBytes; got != want {
		t.Errorf("CacheBytes() = %d, want %d", got, want)
	}
}

// TestWorkersDefault pins what -workers means: unset, one worker per
// CPU the process may use, read when the flag is registered; 1 and 0
// both count sequentially — every fan-out of a build (granule blocks,
// candidate chunks) is then a single range.
func TestWorkersDefault(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	var mf MiningFlags
	if err := newFlagSet("x", &mf).Parse(nil); err != nil {
		t.Fatal(err)
	}
	if mf.Workers != 3 {
		t.Errorf("unset -workers under GOMAXPROCS 3 = %d, want 3", mf.Workers)
	}
	cands := make([]itemset.Set, 10)
	for i := range cands {
		cands[i] = itemset.New(itemset.Item(i), itemset.Item(i+100))
	}
	fanOut := func(workers int) (blocks, chunks int) {
		return len(apriori.Blocks(365, workers)), len(apriori.PrefixRunChunks(cands, workers))
	}
	if b, c := fanOut(mf.Workers); b != 3 || c != 3 {
		t.Errorf("default workers fan out over %d granule blocks and %d candidate chunks, want 3 and 3", b, c)
	}
	for _, arg := range []string{"1", "0"} {
		var mf MiningFlags
		if err := newFlagSet("x", &mf).Parse([]string{"-workers", arg}); err != nil {
			t.Fatalf("-workers %s: %v", arg, err)
		}
		if b, c := fanOut(mf.Workers); b != 1 || c != 1 {
			t.Errorf("-workers %s fans out over %d granule blocks and %d candidate chunks, want sequential", arg, b, c)
		}
	}
}

func TestStatementContext(t *testing.T) {
	// No timeout: the parent comes back unchanged with a no-op cancel.
	var mf MiningFlags
	parent := context.Background()
	ctx, cancel := mf.StatementContext(parent)
	if ctx != parent {
		t.Error("zero timeout should return the parent context")
	}
	cancel() // must be safe
	if ctx.Err() != nil {
		t.Error("no-op cancel cancelled the parent")
	}

	// With a timeout: a deadline at roughly now+timeout.
	mf.Timeout = time.Minute
	ctx, cancel = mf.StatementContext(parent)
	defer cancel()
	dl, ok := ctx.Deadline()
	if !ok {
		t.Fatal("timeout context has no deadline")
	}
	if until := time.Until(dl); until <= 0 || until > time.Minute {
		t.Errorf("deadline %v from now, want (0, 1m]", until)
	}
}

func TestCacheBytes(t *testing.T) {
	if got := (&MiningFlags{CacheMB: 64}).CacheBytes(); got != 64<<20 {
		t.Errorf("CacheBytes(64MB) = %d", got)
	}
	// -cache 0 is documented as "disable caching". Both consumers must
	// read the converted value that way: NewHoldCache, and the server's
	// Config, for which 0 means "unset, use the default".
	for _, mb := range []int{0, -1} {
		got := (&MiningFlags{CacheMB: mb}).CacheBytes()
		if got >= 0 {
			t.Errorf("CacheBytes(%d MB) = %d, want a negative budget", mb, got)
		}
		if core.NewHoldCache(got) != nil {
			t.Errorf("-cache %d: NewHoldCache(%d) built a cache", mb, got)
		}
	}
}

// TestDurabilityFlags covers the -wal/-fsync flag family: defaults,
// parsing, resolution into a tdb.Durability, and the bad values every
// binary must refuse at parse time, as it refuses -workers -3.
func TestDurabilityFlags(t *testing.T) {
	var mf MiningFlags
	if err := newFlagSet("x", &mf).Parse(nil); err != nil {
		t.Fatal(err)
	}
	if mf.Fsync != tdb.FsyncAlways || mf.FsyncInterval != 0 || mf.CheckpointInterval != 0 {
		t.Errorf("durability defaults: %+v", mf)
	}
	if cfg := mf.Durability(nil); cfg.Fsync != tdb.FsyncAlways {
		t.Errorf("Durability() = %+v; want FsyncAlways", cfg)
	}

	mf = MiningFlags{}
	if err := newFlagSet("x", &mf).Parse([]string{
		"-wal", "-fsync", "interval", "-fsync-interval", "25ms", "-checkpoint-interval", "5m"}); err != nil {
		t.Fatal(err)
	}
	if cfg := mf.Durability(nil); cfg.Fsync != tdb.FsyncInterval || cfg.SyncInterval != 25*time.Millisecond || cfg.CheckpointInterval != 5*time.Minute {
		t.Errorf("resolved %+v from %+v", cfg, mf)
	}

	for _, bad := range [][]string{
		{"-fsync", "sometimes"},
		{"-fsync-interval", "-1s"},
		{"-fsync-interval", "soon"},
		{"-checkpoint-interval", "-1m"},
	} {
		var mf MiningFlags
		if err := newFlagSet("x", &mf).Parse(bad); err == nil {
			t.Errorf("%v parsed to %+v", bad, mf)
		}
	}
}

// TestOpenDB checks that -wal selects nothing: with or without it the
// directory opens under the same engine, closes to a checkpoint and
// opens again either way round. An invalid -fsync fails the parse,
// before anything is opened.
func TestOpenDB(t *testing.T) {
	dir := t.TempDir() + "/db"
	for i, args := range [][]string{{"-fsync", "off"}, {"-wal", "-fsync", "off"}, {"-fsync", "off"}} {
		var mf MiningFlags
		if err := newFlagSet("x", &mf).Parse(args); err != nil {
			t.Fatal(err)
		}
		db, err := mf.OpenDB(dir, nil)
		if err != nil {
			t.Fatalf("open %d %v: %v", i, args, err)
		}
		if !db.Durable() || db.FsyncPolicy() != tdb.FsyncOff {
			t.Errorf("open %d %v: Durable() = %v, policy %s; want the engine under fsync off", i, args, db.Durable(), db.FsyncPolicy())
		}
		name := fmt.Sprintf("t%d", i)
		if _, err := db.CreateTxTable(name); err != nil {
			t.Fatal(err)
		}
		if got := len(db.Names()); got != i+1 {
			t.Errorf("open %d %v sees %d tables, want %d", i, args, got, i+1)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}

	var mf MiningFlags
	if err := newFlagSet("x", &mf).Parse([]string{"-fsync", "sometimes"}); err == nil {
		t.Error("an invalid fsync policy parsed")
	}
}
