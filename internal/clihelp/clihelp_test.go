package clihelp

import (
	"context"
	"flag"
	"io"
	"testing"
	"time"

	"github.com/tarm-project/tarm/internal/apriori"
	"github.com/tarm-project/tarm/internal/core"
	"github.com/tarm-project/tarm/internal/tdb"
)

// newFlagSet builds a fresh FlagSet the way each binary does, so the
// tests exercise exactly the per-binary registration path.
func newFlagSet(name string, mf *MiningFlags) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	mf.RegisterMining(fs)
	mf.RegisterTimeout(fs)
	mf.RegisterCache(fs)
	mf.RegisterDurability(fs)
	return fs
}

// TestFlagsIdenticalAcrossBinaries parses the same command lines
// through three independent FlagSets — one per binary — and asserts
// every resolved value matches, which is the clihelp contract:
// -backend/-workers/-timeout/-cache cannot drift between iqms, tarmine
// and tarmd.
func TestFlagsIdenticalAcrossBinaries(t *testing.T) {
	cases := [][]string{
		{}, // defaults
		{"-backend", "bitmap", "-workers", "4"},
		{"-backend", "hashtree", "-timeout", "30s"},
		{"-backend", "naive", "-workers", "2", "-timeout", "1500ms", "-cache", "64"},
		{"-cache", "0"},
		{"-wal", "-fsync", "interval", "-fsync-interval", "25ms", "-checkpoint-interval", "5m"},
	}
	for _, args := range cases {
		var got []MiningFlags
		for _, bin := range []string{"iqms", "tarmine", "tarmd"} {
			var mf MiningFlags
			if err := newFlagSet(bin, &mf).Parse(args); err != nil {
				t.Fatalf("%s %v: %v", bin, args, err)
			}
			got = append(got, mf)
		}
		for i := 1; i < len(got); i++ {
			if got[i] != got[0] {
				t.Errorf("args %v: binary %d parsed %+v, binary 0 parsed %+v", args, i, got[i], got[0])
			}
		}
	}
}

func TestDefaults(t *testing.T) {
	var mf MiningFlags
	if err := newFlagSet("x", &mf).Parse(nil); err != nil {
		t.Fatal(err)
	}
	if mf.BackendName != "auto" || mf.Workers != 0 || mf.Timeout != 0 {
		t.Errorf("defaults: %+v", mf)
	}
	if b, err := mf.Backend(); err != nil || b != apriori.BackendAuto {
		t.Errorf("Backend() = %v, %v", b, err)
	}
	if got, want := mf.CacheBytes(), core.DefaultCacheBytes; got != want {
		t.Errorf("CacheBytes() = %d, want %d", got, want)
	}
}

func TestBackendResolution(t *testing.T) {
	for name, want := range map[string]apriori.Backend{
		"auto":     apriori.BackendAuto,
		"naive":    apriori.BackendNaive,
		"hashtree": apriori.BackendHashTree,
		"bitmap":   apriori.BackendBitmap,
		"roaring":  apriori.BackendRoaring,
	} {
		mf := MiningFlags{BackendName: name}
		got, err := mf.Backend()
		if err != nil || got != want {
			t.Errorf("Backend(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	mf := MiningFlags{BackendName: "quantum"}
	if _, err := mf.Backend(); err == nil {
		t.Error("unknown backend accepted")
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
// parsing, resolution into a tdb.Durability and the validation errors
// every binary must report identically.
func TestDurabilityFlags(t *testing.T) {
	var mf MiningFlags
	if err := newFlagSet("x", &mf).Parse(nil); err != nil {
		t.Fatal(err)
	}
	if mf.WAL || mf.FsyncName != "always" || mf.FsyncInterval != 0 || mf.CheckpointInterval != 0 {
		t.Errorf("durability defaults: %+v", mf)
	}
	cfg, err := mf.Durability(nil)
	if err != nil || cfg.Fsync != tdb.FsyncAlways {
		t.Errorf("Durability() = %+v, %v; want FsyncAlways", cfg, err)
	}

	mf = MiningFlags{}
	if err := newFlagSet("x", &mf).Parse([]string{
		"-wal", "-fsync", "interval", "-fsync-interval", "25ms", "-checkpoint-interval", "5m"}); err != nil {
		t.Fatal(err)
	}
	cfg, err = mf.Durability(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !mf.WAL || cfg.Fsync != tdb.FsyncInterval || cfg.SyncInterval != 25*time.Millisecond || cfg.CheckpointInterval != 5*time.Minute {
		t.Errorf("resolved %+v from %+v", cfg, mf)
	}

	for _, bad := range []MiningFlags{
		{FsyncName: "sometimes"},
		{FsyncName: "always", FsyncInterval: -time.Second},
		{FsyncName: "always", CheckpointInterval: -time.Minute},
	} {
		if _, err := bad.Durability(nil); err == nil {
			t.Errorf("Durability(%+v) accepted", bad)
		}
	}
}

// TestOpenDB checks the flag→engine dispatch: without -wal a plain
// directory database, with it a durable one whose directory then
// refuses the plain loader.
func TestOpenDB(t *testing.T) {
	dir := t.TempDir() + "/plain"
	mf := MiningFlags{FsyncName: "always"}
	db, err := mf.OpenDB(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if db.Durable() {
		t.Error("plain OpenDB returned a durable database")
	}

	dir = t.TempDir() + "/wal"
	mf.WAL = true
	db, err = mf.OpenDB(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !db.Durable() {
		t.Fatal("OpenDB with WAL set returned a non-durable database")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tdb.Open(dir); err == nil {
		t.Error("plain Open accepted the WAL-backed directory")
	}

	mf.FsyncName = "sometimes"
	if _, err := mf.OpenDB(t.TempDir(), nil); err == nil {
		t.Error("OpenDB accepted an invalid fsync policy")
	}
}
