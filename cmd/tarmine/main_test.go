package main

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/tarm-project/tarm/internal/clihelp"
	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/obs"
	"github.com/tarm-project/tarm/internal/tdb"
)

func fixtureDir(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "db")
	db, err := tdb.OpenDurable(dir, tdb.Durability{Fsync: tdb.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	baskets, err := db.CreateTxTable("baskets")
	if err != nil {
		t.Fatal(err)
	}
	bread := db.Dict().Intern("bread")
	milk := db.Dict().Intern("milk")
	at := time.Date(2024, 1, 1, 9, 0, 0, 0, time.UTC)
	for d := 0; d < 14; d++ {
		for i := 0; i < 6; i++ {
			baskets.Append(at.AddDate(0, 0, d), itemset.New(bread, milk))
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestExecStatement(t *testing.T) {
	dir := fixtureDir(t)
	var out strings.Builder
	if err := execStatement(context.Background(), &clihelp.MiningFlags{Workers: 2, Fsync: tdb.FsyncOff}, dir, `MINE RULES FROM baskets THRESHOLD SUPPORT 0.5 CONFIDENCE 0.5`, &out, nil, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "{bread}") {
		t.Errorf("output: %q", out.String())
	}

	out.Reset()
	if err := execStatement(context.Background(), &clihelp.MiningFlags{Fsync: tdb.FsyncOff}, dir, `SELECT COUNT(*) AS n FROM baskets`, &out, nil, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "168") { // 14 days × 6 tx × 2 items
		t.Errorf("SQL output: %q", out.String())
	}

	if err := execStatement(context.Background(), &clihelp.MiningFlags{Fsync: tdb.FsyncOff}, dir, `MINE garbage`, &out, nil, nil); err == nil {
		t.Error("bad statement accepted")
	}
}

// TestStatsDump drives the -stats path end to end: a traced statement
// journalled by a one-record journal, then writeStats, must produce the
// record tarmd serves for GET /v1/queries/{id} — the span tree with its
// operators and passes, and the backend that counted.
func TestStatsDump(t *testing.T) {
	dir := fixtureDir(t)
	var progress, out strings.Builder
	journal := obs.NewJournal(obs.JournalConfig{Size: 1})
	trace := obs.NewTrace("stats-1")
	ctx := obs.ContextWithTrace(context.Background(), trace)
	stmt := `MINE RULES FROM baskets THRESHOLD SUPPORT 0.5 CONFIDENCE 0.5`
	if err := execStatement(ctx, &clihelp.MiningFlags{Workers: 1, Fsync: tdb.FsyncOff}, dir, stmt, &out, obs.NewProgressTracer(&progress), journal); err != nil {
		t.Fatal(err)
	}
	rec, _ := journal.Get(trace.ID())
	path := filepath.Join(t.TempDir(), "stats.json")
	if err := writeStats(path, rec); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got obs.QueryRecord
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatalf("stats JSON invalid: %v\n%s", err, buf)
	}
	if got.TraceID != "stats-1" || !strings.Contains(got.Statement, "MINE RULES") || got.Rows == 0 {
		t.Errorf("record = %+v", got)
	}
	if got.Backend != "bitmap" {
		t.Errorf("backend = %q, want bitmap", got.Backend)
	}
	if len(got.Spans) != 1 || got.Spans[0].Name != obs.SpanStatement || obs.Find(got.Spans, "op:mine:traditional") == nil {
		t.Fatalf("spans = %+v, want a statement root over the operators", got.Spans)
	}
	sum := obs.Summarize(got.Spans)
	if len(sum.Passes) == 0 {
		t.Fatal("no passes in the stats span tree")
	}
	for _, l := range sum.Passes {
		if l.Pruned+l.Counted != l.Generated {
			t.Errorf("L%d pruned %d + counted %d != generated %d", l.Level, l.Pruned, l.Counted, l.Generated)
		}
	}
	if !strings.Contains(progress.String(), "frequent") {
		t.Errorf("progress output: %q", progress.String())
	}
	if err := writeStats(path, nil); err == nil || !strings.Contains(err.Error(), "no journal record") {
		t.Errorf("writeStats without a record: %v", err)
	}
}

func TestRunExperimentsUnknown(t *testing.T) {
	if err := runExperiments("nope"); err == nil {
		t.Error("unknown experiment accepted")
	}
	// A retired id is unknown like any other, and the error lists the
	// 13 that remain.
	err := runExperiments("e12")
	if err == nil || !strings.Contains(err.Error(), `unknown experiment "e12"`) ||
		!strings.Contains(err.Error(), "[e1 e2 e3 e4 e5 e6 e7 e8 e9 e10 e11 e13 e14]") {
		t.Errorf("-experiment e12: %v", err)
	}
}

// TestFlagSurface pins the command line: -json went with the CI
// artifacts it fed, and -backend with the choice each build now makes
// itself, so both must fail the parse like any unknown flag.
func TestFlagSurface(t *testing.T) {
	parse := func(args ...string) error {
		fs := flag.NewFlagSet("tarmine", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		registerFlags(fs)
		return fs.Parse(args)
	}
	if err := parse("-experiment", "e14", "-workers", "2"); err != nil {
		t.Errorf("experiment flags rejected: %v", err)
	}
	for _, gone := range []string{"-json", "-backend"} {
		err := parse("-experiment", "e14", gone, "x")
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+gone) {
			t.Errorf("%s: %v, want an unknown-flag error", gone, err)
		}
	}
}

// TestExecStatementDurable drives writes end to end under the default
// durability: each run's close checkpoints what it wrote, so the next
// run sees it and has nothing to replay.
func TestExecStatementDurable(t *testing.T) {
	dir := fixtureDir(t)
	mf := &clihelp.MiningFlags{Fsync: tdb.FsyncAlways}
	var out strings.Builder
	for _, stmt := range []string{
		`CREATE TABLE stores (id int, city string)`,
		`INSERT INTO stores VALUES (7, 'york')`,
		`SELECT city FROM stores WHERE id = 7`,
	} {
		out.Reset()
		if err := execStatement(context.Background(), mf, dir, stmt, &out, nil, nil); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	if !strings.Contains(out.String(), "york") {
		t.Errorf("durable output: %q", out.String())
	}
	db, err := tdb.OpenDurable(dir, tdb.Durability{Fsync: tdb.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Kill()
	if rec := db.Recovery(); rec.Records != 0 {
		t.Errorf("clean tarmine exit left %+v to replay", rec)
	}
}
