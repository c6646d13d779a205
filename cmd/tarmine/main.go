// Command tarmine is the batch front end: it executes a single TML or
// SQL statement against a database directory, or runs the experiment
// suite that regenerates the tables and figures of EXPERIMENTS.md.
//
// Usage:
//
//	tarmine -db ./data -e "MINE CYCLES FROM baskets THRESHOLD SUPPORT 0.1 CONFIDENCE 0.6"
//	tarmine -db ./data -e "MINE ..." -stats stats.json   # the statement's journal record
//	tarmine -db ./data -e "MINE ..." -progress           # live per-pass progress on stderr
//	tarmine -db ./data -e "MINE ..." -trace              # span tree of the run on stderr
//	tarmine -experiment e1          # one experiment
//	tarmine -experiment all         # the full suite (slow)
//	tarmine -workers 4 -experiment e2
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/tarm-project/tarm/internal/bench"
	"github.com/tarm-project/tarm/internal/clihelp"
	"github.com/tarm-project/tarm/internal/minisql"
	"github.com/tarm-project/tarm/internal/obs"
	"github.com/tarm-project/tarm/internal/tml"
)

// options is tarmine's command line.
type options struct {
	mf         clihelp.MiningFlags
	dbDir      string
	stmt       string
	experiment string
	statsPath  string
	progress   bool
	trace      bool
}

// registerFlags declares every flag tarmine accepts on fs.
func registerFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.dbDir, "db", "", "database directory")
	fs.StringVar(&o.stmt, "e", "", "statement to execute (TML or SQL)")
	fs.StringVar(&o.experiment, "experiment", "", "experiment id (e1..e11, e13, e14) or 'all'")
	fs.StringVar(&o.statsPath, "stats", "", "write the MINE statement's journal record (span tree included) as JSON to this file ('-' = stdout; the result table then goes to stderr)")
	fs.BoolVar(&o.progress, "progress", false, "render per-pass mining progress to stderr")
	fs.BoolVar(&o.trace, "trace", false, "render the statement's span tree to stderr after the run")
	o.mf.RegisterWorkers(fs)
	o.mf.RegisterTimeout(fs)
	o.mf.RegisterDurability(fs)
	return o
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	mf := &o.mf

	bench.Workers = mf.Workers
	if o.progress {
		bench.Tracer = obs.NewProgressTracer(os.Stderr)
	}

	switch {
	case o.experiment != "":
		if err := runExperiments(o.experiment); err != nil {
			fmt.Fprintln(os.Stderr, "tarmine:", err)
			os.Exit(1)
		}
	case o.stmt != "":
		if o.dbDir == "" {
			fmt.Fprintln(os.Stderr, "tarmine: -e needs -db")
			os.Exit(2)
		}
		var tracer obs.Tracer
		if o.progress {
			tracer = obs.NewProgressTracer(os.Stderr)
		}
		// With -stats - the JSON owns stdout; the result table moves to
		// stderr so both streams stay machine-readable.
		out := io.Writer(os.Stdout)
		if o.statsPath == "-" {
			out = os.Stderr
		}
		ctx, cancel := mf.StatementContext(context.Background())
		defer cancel()
		// One trace records the statement: -trace renders it, and -stats
		// writes the record a one-entry journal reads off it.
		trace := obs.NewTrace("")
		ctx = obs.ContextWithTrace(ctx, trace)
		var journal *obs.Journal
		if o.statsPath != "" {
			journal = obs.NewJournal(obs.JournalConfig{Size: 1})
		}
		if err := execStatement(ctx, mf, o.dbDir, o.stmt, out, tracer, journal); err != nil {
			fmt.Fprintln(os.Stderr, "tarmine:", err)
			os.Exit(1)
		}
		if o.trace {
			trace.WriteText(os.Stderr)
		}
		if journal != nil {
			rec, _ := journal.Get(trace.ID())
			if err := writeStats(o.statsPath, rec); err != nil {
				fmt.Fprintln(os.Stderr, "tarmine:", err)
				os.Exit(1)
			}
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// execStatement opens the database and runs one TML or SQL statement
// under ctx, feeding any mining telemetry to tracer and journalling a
// MINE statement in journal (either may be nil). A mining statement
// cancelled by -timeout returns context.DeadlineExceeded. The database
// is checkpointed and closed before returning, so a batch INSERT
// restarts from segments.
func execStatement(ctx context.Context, mf *clihelp.MiningFlags, dbDir, stmt string, w io.Writer, tracer obs.Tracer, journal *obs.Journal) error {
	db, err := mf.OpenDB(dbDir, obs.Default)
	if err != nil {
		return err
	}
	session := tml.NewSession(db)
	// One statement per process never reuses a hold table: without a
	// cache the build is scoped to the statement it serves.
	session.TML.Cache = nil
	session.TML.Workers = mf.Workers
	session.TML.Tracer = tracer
	session.TML.Journal = journal
	res, err := session.ExecContext(ctx, stmt)
	if err != nil {
		db.Kill() // keep the WAL: nothing acked is lost
		return err
	}
	minisql.Format(w, res)
	return db.Close()
}

// writeStats writes a statement's journal record, encoded as tarmd
// serves GET /v1/queries/{id}; "-" writes to stdout.
func writeStats(path string, rec *obs.QueryRecord) error {
	if rec == nil {
		return errors.New("-stats: the statement left no journal record (only MINE statements are journalled)")
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(rec); err != nil {
		return err
	}
	if path == "-" {
		_, err := os.Stdout.Write(buf.Bytes())
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// runExperiments executes the selected experiments in run order,
// rendering each table to stdout.
func runExperiments(id string) error {
	exps, err := bench.Select(id)
	if err != nil {
		return err
	}
	for _, e := range exps {
		table, err := e.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Println(table.String())
	}
	return nil
}
