// Command tarmine is the batch front end: it executes a single TML or
// SQL statement against a database directory, or runs the experiment
// suite that regenerates the tables and figures of EXPERIMENTS.md.
//
// Usage:
//
//	tarmine -db ./data -e "MINE CYCLES FROM baskets THRESHOLD SUPPORT 0.1 CONFIDENCE 0.6"
//	tarmine -db ./data -e "MINE ..." -stats stats.json   # dump mining telemetry
//	tarmine -db ./data -e "MINE ..." -progress           # live per-pass progress on stderr
//	tarmine -db ./data -e "MINE ..." -trace              # span tree of the run on stderr
//	tarmine -experiment e1          # one experiment
//	tarmine -experiment all         # the full suite (slow)
//	tarmine -backend bitmap -workers 4 -experiment e2
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/tarm-project/tarm/internal/apriori"
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
	fs.StringVar(&o.statsPath, "stats", "", "write mining telemetry JSON to this file ('-' = stdout; the result table then goes to stderr)")
	fs.BoolVar(&o.progress, "progress", false, "render per-pass mining progress to stderr")
	fs.BoolVar(&o.trace, "trace", false, "render the statement's span tree to stderr after the run")
	o.mf.RegisterMining(fs)
	o.mf.RegisterTimeout(fs)
	o.mf.RegisterDurability(fs)
	return o
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	mf := &o.mf

	backend, err := mf.Backend()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tarmine:", err)
		os.Exit(2)
	}
	bench.Backend = backend
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
		var tracers []obs.Tracer
		var collect *obs.CollectTracer
		if o.statsPath != "" {
			collect = obs.NewCollectTracer()
			tracers = append(tracers, collect)
		}
		if o.progress {
			tracers = append(tracers, obs.NewProgressTracer(os.Stderr))
		}
		// With -stats - the JSON owns stdout; the result table moves to
		// stderr so both streams stay machine-readable.
		out := io.Writer(os.Stdout)
		if o.statsPath == "-" {
			out = os.Stderr
		}
		ctx, cancel := mf.StatementContext(context.Background())
		defer cancel()
		var trace *obs.Trace
		if o.trace {
			trace = obs.NewTrace("")
			ctx = obs.ContextWithTrace(ctx, trace)
		}
		if err := execStatement(ctx, mf, o.dbDir, o.stmt, backend, out, obs.Multi(tracers...)); err != nil {
			fmt.Fprintln(os.Stderr, "tarmine:", err)
			os.Exit(1)
		}
		if trace != nil {
			trace.WriteText(os.Stderr)
		}
		if collect != nil {
			if err := writeStats(o.statsPath, o.stmt, collect.Stats()); err != nil {
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
// under ctx, feeding any mining telemetry to tracer. A mining statement
// cancelled by -timeout returns context.DeadlineExceeded. The database
// is checkpointed and closed before returning, so a batch INSERT
// restarts from segments.
func execStatement(ctx context.Context, mf *clihelp.MiningFlags, dbDir, stmt string, backend apriori.Backend, w io.Writer, tracer obs.Tracer) error {
	db, err := mf.OpenDB(dbDir, obs.Default)
	if err != nil {
		return err
	}
	session := tml.NewSession(db)
	session.TML.Backend = backend
	session.TML.Workers = mf.Workers
	session.TML.Tracer = tracer
	res, err := session.ExecContext(ctx, stmt)
	if err != nil {
		db.Kill() // keep the WAL: nothing acked is lost
		return err
	}
	minisql.Format(w, res)
	return db.Close()
}

// writeStats dumps the collected MineStats as indented JSON; "-" writes
// to stdout. The summary block (p50/p95/p99 over pass and operator
// durations) is computed here, at the edge, so the collector stays a
// pure accumulator.
func writeStats(path, stmt string, st *obs.MineStats) error {
	st.Statement = stmt
	st.Summarize()
	buf, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(path, buf, 0o644)
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
