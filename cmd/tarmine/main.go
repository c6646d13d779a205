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

func main() {
	var mf clihelp.MiningFlags
	dbDir := flag.String("db", "", "database directory")
	stmt := flag.String("e", "", "statement to execute (TML or SQL)")
	experiment := flag.String("experiment", "", "experiment id (e1..e17) or 'all'")
	jsonPath := flag.String("json", "", "with -experiment: also write the result tables as JSON to this file ('-' = stdout)")
	statsPath := flag.String("stats", "", "write mining telemetry JSON to this file ('-' = stdout; the result table then goes to stderr)")
	progress := flag.Bool("progress", false, "render per-pass mining progress to stderr")
	traceFlag := flag.Bool("trace", false, "render the statement's span tree to stderr after the run")
	mf.RegisterMining(flag.CommandLine)
	mf.RegisterTimeout(flag.CommandLine)
	mf.RegisterDurability(flag.CommandLine)
	flag.Parse()

	backend, err := mf.Backend()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tarmine:", err)
		os.Exit(2)
	}
	bench.Backend = backend
	bench.Workers = mf.Workers
	if *progress {
		bench.Tracer = obs.NewProgressTracer(os.Stderr)
	}

	switch {
	case *experiment != "":
		if err := runExperiments(*experiment, *jsonPath); err != nil {
			fmt.Fprintln(os.Stderr, "tarmine:", err)
			os.Exit(1)
		}
	case *stmt != "":
		if *dbDir == "" {
			fmt.Fprintln(os.Stderr, "tarmine: -e needs -db")
			os.Exit(2)
		}
		var tracers []obs.Tracer
		var collect *obs.CollectTracer
		if *statsPath != "" {
			collect = obs.NewCollectTracer()
			tracers = append(tracers, collect)
		}
		if *progress {
			tracers = append(tracers, obs.NewProgressTracer(os.Stderr))
		}
		// With -stats - the JSON owns stdout; the result table moves to
		// stderr so both streams stay machine-readable.
		out := io.Writer(os.Stdout)
		if *statsPath == "-" {
			out = os.Stderr
		}
		ctx, cancel := mf.StatementContext(context.Background())
		defer cancel()
		var trace *obs.Trace
		if *traceFlag {
			trace = obs.NewTrace("")
			ctx = obs.ContextWithTrace(ctx, trace)
		}
		if err := execStatement(ctx, &mf, *dbDir, *stmt, backend, out, obs.Multi(tracers...)); err != nil {
			fmt.Fprintln(os.Stderr, "tarmine:", err)
			os.Exit(1)
		}
		if trace != nil {
			trace.WriteText(os.Stderr)
		}
		if collect != nil {
			if err := writeStats(*statsPath, *stmt, collect.Stats()); err != nil {
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

// runExperiments executes the selected experiments, rendering each
// table to stdout; with jsonPath set it also writes the tables as a
// JSON array so CI can archive machine-readable results.
func runExperiments(id, jsonPath string) error {
	ids := []string{id}
	if id == "all" {
		ids = bench.ExperimentIDs()
	}
	var tables []bench.Table
	for _, eid := range ids {
		run, ok := bench.Experiments[eid]
		if !ok {
			return fmt.Errorf("unknown experiment %q (have %v)", eid, bench.ExperimentIDs())
		}
		table, err := run()
		if err != nil {
			return fmt.Errorf("%s: %w", eid, err)
		}
		fmt.Println(table.String())
		tables = append(tables, table)
	}
	if jsonPath == "" {
		return nil
	}
	buf, err := json.MarshalIndent(tables, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if jsonPath == "-" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(jsonPath, buf, 0o644)
}
