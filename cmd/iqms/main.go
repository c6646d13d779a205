// Command iqms is the integrated query and mining system: a REPL that
// accepts both SQL (data understanding) and TML MINE statements (ad-hoc
// temporal mining) over one database, implementing the iterative
// mining process of the paper's Figure 1.
//
// Usage:
//
//	iqms -db ./data          # open or create a database directory
//	iqms -db ./data -f run.sql  # execute a script, then exit
//	iqms -db ./data -metrics :6060  # serve /metrics, /debug/vars, /debug/pprof
//	iqms -db ./data -fsync interval  # trade a bounded loss window for faster writes (default: always)
//
// Inside the REPL:
//
//	sql> SELECT item, COUNT(*) FROM baskets GROUP BY item;
//	sql> MINE PERIODS FROM baskets THRESHOLD SUPPORT 0.05 CONFIDENCE 0.6;
//	sql> \trace     # span tree of the statement that just ran
//	sql> \tables    \help    \quit
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync"
	"time"

	"github.com/tarm-project/tarm/internal/clihelp"
	"github.com/tarm-project/tarm/internal/core"
	"github.com/tarm-project/tarm/internal/minisql"
	"github.com/tarm-project/tarm/internal/obs"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/tml"
)

func main() {
	var mf clihelp.MiningFlags
	dbDir := flag.String("db", "", "database directory (empty: in-memory)")
	script := flag.String("f", "", "execute statements from this file and exit")
	metricsAddr := flag.String("metrics", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :6060)")
	mf.RegisterWorkers(flag.CommandLine)
	mf.RegisterTimeout(flag.CommandLine)
	mf.RegisterCache(flag.CommandLine)
	mf.RegisterDurability(flag.CommandLine)
	flag.Parse()

	db := tdb.NewMemDB()
	if *dbDir != "" {
		var err error
		if db, err = mf.OpenDB(*dbDir, obs.Default); err != nil {
			fmt.Fprintln(os.Stderr, "iqms:", err)
			os.Exit(1)
		}
		rec := db.Recovery()
		fmt.Fprintf(os.Stderr, "iqms: durable open (fsync %s): replayed %d wal records (%d tx, %d skipped, %d torn bytes) in %s\n",
			db.FsyncPolicy(), rec.Records, rec.AppendedTx, rec.SkippedTx, rec.TornBytes, rec.Wall.Round(time.Millisecond))
	}
	session := tml.NewSession(db)
	session.TML.Workers = mf.Workers
	session.TML.Cache = core.NewHoldCache(mf.CacheBytes())

	if *metricsAddr != "" {
		session.TML.Tracer = obs.NewRegistryTracer(obs.Default, "")
		if err := clihelp.ServeMetrics("iqms", *metricsAddr, obs.Default); err != nil {
			fmt.Fprintln(os.Stderr, "iqms:", err)
			os.Exit(1)
		}
	}

	if *script != "" {
		f, err := os.Open(*script)
		if err != nil {
			fmt.Fprintln(os.Stderr, "iqms:", err)
			os.Exit(1)
		}
		defer f.Close()
		// Script mode keeps the default SIGINT behaviour: Ctrl-C kills
		// the whole run, as batch tools are expected to.
		if err := run(session, db, f, os.Stdout, os.Stderr, false, execOpts{timeout: mf.Timeout}); err != nil {
			fmt.Fprintln(os.Stderr, "iqms:", err)
			os.Exit(1)
		}
		closeDB(db)
		return
	}
	fmt.Println("IQMS — integrated query and mining system. \\help for help, \\quit to exit.")
	intr := newInterrupts(os.Stderr)
	if err := run(session, db, os.Stdin, os.Stdout, os.Stderr, true, execOpts{timeout: mf.Timeout, intr: intr}); err != nil {
		fmt.Fprintln(os.Stderr, "iqms:", err)
		os.Exit(1)
	}
	closeDB(db)
}

// closeDB checkpoints and closes the database on the way out (a no-op
// for an in-memory session), so a clean exit restarts from segment
// files instead of WAL replay. A failed checkpoint is not fatal: the WAL
// already holds every acked append, so the next open replays it.
func closeDB(db *tdb.DB) {
	if err := db.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "iqms: close:", err)
	}
}

// execOpts carries the per-statement execution controls of the REPL.
type execOpts struct {
	timeout time.Duration // abort a statement after this long; 0 = no limit
	intr    *interrupts   // Ctrl-C routing; nil = default signal handling
}

// replState is the REPL's cross-statement memory: the trace of the
// statement that last ran (complete or interrupted), shown by \trace,
// and the standing SUBSCRIBE MINE statements registered by \subscribe,
// stepped after every executed statement.
type replState struct {
	lastTrace *obs.Trace
	standings []*standingEntry
	nextSub   int
}

// standingEntry is one REPL-registered standing statement.
type standingEntry struct {
	id int
	st *tml.Standing
}

// interrupts routes SIGINT to the running statement: in an interactive
// session Ctrl-C cancels the statement in flight — the session itself
// stays up — and when nothing is running it just prints a hint, so the
// only ways out remain \quit and EOF.
type interrupts struct {
	mu     sync.Mutex
	cancel context.CancelFunc // non-nil while a statement runs
	errw   io.Writer
}

// newInterrupts installs the SIGINT handler and starts routing.
func newInterrupts(errw io.Writer) *interrupts {
	i := &interrupts{errw: errw}
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	go func() {
		for range ch {
			i.mu.Lock()
			cancel := i.cancel
			i.mu.Unlock()
			if cancel != nil {
				cancel()
			} else {
				fmt.Fprintln(i.errw, "interrupt: no statement running (\\quit to exit)")
			}
		}
	}()
	return i
}

// arm registers the running statement's cancel func.
func (i *interrupts) arm(cancel context.CancelFunc) {
	i.mu.Lock()
	i.cancel = cancel
	i.mu.Unlock()
}

// disarm clears it once the statement finishes.
func (i *interrupts) disarm() {
	i.mu.Lock()
	i.cancel = nil
	i.mu.Unlock()
}

// run executes statements from r. Statements may span lines and end at
// ';' (or at end of line for \-commands). In interactive mode errors
// are printed to errw and the loop continues — stdout stays clean for
// result tables; in script mode the first error aborts.
func run(session *tml.Session, db *tdb.DB, r io.Reader, w, errw io.Writer, interactive bool, opts execOpts) error {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	state := &replState{}
	var buf strings.Builder
	prompt := func() {
		if interactive {
			if buf.Len() == 0 {
				fmt.Fprint(w, "sql> ")
			} else {
				fmt.Fprint(w, "...> ")
			}
		}
	}
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			done, err := metaCommand(trimmed, session, db, w, state)
			if err != nil {
				if !interactive {
					return err
				}
				fmt.Fprintln(errw, "error:", err)
			}
			if done {
				return nil
			}
			prompt()
			continue
		}
		if buf.Len() == 0 && trimmed == "" {
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if !strings.HasSuffix(trimmed, ";") {
			prompt()
			continue
		}
		stmt := strings.TrimSpace(buf.String())
		buf.Reset()
		if err := execOne(session, stmt, w, opts, state); err != nil {
			if !interactive {
				return err
			}
			fmt.Fprintln(errw, "error:", err)
		}
		prompt()
	}
	if interactive {
		fmt.Fprintln(w)
	}
	return scanner.Err()
}

// execOne runs one statement under the session's controls: an optional
// -timeout deadline, and — interactively — a Ctrl-C cancel armed for
// exactly the statement's duration. A cancelled mining statement
// returns context.Canceled (or DeadlineExceeded) as an ordinary error,
// which the interactive loop prints before the next prompt.
func execOne(session *tml.Session, stmt string, w io.Writer, opts execOpts, state *replState) error {
	ctx := context.Background()
	if opts.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.timeout)
		defer cancel()
	}
	if opts.intr != nil {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
		opts.intr.arm(cancel)
		defer opts.intr.disarm()
	}
	// Every statement runs under a fresh request-scoped trace; \trace
	// renders the last one — including a failed or interrupted
	// statement's partial tree, which is when a trace matters most.
	trace := obs.NewTrace("")
	ctx = obs.ContextWithTrace(ctx, trace)
	state.lastTrace = trace
	res, err := session.ExecContext(ctx, stmt)
	if err != nil {
		return err
	}
	minisql.Format(w, res)
	// A write may have advanced a table's clock past a granule boundary:
	// step the standing statements so their rule deltas appear right
	// under the statement that caused them.
	stepStandings(ctx, w, state)
	return nil
}

// stepStandings advances every \subscribe-registered standing statement
// and prints the rule deltas of those that refreshed.
func stepStandings(ctx context.Context, w io.Writer, state *replState) {
	for _, e := range state.standings {
		upd, err := e.st.Step(ctx)
		if err != nil {
			fmt.Fprintf(w, "-- subscription %d: %v\n", e.id, err)
			continue
		}
		if upd != nil {
			printSubUpdate(w, e.id, upd)
		}
	}
}

// printSubUpdate renders one emission: a summary line, then one line
// per delta (+ added, - removed, ~ changed).
func printSubUpdate(w io.Writer, id int, upd *tml.SubUpdate) {
	var adds, removes, changes int
	for _, d := range upd.Deltas {
		switch d.Kind {
		case tml.DeltaAdded:
			adds++
		case tml.DeltaRemoved:
			removes++
		default:
			changes++
		}
	}
	head := fmt.Sprintf("-- subscription %d", id)
	if upd.Initial {
		head += " (snapshot)"
	}
	if upd.ClosedLabel != "" {
		head += " closed through " + upd.ClosedLabel
	}
	fmt.Fprintf(w, "%s: %d rule(s), +%d -%d ~%d\n", head, upd.Rules, adds, removes, changes)
	for _, d := range upd.Deltas {
		row := d.Row
		sign := "+"
		switch d.Kind {
		case tml.DeltaRemoved:
			sign, row = "-", d.Prev
		case tml.DeltaChanged:
			sign = "~"
		}
		fmt.Fprintf(w, "%s %s\n", sign, strings.Join(row, "  "))
	}
}

// metaCommand handles \-commands; it reports whether the session
// should end.
func metaCommand(cmd string, session *tml.Session, db *tdb.DB, w io.Writer, state *replState) (quit bool, err error) {
	switch fields := strings.Fields(cmd); fields[0] {
	case "\\quit", "\\q":
		return true, nil
	case "\\trace":
		if state.lastTrace == nil {
			fmt.Fprintln(w, "no statement has run yet")
			return false, nil
		}
		state.lastTrace.WriteText(w)
		return false, nil
	case "\\cache":
		st := session.TML.Cache.Stats()
		if st.MaxBytes == 0 {
			fmt.Fprintln(w, "hold-table cache disabled (-cache 0)")
			return false, nil
		}
		fmt.Fprintf(w, "hits %d  rethresholds %d  misses %d  dedups %d\n", st.Hits, st.Rethresholds, st.Misses, st.Dedups)
		fmt.Fprintf(w, "entries %d  resident %.1f/%d MB  cells %d  evictions %d  invalidations %d\n",
			st.Entries, float64(st.ResidentBytes)/(1<<20), st.MaxBytes>>20, st.ResidentCells, st.Evictions, st.Invalidations)
		return false, nil
	case "\\tables", "\\t":
		for _, n := range db.Names() {
			kind := "table"
			if db.IsTxTable(n) {
				kind = "transactions"
			}
			fmt.Fprintf(w, "%-24s %s\n", n, kind)
		}
		return false, nil
	case "\\save", "\\flush":
		st, err := db.Checkpoint()
		if err != nil {
			return false, err
		}
		fmt.Fprintf(w, "checkpointed %d tables (%d segments written, %d unchanged), wal truncated %d bytes in %s\n",
			st.Tables, st.SegmentsWritten, st.SegmentsSkipped, st.WALTruncated, st.Wall.Round(time.Millisecond))
		return false, nil
	case "\\subscribe":
		if len(fields) == 1 {
			if len(state.standings) == 0 {
				fmt.Fprintln(w, "no standing statements (\\subscribe MINE ... to register one)")
				return false, nil
			}
			for _, e := range state.standings {
				fmt.Fprintf(w, "%-3d %s\n", e.id, e.st.Stmt().String())
			}
			return false, nil
		}
		rest := strings.TrimSpace(strings.TrimPrefix(cmd, "\\subscribe"))
		if !tml.IsSubscribeStatement(rest) {
			rest = "SUBSCRIBE " + rest
		}
		stmt, err := tml.Parse(rest)
		if err != nil {
			return false, err
		}
		st, err := tml.NewStanding(session.TML, stmt)
		if err != nil {
			return false, err
		}
		state.nextSub++
		e := &standingEntry{id: state.nextSub, st: st}
		state.standings = append(state.standings, e)
		fmt.Fprintf(w, "subscription %d registered: %s\n", e.id, stmt.String())
		// The registration snapshot, if the table already has data.
		upd, err := st.Step(context.Background())
		if err != nil {
			return false, err
		}
		if upd != nil {
			printSubUpdate(w, e.id, upd)
		}
		return false, nil
	case "\\unsubscribe":
		if len(fields) != 2 {
			return false, fmt.Errorf("usage: \\unsubscribe <n>")
		}
		for i, e := range state.standings {
			if fmt.Sprint(e.id) == fields[1] {
				state.standings = append(state.standings[:i], state.standings[i+1:]...)
				fmt.Fprintf(w, "subscription %s removed\n", fields[1])
				return false, nil
			}
		}
		return false, fmt.Errorf("no subscription %s (\\subscribe lists them)", fields[1])
	case "\\import":
		if len(fields) != 3 {
			return false, fmt.Errorf("usage: \\import <table> <file.csv>")
		}
		if err := importCSV(db, fields[1], fields[2], w); err != nil {
			return false, err
		}
		stepStandings(context.Background(), w, state)
		return false, nil
	case "\\export":
		if len(fields) != 3 {
			return false, fmt.Errorf("usage: \\export <table> <file.csv>")
		}
		return false, exportCSV(db, fields[1], fields[2], w)
	case "\\help", "\\h":
		fmt.Fprint(w, `Statements end with ';'.
SQL:  SELECT ... FROM t [WHERE ...] [GROUP BY ... [HAVING ...]] [ORDER BY ...] [LIMIT n];
      INSERT INTO t VALUES (...); UPDATE t SET col = e [WHERE ...]; DELETE FROM t [WHERE ...];
      CREATE TABLE t (col type, ...); SHOW TABLES; DESCRIBE t; DROP TABLE t;
TML:  MINE RULES FROM t [DURING '<pattern>'] THRESHOLD SUPPORT s CONFIDENCE c [FREQUENCY f];
      MINE PERIODS FROM t THRESHOLD ... [MIN LENGTH n];
      MINE CYCLES FROM t THRESHOLD ... [MAX LENGTH n] [MIN REPS n];
      MINE CALENDARS FROM t THRESHOLD ... [MIN REPS n];
      MINE HISTORY FROM t RULE 'a, b => c' THRESHOLD ...;
      EXPLAIN MINE ...;
Patterns: month in (jun..aug) | weekday in (sat,sun) | every 7 offset 2 |
          between 1998-01-01 and 1998-06-30 | and/or/not combinations
Meta: \tables  \save  \flush  \cache  \trace  \import <table> <file.csv>  \export <table> <file.csv>  \help  \quit
      \subscribe MINE ... registers a standing statement: after each statement that advances the
      table past a granule boundary, its rule deltas print (+ added, - removed, ~ changed).
      \subscribe lists the standing statements; \unsubscribe <n> removes one.
      \trace shows the span tree of the last statement (operators, hold-table build, counting passes).
      \flush (or \save) checkpoints a -db database and truncates its log; an in-memory session has nothing to save to.
CSV:  transaction tables use "timestamp,item1;item2"; relational tables a header row.
`)
		return false, nil
	default:
		return false, fmt.Errorf("unknown command %s (try \\help)", fields[0])
	}
}

// importCSV loads a CSV file into an existing table of either kind; a
// missing transaction table is created (the common bootstrap case). The
// records before a bad one stay stored, so an error is preceded by how
// many went in.
func importCSV(db *tdb.DB, table, path string, w io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var n int
	unit := "row(s)"
	if t, ok := db.Table(table); ok {
		n, err = tdb.ImportTable(f, t)
	} else {
		t, ok := db.TxTable(table)
		if !ok {
			if t, err = db.CreateTxTable(table); err != nil {
				return err
			}
		}
		n, err = tdb.ImportBaskets(f, t, db.Dict())
		unit = "transaction(s)"
	}
	switch {
	case err == nil:
		fmt.Fprintf(w, "%d %s imported into %s\n", n, unit, table)
	case n > 0:
		fmt.Fprintf(w, "%d %s imported into %s before the error\n", n, unit, table)
	}
	return err
}

// exportCSV writes a transaction table as basket CSV.
func exportCSV(db *tdb.DB, table, path string, w io.Writer) error {
	t, ok := db.TxTable(table)
	if !ok {
		return fmt.Errorf("no transaction table named %q (relational export: use SELECT)", table)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tdb.ExportBaskets(f, t, db.Dict()); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "%d transaction(s) exported to %s\n", t.Len(), path)
	return nil
}
