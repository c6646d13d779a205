package main

import (
	"os"
	"strings"
	"testing"
	"time"

	"github.com/tarm-project/tarm/internal/clihelp"
	"github.com/tarm-project/tarm/internal/obs"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/tml"
)

func testDB(t *testing.T) *tdb.DB {
	t.Helper()
	db := tdb.NewMemDB()
	baskets, err := db.CreateTxTable("baskets")
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2024, 1, 1, 9, 0, 0, 0, time.UTC)
	for d := 0; d < 14; d++ {
		for i := 0; i < 6; i++ {
			baskets.Append(at.AddDate(0, 0, d), db.Dict().InternAll("bread", "milk"))
		}
	}
	return db
}

func TestRunScript(t *testing.T) {
	db := testDB(t)
	session := tml.NewSession(db)
	script := strings.NewReader(`
SELECT item, COUNT(*) AS n
FROM baskets
GROUP BY item;

MINE RULES FROM baskets THRESHOLD SUPPORT 0.5 CONFIDENCE 0.6;
`)
	var out, errs strings.Builder
	if err := run(session, db, script, &out, &errs, false, execOpts{}); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "bread") || !strings.Contains(text, "{milk}") {
		t.Errorf("script output missing expected content:\n%s", text)
	}
}

func TestRunScriptAbortsOnError(t *testing.T) {
	db := testDB(t)
	session := tml.NewSession(db)
	script := strings.NewReader("SELECT nope FROM baskets;\nSELECT 1 FROM baskets;")
	var out, errs strings.Builder
	if err := run(session, db, script, &out, &errs, false, execOpts{}); err == nil {
		t.Error("script error not propagated")
	}
}

func TestRunInteractiveContinuesOnError(t *testing.T) {
	db := testDB(t)
	session := tml.NewSession(db)
	input := strings.NewReader("SELECT nope FROM baskets;\nSHOW TABLES;\n\\quit\n")
	var out, errs strings.Builder
	if err := run(session, db, input, &out, &errs, true, execOpts{}); err != nil {
		t.Fatal(err)
	}
	// Diagnostics land on the error stream, not stdout.
	if !strings.Contains(errs.String(), "error:") {
		t.Errorf("error not surfaced on stderr:\n%s", errs.String())
	}
	if strings.Contains(out.String(), "error:") {
		t.Errorf("error leaked to stdout:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "baskets") {
		t.Errorf("session did not continue after error:\n%s", out.String())
	}
}

func TestMetaCommands(t *testing.T) {
	db := testDB(t)
	var out strings.Builder

	quit, err := metaCommand(`\tables`, tml.NewSession(db), db, &out, &replState{})
	if err != nil || quit {
		t.Fatalf("\\tables: %v, quit=%v", err, quit)
	}
	if !strings.Contains(out.String(), "baskets") || !strings.Contains(out.String(), "transactions") {
		t.Errorf("\\tables output: %q", out.String())
	}

	quit, err = metaCommand(`\q`, tml.NewSession(db), db, &out, &replState{})
	if err != nil || !quit {
		t.Errorf("\\q: %v, quit=%v", err, quit)
	}

	out.Reset()
	quit, err = metaCommand(`\help`, tml.NewSession(db), db, &out, &replState{})
	if err != nil || quit || !strings.Contains(out.String(), "MINE RULES") {
		t.Errorf("\\help broken: %v %q", err, out.String())
	}

	if _, err := metaCommand(`\bogus`, tml.NewSession(db), db, &out, &replState{}); err == nil {
		t.Error("unknown meta command accepted")
	}

	// \save and \flush are one command: a checkpoint of a -db session,
	// a clean error in a memory-only one.
	ddb, err := tdb.OpenDurable(t.TempDir(), tdb.Durability{Fsync: tdb.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer ddb.Kill()
	for _, cmd := range []string{`\save`, `\flush`} {
		if _, err := metaCommand(cmd, tml.NewSession(db), db, &out, &replState{}); err == nil {
			t.Errorf("%s on memory DB succeeded", cmd)
		}
		out.Reset()
		if _, err := metaCommand(cmd, tml.NewSession(ddb), ddb, &out, &replState{}); err != nil || !strings.Contains(out.String(), "checkpointed") {
			t.Errorf("%s on a directory: %v %q", cmd, err, out.String())
		}
	}
}

func TestImportExportCSV(t *testing.T) {
	db := testDB(t)
	dir := t.TempDir()
	var out strings.Builder

	// Export the fixture, then import into a fresh table.
	exportPath := dir + "/out.csv"
	if _, err := metaCommand(`\export baskets `+exportPath, tml.NewSession(db), db, &out, &replState{}); err != nil {
		t.Fatal(err)
	}
	if _, err := metaCommand(`\import copied `+exportPath, tml.NewSession(db), db, &out, &replState{}); err != nil {
		t.Fatal(err)
	}
	copied, ok := db.TxTable("copied")
	if !ok || copied.Len() != 84 {
		t.Fatalf("copied table missing or wrong size: %v", copied)
	}
	if !strings.Contains(out.String(), "84 transaction(s) imported") {
		t.Errorf("output: %q", out.String())
	}

	// Errors: bad arity, missing file, export of unknown table.
	if _, err := metaCommand(`\import onlytable`, tml.NewSession(db), db, &out, &replState{}); err == nil {
		t.Error("bad arity accepted")
	}
	if _, err := metaCommand(`\import t `+dir+`/nope.csv`, tml.NewSession(db), db, &out, &replState{}); err == nil {
		t.Error("missing file accepted")
	}
	if _, err := metaCommand(`\export nosuch `+dir+`/x.csv`, tml.NewSession(db), db, &out, &replState{}); err == nil {
		t.Error("export of unknown table accepted")
	}
}

// TestImportPartialCSV: a basket CSV whose third record is bad stores
// the two before it, and the REPL says so before the error.
func TestImportPartialCSV(t *testing.T) {
	db := tdb.NewMemDB()
	session := tml.NewSession(db)
	path := t.TempDir() + "/partial.csv"
	csv := "2024-01-01 09:00,bread;milk\n2024-01-02 09:00,bread\nbad,milk\n"
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if _, err := metaCommand(`\import loaded `+path, session, db, &out, &replState{}); err == nil {
		t.Fatal("a bad record imported without error")
	}
	if !strings.Contains(out.String(), "2 transaction(s) imported into loaded before the error") {
		t.Errorf("output %q does not report the 2 stored transactions", out.String())
	}
	res, err := session.Exec("SELECT COUNT(DISTINCT tid) FROM loaded;")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].Display(); got != "2" {
		t.Errorf("COUNT(DISTINCT tid) = %s, want 2", got)
	}
}

// TestServeMetrics boots the observability endpoint on an ephemeral
// port (through the shared clihelp path main uses), runs a MINE
// statement through the session and checks the statement counter.
func TestServeMetrics(t *testing.T) {
	db := testDB(t)
	session := tml.NewSession(db)
	session.TML.Tracer = obs.NewRegistryTracer(obs.Default, "")
	if err := clihelp.ServeMetrics("iqms", "127.0.0.1:0", obs.Default); err != nil {
		t.Fatal(err)
	}
	before := obs.Default.Counter("tarm_statements_total").Value()
	var out, errs strings.Builder
	input := strings.NewReader("MINE RULES FROM baskets THRESHOLD SUPPORT 0.5 CONFIDENCE 0.5;\n")
	if err := run(session, db, input, &out, &errs, false, execOpts{}); err != nil {
		t.Fatal(err)
	}
	if got := obs.Default.Counter("tarm_statements_total").Value(); got != before+1 {
		t.Errorf("statements counter = %d, want %d", got, before+1)
	}
	if err := clihelp.ServeMetrics("iqms", "256.0.0.1:bad", obs.Default); err == nil {
		t.Error("bad metrics address accepted")
	}
}
