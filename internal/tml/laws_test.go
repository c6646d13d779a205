package tml_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/tarm-project/tarm/internal/bench"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/tml"
)

// TestTaskIIIRefindsTasksIandII is the first self-consistency law: the
// paper's tasks are restrictions of one (rule, temporal feature) space,
// so every rule Task I or II reports with a feature is a rule Task III
// reports DURING that feature, at the same thresholds, with the same
// support, confidence and frequency. The law needs no second
// implementation, so it runs on a year of data. A period [from, to]
// becomes `between from and to+1` (between is half-open); a cycle or a
// calendar is its own feature text.
func TestTaskIIIRefindsTasksIandII(t *testing.T) {
	src, _, err := bench.StandardDataset(bench.StandardConfig{TxPerDay: 100, Days: 364})
	if err != nil {
		t.Fatal(err)
	}
	db := tdb.NewMemDB()
	tbl, err := db.CreateTxTable("baskets")
	if err != nil {
		t.Fatal(err)
	}
	var txs []tdb.Tx
	src.Each(func(tx tdb.Tx) bool { tx.Items = tx.Items.Clone(); txs = append(txs, tx); return true })
	tbl.AppendBatch(txs)
	session := tml.NewSession(db)
	session.TML.Cache = nil // every statement counts for itself

	const thresholds = "AT GRANULARITY day THRESHOLD SUPPORT 0.05 CONFIDENCE 0.5 FREQUENCY 0.9"
	mine := func(stmt string) []map[string]tdb.Value {
		t.Helper()
		res, err := session.Exec(stmt)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		rows := make([]map[string]tdb.Value, len(res.Rows))
		for i, row := range res.Rows {
			rows[i] = map[string]tdb.Value{}
			for c, col := range res.Cols {
				rows[i][col] = row[c]
			}
		}
		return rows
	}
	feature := map[string]func(row map[string]tdb.Value) string{
		"PERIODS": func(row map[string]tdb.Value) string {
			to, err := time.Parse(time.DateOnly, row["to"].AsString())
			if err != nil {
				t.Fatalf("period end %v: %v", row["to"], err)
			}
			return fmt.Sprintf("between %s and %s", row["from"].AsString(), to.AddDate(0, 0, 1).Format(time.DateOnly))
		},
		"CYCLES":    func(row map[string]tdb.Value) string { return row["cycle"].AsString() },
		"CALENDARS": func(row map[string]tdb.Value) string { return row["calendar"].AsString() },
	}
	for _, task := range []string{"PERIODS", "CYCLES", "CALENDARS"} {
		rows := mine("MINE " + task + " FROM baskets " + thresholds)
		if len(rows) == 0 {
			t.Fatalf("MINE %s found no rules: the law would hold vacuously", task)
		}
		for _, row := range rows {
			rule := row["antecedent"].AsString() + " => " + row["consequent"].AsString()
			during := feature[task](row)
			var refound map[string]tdb.Value
			for _, d := range mine(fmt.Sprintf("MINE RULES FROM baskets DURING '%s' %s", during, thresholds)) {
				if d["antecedent"].Equal(row["antecedent"]) && d["consequent"].Equal(row["consequent"]) {
					refound = d
				}
			}
			if refound == nil {
				t.Errorf("%s rule %s is not re-found DURING '%s'", task, rule, during)
				continue
			}
			for _, m := range []string{"support", "confidence", "frequency"} {
				if !refound[m].Equal(row[m]) {
					t.Errorf("%s rule %s: DURING '%s' reports %s %v, the task %v", task, rule, during, m, refound[m], row[m])
				}
			}
		}
		t.Logf("MINE %s: all %d rows re-found by MINE RULES DURING their feature", task, len(rows))
	}
}
