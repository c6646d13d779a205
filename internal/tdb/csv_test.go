package tdb

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/obs"
)

func TestImportBaskets(t *testing.T) {
	input := `timestamp,items
2024-01-01 09:30,bread;milk
2024-01-01,bread
2024-01-02 10:00:00,milk; butter ;bread
`
	tbl, _ := NewTxTable("b")
	dict := itemset.NewDict()
	n, err := ImportBaskets(strings.NewReader(input), tbl, dict)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || tbl.Len() != 3 {
		t.Fatalf("imported %d, table has %d", n, tbl.Len())
	}
	if dict.Len() != 3 {
		t.Errorf("dict has %d names", dict.Len())
	}
	var last Tx
	tbl.Each(func(tx Tx) bool { last = tx; last.Items = tx.Items.Clone(); return true })
	if last.Items.Len() != 3 {
		t.Errorf("last basket = %v", dict.Names(last.Items))
	}
	if !last.At.Equal(time.Date(2024, 1, 2, 10, 0, 0, 0, time.UTC)) {
		t.Errorf("last timestamp = %v", last.At)
	}
}

func TestImportBasketsErrors(t *testing.T) {
	cases := []string{
		"notadate,bread\n",
		"2024-01-01,\n",
		"2024-01-01,;;\n",
		"2024-01-01\n", // wrong arity
	}
	for _, in := range cases {
		tbl, _ := NewTxTable("b")
		if _, err := ImportBaskets(strings.NewReader(in), tbl, itemset.NewDict()); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
	// Empty input imports zero rows without error.
	tbl, _ := NewTxTable("b")
	n, err := ImportBaskets(strings.NewReader(""), tbl, itemset.NewDict())
	if err != nil || n != 0 {
		t.Errorf("empty input: %d, %v", n, err)
	}
}

func TestBasketsRoundTrip(t *testing.T) {
	tbl := buildTxTable(t)
	dict := itemset.NewDict()
	for _, n := range []string{"a", "b", "c", "d", "e"} {
		dict.Intern(n)
	}
	var sb strings.Builder
	if err := ExportBaskets(&sb, tbl, dict); err != nil {
		t.Fatal(err)
	}
	tbl2, _ := NewTxTable("copy")
	dict2 := itemset.NewDict()
	for _, n := range []string{"a", "b", "c", "d", "e"} {
		dict2.Intern(n) // same ids
	}
	n, err := ImportBaskets(strings.NewReader(sb.String()), tbl2, dict2)
	if err != nil {
		t.Fatal(err)
	}
	if n != tbl.Len() {
		t.Fatalf("round trip imported %d of %d", n, tbl.Len())
	}
	var orig, copied []Tx
	tbl.Each(func(tx Tx) bool { tx.Items = tx.Items.Clone(); orig = append(orig, tx); return true })
	tbl2.Each(func(tx Tx) bool { tx.Items = tx.Items.Clone(); copied = append(copied, tx); return true })
	for i := range orig {
		if !orig[i].Items.Equal(copied[i].Items) {
			t.Errorf("tx %d items %v vs %v", i, orig[i].Items, copied[i].Items)
		}
		// Seconds precision survives; the fixture uses whole minutes.
		if !orig[i].At.Truncate(time.Second).Equal(copied[i].At) {
			t.Errorf("tx %d time %v vs %v", i, orig[i].At, copied[i].At)
		}
	}
}

// TestExportSubSecondRoundTrip: an instant with a fraction of a second
// (as /v1/append and an RFC 3339 import store it) exports with its
// fraction and imports back to the same instant; a whole second still
// exports without one.
func TestExportSubSecondRoundTrip(t *testing.T) {
	tbl, _ := NewTxTable("b")
	dict := itemset.NewDict()
	ats := []time.Time{
		time.Date(2024, 1, 2, 10, 0, 0, 250_000_000, time.UTC),
		time.Date(2024, 1, 2, 10, 0, 1, 0, time.UTC),
		time.Date(2024, 1, 2, 10, 0, 2, 123_456_789, time.UTC),
	}
	for _, at := range ats {
		tbl.Append(at, itemset.New(dict.Intern("a")))
	}
	var sb strings.Builder
	if err := ExportBaskets(&sb, tbl, dict); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "2024-01-02 10:00:01,a\n") {
		t.Errorf("whole second not exported as before: %q", sb.String())
	}
	tbl2, _ := NewTxTable("copy")
	if _, err := ImportBaskets(strings.NewReader(sb.String()), tbl2, itemset.NewDict()); err != nil {
		t.Fatal(err)
	}
	var got []time.Time
	tbl2.Each(func(tx Tx) bool { got = append(got, tx.At); return true })
	if len(got) != len(ats) {
		t.Fatalf("imported %d transactions, want %d", len(got), len(ats))
	}
	for i, at := range ats {
		if !got[i].Equal(at) {
			t.Errorf("tx %d: exported %v imports as %v", i, at, got[i])
		}
	}
}

func TestExportBasketsUnknownID(t *testing.T) {
	tbl, _ := NewTxTable("b")
	tbl.Append(time.Unix(0, 0), itemset.New(42))
	var sb strings.Builder
	if err := ExportBaskets(&sb, tbl, itemset.NewDict()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "#42") {
		t.Errorf("unknown id not rendered: %q", sb.String())
	}
}

// TestExportBasketsAllocs: an export builds the "#<id>" fallback only
// for an identifier the dictionary misses, so a transaction whose names
// all resolve costs its timestamp, its joined item list and its share of
// the writer, not one string an item.
func TestExportBasketsAllocs(t *testing.T) {
	tbl, _ := NewTxTable("b")
	dict := itemset.NewDict()
	ids := dict.InternAll("bread", "milk", "eggs", "beer", "chips")
	const txs = 10_000
	start := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	batch := make([]Tx, txs)
	for i := range batch {
		batch[i] = Tx{At: start.Add(time.Duration(i) * time.Minute), Items: itemset.New(ids[i%5], ids[(i+1)%5], ids[(i+3)%5])}
	}
	tbl.AppendBatch(batch)
	const perTx = 3
	allocs := testing.AllocsPerRun(2, func() {
		if err := ExportBaskets(io.Discard, tbl, dict); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > perTx*txs {
		t.Errorf("exporting %d three-item transactions: %.0f allocations, want at most %d a transaction", txs, allocs, perTx)
	}
}

func TestImportTable(t *testing.T) {
	tbl, _ := NewTable("sales", salesSchema(t))
	input := `product,id,amount,at
bread,1,2.5,2024-01-01
milk,2,,2024-01-02 09:30
,3,1.0,
`
	n, err := ImportTable(strings.NewReader(input), tbl)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || tbl.Len() != 3 {
		t.Fatalf("imported %d", n)
	}
	row, _ := tbl.Row(0)
	if row[0].AsInt() != 1 || row[2].AsString() != "bread" || row[1].AsFloat() != 2.5 {
		t.Errorf("row 0 = %v", row)
	}
	row, _ = tbl.Row(1)
	if !row[1].IsNull() {
		t.Errorf("empty field not NULL: %v", row[1])
	}
	row, _ = tbl.Row(2)
	if !row[3].IsNull() || !row[2].IsNull() {
		t.Errorf("row 2 nulls wrong: %v", row)
	}
}

func TestImportTableErrors(t *testing.T) {
	schema := salesSchema(t)
	cases := []string{
		"",                           // missing header
		"nope,id\n1,2\n",             // unknown column
		"id\nxyz\n",                  // bad int
		"amount\nxyz\n",              // bad float
		"at\nnot-a-date\n",           // bad time
		"id,amount\n1,2.0,3.0,4.0\n", // too many fields is a csv arity error
	}
	for _, in := range cases {
		tbl, _ := NewTable("sales", schema)
		if _, err := ImportTable(strings.NewReader(in), tbl); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

func TestImportTableBool(t *testing.T) {
	schema, _ := NewSchema(Column{Name: "flag", Kind: KindBool})
	tbl, _ := NewTable("flags", schema)
	n, err := ImportTable(strings.NewReader("flag\ntrue\nno\n1\n"), tbl)
	if err != nil || n != 3 {
		t.Fatalf("%d, %v", n, err)
	}
	r0, _ := tbl.Row(0)
	r1, _ := tbl.Row(1)
	r2, _ := tbl.Row(2)
	if !r0[0].AsBool() || r1[0].AsBool() || !r2[0].AsBool() {
		t.Errorf("bool parsing wrong: %v %v %v", r0[0], r1[0], r2[0])
	}
	tbl2, _ := NewTable("flags2", schema)
	if _, err := ImportTable(strings.NewReader("flag\nmaybe\n"), tbl2); err == nil {
		t.Error("bad bool accepted")
	}
}

// FuzzImportCSV checks ImportBaskets on arbitrary bytes: it never
// panics, it stores exactly the rows it counts, every row it accepted
// has a storable timestamp (stored without wrapping) and at least one
// item, and the dictionary grows by exactly the distinct new names of
// the stored rows — a refused record interns nothing. The accepted
// rows are re-read with encoding/csv to know what each one said.
func FuzzImportCSV(f *testing.F) {
	for _, s := range []string{
		"timestamp,items\n2024-01-01 09:30:00,bread;milk\n",
		"2024-01-01 09:30,bread\n2024-01-01,milk; butter ;bread\n",
		"2024-01-02T10:00:00Z,bread\n2024-01-02T10:00:00+02:00,jam\n",
		"TIMESTAMP , items\n\"2024-01-01 09:30\",\"bread;\"\"milk\"\"\"\n",
		"2024-01-01, ; ;\n",
		"2024-01-01,\n",
		"1500-06-01,bread\n",
		"2262-04-12T00:00:00Z,bread\n",
		"2024-01-01,bread,extra\n",
		"\"2024-01-01,bread\n",
		"",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, _ := NewTxTable("fuzz")
		dict := itemset.NewDict()
		dict.Intern("bread") // a name the dictionary already holds
		before := dict.Len()
		n, _ := ImportBaskets(bytes.NewReader(data), tbl, dict)
		if tbl.Len() != n {
			t.Fatalf("ImportBaskets counted %d rows, table holds %d", n, tbl.Len())
		}
		rows := make([]Tx, 0, n)
		tbl.Each(func(tx Tx) bool {
			tx.Items = tx.Items.Clone()
			rows = append(rows, tx)
			return true
		})
		sort.Slice(rows, func(i, j int) bool { return rows[i].ID < rows[j].ID })
		cr := csv.NewReader(bytes.NewReader(data))
		cr.FieldsPerRecord = 2
		cr.TrimLeadingSpace = true
		fresh := map[string]bool{}
		for line, k := 1, 0; k < n; line++ {
			rec, err := cr.Read()
			if err != nil {
				t.Fatalf("row %d was stored, but record %d does not read: %v", k, line, err)
			}
			if line == 1 && strings.EqualFold(strings.TrimSpace(rec[0]), "timestamp") {
				continue
			}
			at, err := parseCSVTime(rec[0])
			if err != nil {
				t.Fatalf("row %d was stored from an unparsable timestamp %q", k, rec[0])
			}
			if err := CheckTime(at); err != nil || !rows[k].At.Equal(at) {
				t.Fatalf("row %d: stored %v for %q (CheckTime: %v)", k, rows[k].At, rec[0], err)
			}
			if len(rows[k].Items) == 0 {
				t.Fatalf("row %d was stored with no items", k)
			}
			for _, name := range strings.Split(rec[1], ";") {
				if name = strings.TrimSpace(name); name != "" && name != "bread" {
					fresh[name] = true
				}
			}
			k++
		}
		if grew := dict.Len() - before; grew != len(fresh) {
			t.Fatalf("dictionary grew by %d names, the stored rows name %d new ones", grew, len(fresh))
		}
	})
}

// TestImportBasketsCommitsOnce: an import is one batch, so on a durable
// table at FsyncAlways it costs one fsync whatever its size, and every
// row it reports stored survives a kill with no checkpoint.
func TestImportBasketsCommitsOnce(t *testing.T) {
	const k = 240
	dir := t.TempDir()
	reg := obs.NewRegistry()
	db, err := OpenDurable(dir, Durability{Fsync: FsyncAlways, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := db.CreateTxTable("baskets")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("timestamp,items\n")
	for i := 0; i < k; i++ {
		fmt.Fprintf(&sb, "%s,item%d;item%d\n", durAt(i/24, i%24).Format("2006-01-02 15:04:05"), i%7, 7+i%5)
	}
	fsyncs := reg.Counter(MetricWALFsyncs)
	before := fsyncs.Value()
	n, err := ImportBaskets(strings.NewReader(sb.String()), tbl, db.Dict())
	if err != nil || n != k {
		t.Fatalf("ImportBaskets = %d, %v; want %d, nil", n, err, k)
	}
	if got := fsyncs.Value() - before; got != 1 {
		t.Errorf("importing %d rows cost %d fsyncs, want 1", k, got)
	}
	want := collectTxs(tbl)
	db.Kill()

	db2 := durOpen(t, dir, FsyncAlways)
	defer db2.Kill()
	tbl2, ok := db2.TxTable("baskets")
	if !ok {
		t.Fatal("table lost across kill")
	}
	sameTxs(t, "recovered import", collectTxs(tbl2), want)
}
