package tdb

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/tarm-project/tarm/internal/itemset"
)

func TestTableSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tbl, _ := NewTable("sales", salesSchema(t))
	at := time.Date(2024, 3, 4, 5, 6, 7, 0, time.UTC)
	rows := []Row{
		{Int(1), Float(9.5), Str("bread"), Time(at)},
		{Int(2), Null(), Str("milk ' quoted"), Time(at)},
		{Null(), Float(-2.25), Str(""), Null()},
	}
	for _, r := range rows {
		if err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, "sales.rel")
	if err := SaveTable(tbl, path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTable(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != "sales" || got.Len() != 3 {
		t.Fatalf("loaded %q with %d rows", got.Name(), got.Len())
	}
	for i := range rows {
		gr, _ := got.Row(i)
		for c := range rows[i] {
			want := rows[i][c]
			// int into float column widens on insert.
			if want.K == KindInt && got.Schema().Cols[c].Kind == KindFloat {
				want = Float(float64(want.AsInt()))
			}
			if want.IsNull() != gr[c].IsNull() || (!want.IsNull() && !gr[c].Equal(want)) {
				t.Errorf("row %d col %d = %v, want %v", i, c, gr[c], want)
			}
		}
	}
}

func TestDictSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	dict := itemset.NewDict()
	names := []string{"bread", "milk", "butter"}
	for _, n := range names {
		dict.Intern(n)
	}
	path := filepath.Join(dir, "items.dict")
	if err := SaveDict(dict, path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDict(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range names {
		if got.MustName(itemset.Item(i)) != n {
			t.Errorf("id %d = %q, want %q", i, got.MustName(itemset.Item(i)), n)
		}
	}
}

// corrupt flips one byte in the middle of the file.
func corrupt(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// truncate cuts the file roughly in half.
func truncate(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLoadDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	tbl, _ := NewTable("sales", salesSchema(t))
	for i := 0; i < 50; i++ {
		tbl.Insert(Row{Int(int64(i)), Float(1), Str("x"), Time(time.Now())})
	}
	path := filepath.Join(dir, "sales.rel")
	if err := SaveTable(tbl, path); err != nil {
		t.Fatal(err)
	}

	corrupt(t, path)
	if _, err := LoadTable(path); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("corrupt table load: %v", err)
	}

	if err := SaveTable(tbl, path); err != nil {
		t.Fatal(err)
	}
	truncate(t, path)
	if _, err := LoadTable(path); err == nil {
		t.Error("truncated table loaded")
	}

	// Wrong magic: a dictionary file loaded as a table.
	dictPath := filepath.Join(dir, dictFile)
	if err := SaveDict(itemset.NewDict(), dictPath); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTable(dictPath); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("wrong-magic load: %v", err)
	}

	if _, err := LoadTable(filepath.Join(dir, "missing.rel")); err == nil {
		t.Error("missing file loaded")
	}
}

func TestDBOpenCloseReload(t *testing.T) {
	dir := t.TempDir()
	db := durOpen(t, dir, FsyncOff)
	schema := salesSchema(t)
	tbl, err := db.CreateTable("sales", schema)
	if err != nil {
		t.Fatal(err)
	}
	tbl.Insert(Row{Int(1), Float(2), Str("bread"), Time(time.Now())})

	txt, err := db.CreateTxTable("baskets")
	if err != nil {
		t.Fatal(err)
	}
	db.Dict().Intern("bread")
	db.Dict().Intern("milk")
	txt.Append(time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC), itemset.New(0, 1))

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := durOpen(t, dir, FsyncOff)
	defer db2.Kill()
	if got := db2.Names(); len(got) != 2 {
		t.Fatalf("reloaded names = %v", got)
	}
	if _, ok := db2.Table("SALES"); !ok {
		t.Error("case-insensitive lookup failed")
	}
	if _, ok := db2.TxTable("baskets"); !ok {
		t.Error("tx table missing after reload")
	}
	if !db2.IsTxTable("baskets") || db2.IsTxTable("sales") {
		t.Error("IsTxTable misclassifies")
	}
	if db2.Dict().Len() != 2 {
		t.Errorf("dict len = %d", db2.Dict().Len())
	}
}

func TestDBCreateConflictsAndDrop(t *testing.T) {
	db := NewMemDB()
	schema := salesSchema(t)
	if _, err := db.CreateTable("t", schema); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("T", schema); err == nil {
		t.Error("duplicate table accepted")
	}
	if _, err := db.CreateTxTable("t"); err == nil {
		t.Error("tx table with clashing name accepted")
	}
	if _, err := db.CreateTable("bad name", schema); err == nil {
		t.Error("table name with space accepted")
	}
	if _, err := db.CreateTxTable(""); err == nil {
		t.Error("empty tx table name accepted")
	}
	dropped, err := db.Drop("t")
	if err != nil || !dropped {
		t.Errorf("Drop = %v,%v", dropped, err)
	}
	dropped, _ = db.Drop("t")
	if dropped {
		t.Error("double drop reported success")
	}
	if _, err := db.Checkpoint(); err == nil {
		t.Error("Checkpoint on memory DB succeeded")
	}
}

// A checkpoint file that fails its checksum aborts the open instead of
// silently dropping the table it held.
func TestDBOpenRejectsCorruptFiles(t *testing.T) {
	segFile := segFileName(segIndex(durAt(0, 9)))
	for _, file := range []string{"sales.rel", dictFile, filepath.Join("baskets"+segDirSuffix, segFile)} {
		t.Run(filepath.Base(file), func(t *testing.T) {
			dir := t.TempDir()
			db := durOpen(t, dir, FsyncOff)
			tbl, _ := db.CreateTable("sales", salesSchema(t))
			for i := 0; i < 20; i++ {
				tbl.Insert(Row{Int(int64(i)), Float(1), Str("x"), Time(time.Now())})
			}
			txt, _ := db.CreateTxTable("baskets")
			for i := 0; i < 20; i++ {
				txt.Append(durAt(0, 9), db.Dict().InternAll("bread", fmt.Sprintf("item%02d", i)))
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			corrupt(t, filepath.Join(dir, file))
			if db2, err := OpenDurable(dir, Durability{Fsync: FsyncOff}); err == nil {
				db2.Kill()
				t.Errorf("OpenDurable accepted a corrupt %s", file)
			}
		})
	}
}
