package tdb

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/timegran"
)

// buildSeasonTable spans three months of daily transactions.
func buildSeasonTable(t *testing.T, days int) *TxTable {
	t.Helper()
	tbl, err := NewTxTable("season")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2024, 1, 1, 8, 0, 0, 0, time.UTC)
	for d := 0; d < days; d++ {
		at := start.AddDate(0, 0, d)
		for i := 0; i < 3; i++ {
			tbl.Append(at.Add(time.Duration(i)*time.Minute), itemset.New(itemset.Item(d%5), itemset.Item(5+i)))
		}
	}
	return tbl
}

func sameTxTables(t *testing.T, a, b *TxTable) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("lengths %d vs %d", a.Len(), b.Len())
	}
	var at, bt []Tx
	a.Each(func(tx Tx) bool { tx.Items = tx.Items.Clone(); at = append(at, tx); return true })
	b.Each(func(tx Tx) bool { tx.Items = tx.Items.Clone(); bt = append(bt, tx); return true })
	for i := range at {
		if at[i].ID != bt[i].ID || !at[i].At.Equal(bt[i].At) || !at[i].Items.Equal(bt[i].Items) {
			t.Fatalf("tx %d: %+v vs %+v", i, at[i], bt[i])
		}
	}
}

func TestSegmentedRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "segs")
	tbl := buildSeasonTable(t, 90) // Jan, Feb, Mar (and a bit of Mar 31)
	stats, err := SaveTxTableSegmented(tbl, dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Written == 0 || stats.Skipped != 0 {
		t.Fatalf("first save stats = %+v", stats)
	}
	loaded, err := LoadTxTableSegmented(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Name() != "season" {
		t.Errorf("name = %q", loaded.Name())
	}
	sameTxTables(t, tbl, loaded)
	// IDs continue after reload.
	if id := loaded.Append(time.Now(), itemset.New(1)); id != int64(tbl.Len()) {
		t.Errorf("next id = %d, want %d", id, tbl.Len())
	}
}

func TestSegmentedIncrementalSave(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "segs")
	tbl := buildSeasonTable(t, 60) // Jan + Feb: 32-day segments from Dec 21, Jan 22 and Feb 23
	if _, err := SaveTxTableSegmented(tbl, dir); err != nil {
		t.Fatal(err)
	}
	// Append March, which lands in the last segment: only it is
	// written, the two before it skipped.
	start := time.Date(2024, 3, 1, 8, 0, 0, 0, time.UTC)
	for d := 0; d < 20; d++ {
		tbl.Append(start.AddDate(0, 0, d), itemset.New(1, 2))
	}
	stats, err := SaveTxTableSegmented(tbl, dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Written != 1 || stats.Skipped != 2 {
		t.Fatalf("incremental save stats = %+v, want 1 written, 2 skipped", stats)
	}
	loaded, err := LoadTxTableSegmented(dir)
	if err != nil {
		t.Fatal(err)
	}
	sameTxTables(t, tbl, loaded)

	// Appending into an earlier segment rewrites that segment.
	tbl.Append(time.Date(2024, 2, 15, 0, 0, 0, 0, time.UTC), itemset.New(3))
	stats, err = SaveTxTableSegmented(tbl, dir)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Written != 1 || stats.Skipped != 2 {
		t.Fatalf("mid-history save stats = %+v", stats)
	}
	loaded, err = LoadTxTableSegmented(dir)
	if err != nil {
		t.Fatal(err)
	}
	sameTxTables(t, tbl, loaded)
}

func TestSegmentedConfigMismatch(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "segs")
	tbl := buildSeasonTable(t, 40)
	if _, err := SaveTxTableSegmented(tbl, dir); err != nil {
		t.Fatal(err)
	}
	// A directory whose manifest records another grid is refused.
	m, err := loadManifest(filepath.Join(dir, manifestFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := writeManifest(filepath.Join(dir, manifestFile), m.table, m.nextID, timegran.Week, 2, m.counts); err != nil {
		t.Fatal(err)
	}
	if _, err := SaveTxTableSegmented(tbl, dir); err == nil {
		t.Error("config mismatch accepted")
	}
}

func TestSegmentedDetectsCorruption(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "segs")
	tbl := buildSeasonTable(t, 60)
	if _, err := SaveTxTableSegmented(tbl, dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segPath string
	for _, ent := range entries {
		if filepath.Ext(ent.Name()) == ".seg" {
			segPath = filepath.Join(dir, ent.Name())
			break
		}
	}
	corrupt(t, segPath)
	if _, err := LoadTxTableSegmented(dir); err == nil {
		t.Error("corrupt segment loaded")
	}
	// Missing segment referenced by the manifest.
	if err := os.Remove(segPath); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTxTableSegmented(dir); err == nil {
		t.Error("missing segment tolerated")
	}
	// Missing manifest.
	if _, err := LoadTxTableSegmented(t.TempDir()); err == nil {
		t.Error("missing manifest tolerated")
	}
}

func TestSegmentedPreEpochData(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "segs")
	tbl, _ := NewTxTable("old")
	tbl.Append(time.Date(1969, 6, 1, 0, 0, 0, 0, time.UTC), itemset.New(1))
	tbl.Append(time.Date(1970, 2, 1, 0, 0, 0, 0, time.UTC), itemset.New(2))
	if _, err := SaveTxTableSegmented(tbl, dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTxTableSegmented(dir)
	if err != nil {
		t.Fatal(err)
	}
	sameTxTables(t, tbl, loaded)
}
