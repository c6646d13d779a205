package tdb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"github.com/tarm-project/tarm/internal/itemset"
)

func durOpen(t *testing.T, dir string, pol FsyncPolicy) *DB {
	t.Helper()
	db, err := OpenDurable(dir, Durability{Fsync: pol})
	if err != nil {
		t.Fatalf("OpenDurable(%s): %v", dir, err)
	}
	return db
}

func durAt(day, hour int) time.Time {
	return time.Date(2024, 3, 1, hour, 0, 0, 0, time.UTC).AddDate(0, 0, day)
}

func collectTxs(t *TxTable) []Tx {
	var out []Tx
	t.Each(func(tx Tx) bool {
		tx.Items = tx.Items.Clone()
		out = append(out, tx)
		return true
	})
	return out
}

func sameTxs(t *testing.T, tag string, got, want []Tx) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d transactions, want %d", tag, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID || !got[i].At.Equal(want[i].At) || got[i].Items.Key() != want[i].Items.Key() {
			t.Fatalf("%s: tx %d = {%d %v %v}, want {%d %v %v}",
				tag, i, got[i].ID, got[i].At, got[i].Items, want[i].ID, want[i].At, want[i].Items)
		}
	}
}

// Acked appends must survive a kill (no checkpoint) under every fsync
// policy. always/off write through, so the kill can strike anywhere;
// interval buffers in user space, so the test pins the kill to a legal
// crash point just after a flush (SyncWAL) — inside the flush window
// the policy is allowed to lose the buffered tail.
func TestDurableKillRecover(t *testing.T) {
	for _, pol := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncOff} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			db := durOpen(t, dir, pol)
			tbl, err := db.CreateTxTable("baskets")
			if err != nil {
				t.Fatal(err)
			}
			tbl.Append(durAt(0, 9), itemset.New(1, 2))
			tbl.AppendBatch([]Tx{
				{At: durAt(0, 10), Items: itemset.New(2, 3)},
				{At: durAt(1, 11), Items: itemset.New(1, 3, 5)},
			})
			if _, _, err := tbl.AppendBatchDurable([]Tx{{At: durAt(2, 8), Items: itemset.New(7)}}); err != nil {
				t.Fatalf("AppendBatchDurable: %v", err)
			}
			want := collectTxs(tbl)
			if pol == FsyncInterval {
				if err := db.SyncWAL(); err != nil {
					t.Fatalf("SyncWAL: %v", err)
				}
			}
			db.Kill()

			db2 := durOpen(t, dir, pol)
			tbl2, ok := db2.TxTable("baskets")
			if !ok {
				t.Fatal("table lost across kill: create record not replayed")
			}
			sameTxs(t, "recovered", collectTxs(tbl2), want)
			rec := db2.Recovery()
			if rec.AppendedTx != 4 {
				t.Fatalf("Recovery().AppendedTx = %d, want 4", rec.AppendedTx)
			}
			if rec.TornBytes != 0 {
				t.Fatalf("clean kill left %d torn bytes", rec.TornBytes)
			}
			db2.Kill()
		})
	}
}

// A checkpoint truncates the WAL and writes the segment dir; the
// reopened database replays nothing.
func TestDurableCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	db := durOpen(t, dir, FsyncOff)
	tbl, _ := db.CreateTxTable("baskets")
	for i := 0; i < 50; i++ {
		tbl.Append(durAt(i/10, 9), itemset.New(itemset.Item(i%7), 99))
	}
	st, err := db.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if st.SegmentsWritten == 0 || st.Tables != 1 {
		t.Fatalf("CheckpointStats = %+v, want segments written for 1 table", st)
	}
	if st.WALTruncated == 0 {
		t.Fatalf("checkpoint truncated no WAL bytes; log was not emptied")
	}
	if fi, err := os.Stat(filepath.Join(dir, walFile)); err != nil || fi.Size() != walHdrSize {
		t.Fatalf("post-checkpoint WAL size = %v (err %v), want bare header", fi.Size(), err)
	}
	if _, err := os.Stat(filepath.Join(dir, "baskets"+segDirSuffix)); err != nil {
		t.Fatalf("checkpoint wrote no segment dir: %v", err)
	}
	want := collectTxs(tbl)
	db.Kill()

	db2 := durOpen(t, dir, FsyncOff)
	if rec := db2.Recovery(); rec.Records != 0 || rec.AppendedTx != 0 {
		t.Fatalf("post-checkpoint reopen replayed %+v, want nothing", rec)
	}
	tbl2, _ := db2.TxTable("baskets")
	sameTxs(t, "checkpointed", collectTxs(tbl2), want)
	db2.Kill()
}

// Close = checkpoint + release: a clean shutdown leaves nothing to
// replay, and appends after reopen continue the ID sequence.
func TestDurableCloseThenReopen(t *testing.T) {
	dir := t.TempDir()
	db := durOpen(t, dir, FsyncInterval)
	tbl, _ := db.CreateTxTable("baskets")
	tbl.Append(durAt(0, 9), itemset.New(1))
	tbl.Append(durAt(0, 10), itemset.New(2))
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	db2 := durOpen(t, dir, FsyncInterval)
	if rec := db2.Recovery(); rec.Records != 0 {
		t.Fatalf("clean close still replayed %+v", rec)
	}
	tbl2, _ := db2.TxTable("baskets")
	if id := tbl2.Append(durAt(1, 9), itemset.New(3)); id != 2 {
		t.Fatalf("post-reopen append got ID %d, want 2", id)
	}
	if err := db2.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// The whole-file <table>.txn format has no reader. Alone (or beside a
// segment directory whose manifest never landed) the file is a table
// the engine cannot load, so the open is refused by name — never a
// silently missing table. Beside its loaded segment directory it is a
// leftover: the open succeeds and the next checkpoint removes it.
func TestDurableWholeFileTxn(t *testing.T) {
	segd := "baskets" + segDirSuffix
	cases := []struct {
		name    string
		arrange func(t *testing.T, dir string) // what sits beside baskets.txn
		refused bool
	}{
		{"alone", func(*testing.T, string) {}, true},
		{"beside-manifestless-segd", func(t *testing.T, dir string) {
			if err := os.Mkdir(filepath.Join(dir, segd), 0o755); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"beside-segd", func(t *testing.T, dir string) {
			db := durOpen(t, dir, FsyncOff)
			tbl, _ := db.CreateTxTable("Baskets")
			tbl.Append(durAt(0, 9), itemset.New(1, 2))
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			c.arrange(t, dir)
			txn := filepath.Join(dir, "baskets"+extTx)
			if err := os.WriteFile(txn, []byte("TDBX whole-file table"), 0o644); err != nil {
				t.Fatal(err)
			}
			db, err := OpenDurable(dir, Durability{Fsync: FsyncOff})
			if c.refused {
				if err == nil {
					db.Kill()
					t.Fatal("directory with an unreadable .txn table opened")
				}
				if !strings.Contains(err.Error(), "baskets"+extTx) {
					t.Fatalf("refusal does not name the file: %v", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("open with a superseded .txn: %v", err)
			}
			defer db.Kill()
			if tbl, ok := db.TxTable("baskets"); !ok || tbl.Len() != 1 {
				t.Fatalf("segmented table not loaded (ok=%v)", ok)
			}
			if _, err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(txn); !os.IsNotExist(err) {
				t.Fatalf("checkpoint left the .txn behind (err %v)", err)
			}
		})
	}
}

// A crash inside a table's first checkpoint leaves <table>.segd without
// a manifest (it is written last). Every record is still in the WAL, so
// the open must skip the directory, not refuse the database, and the
// next checkpoint must rewrite it whole.
func TestDurableInterruptedFirstCheckpoint(t *testing.T) {
	// build returns a killed directory holding one table that spans two
	// segments, all of it in the WAL, and the table's contents.
	build := func(t *testing.T) (string, []Tx) {
		dir := t.TempDir()
		db := durOpen(t, dir, FsyncOff)
		tbl, _ := db.CreateTxTable("baskets")
		for i := 0; i < 40; i++ {
			tbl.Append(durAt(i, 9), itemset.New(itemset.Item(i%7), 99))
		}
		db.Kill()
		return dir, collectTxs(tbl)
	}
	cases := []struct {
		name     string
		segments int // the table's segment count under the default grid
		setup    func(t *testing.T) (string, []Tx)
	}{
		{"empty-dir", 2, func(t *testing.T) (string, []Tx) {
			dir, want := build(t)
			if err := os.Mkdir(filepath.Join(dir, "baskets"+segDirSuffix), 0o755); err != nil {
				t.Fatal(err)
			}
			return dir, want
		}},
		{"segments-no-manifest", 2, func(t *testing.T) (string, []Tx) {
			dir, want := build(t)
			// The first of the two segments made it out, then the crash.
			src, _ := NewTxTable("baskets")
			src.AppendBatch(want)
			segd := filepath.Join(dir, "baskets"+segDirSuffix)
			if _, err := SaveTxTableSegmented(src, segd); err != nil {
				t.Fatal(err)
			}
			for _, f := range []string{manifestFile, segFileName(segIndex(want[len(want)-1].At))} {
				if err := os.Remove(filepath.Join(segd, f)); err != nil {
					t.Fatal(err)
				}
			}
			return dir, want
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir, want := c.setup(t)
			db, err := OpenDurable(dir, Durability{Fsync: FsyncOff})
			if err != nil {
				t.Fatalf("open after interrupted first checkpoint: %v", err)
			}
			tbl, ok := db.TxTable("baskets")
			if !ok {
				t.Fatal("table lost")
			}
			sameTxs(t, "recovered", collectTxs(tbl), want)
			st, err := db.Checkpoint()
			if err != nil {
				t.Fatalf("checkpoint over the half-written directory: %v", err)
			}
			if st.SegmentsWritten != c.segments || st.SegmentsSkipped != 0 {
				t.Fatalf("checkpoint wrote %d and skipped %d segments, want all %d rewritten", st.SegmentsWritten, st.SegmentsSkipped, c.segments)
			}
			db.Kill()

			db2 := durOpen(t, dir, FsyncOff)
			defer db2.Kill()
			if rec := db2.Recovery(); rec.Records != 0 {
				t.Fatalf("reopen after the checkpoint replayed %+v, want nothing", rec)
			}
			tbl2, _ := db2.TxTable("baskets")
			sameTxs(t, "checkpointed", collectTxs(tbl2), want)
			if st, err := db2.Checkpoint(); err != nil || st.SegmentsWritten != 0 {
				t.Fatalf("second checkpoint = %+v, %v; want nothing to write", st, err)
			}
		})
	}
}

// Fault injection: a write torn mid-record recovers to the longest
// valid prefix and the table keeps working afterwards.
func TestDurableTornTail(t *testing.T) {
	dir := t.TempDir()
	db := durOpen(t, dir, FsyncOff)
	tbl, _ := db.CreateTxTable("baskets")
	for i := 0; i < 5; i++ {
		tbl.Append(durAt(i, 9), itemset.New(itemset.Item(i), 50))
	}
	want := collectTxs(tbl)
	db.Kill()

	path := filepath.Join(dir, walFile)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	db2 := durOpen(t, dir, FsyncOff)
	tbl2, _ := db2.TxTable("baskets")
	got := collectTxs(tbl2)
	sameTxs(t, "torn", got, want[:4])
	if rec := db2.Recovery(); rec.TornBytes == 0 {
		t.Fatalf("Recovery() reports no torn bytes after truncation: %+v", rec)
	}
	// The invalid tail was truncated away: new appends extend the valid
	// prefix and survive the next recovery.
	tbl2.Append(durAt(9, 9), itemset.New(42))
	db2.Kill()
	db3 := durOpen(t, dir, FsyncOff)
	tbl3, _ := db3.TxTable("baskets")
	if n := tbl3.Len(); n != 5 {
		t.Fatalf("after torn recovery + append + kill: %d txs, want 5", n)
	}
	db3.Kill()
}

// Fault injection: a bit flip in the record region fails that record's
// CRC and ends the valid prefix there.
func TestDurableBitFlip(t *testing.T) {
	dir := t.TempDir()
	db := durOpen(t, dir, FsyncOff)
	tbl, _ := db.CreateTxTable("baskets")
	for i := 0; i < 5; i++ {
		tbl.Append(durAt(i, 9), itemset.New(itemset.Item(i), 50))
	}
	want := collectTxs(tbl)
	db.Kill()

	path := filepath.Join(dir, walFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0x40 // inside the final record's payload
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	db2 := durOpen(t, dir, FsyncOff)
	tbl2, _ := db2.TxTable("baskets")
	sameTxs(t, "bitflip", collectTxs(tbl2), want[:4])
	db2.Kill()
}

// Fault injection: a duplicated tail (the same records appended twice,
// as a misdirected retry or block-level duplication would leave) is
// absorbed by ID-watermark idempotence, not double-applied.
func TestDurableDuplicateTail(t *testing.T) {
	dir := t.TempDir()
	db := durOpen(t, dir, FsyncOff)
	tbl, _ := db.CreateTxTable("baskets")
	tbl.Append(durAt(0, 9), itemset.New(3, 4))
	tbl.Append(durAt(1, 9), itemset.New(4, 5))
	want := collectTxs(tbl)
	db.Kill()

	path := filepath.Join(dir, walFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dup := append(raw, raw[walHdrSize:]...)
	if err := os.WriteFile(path, dup, 0o644); err != nil {
		t.Fatal(err)
	}

	db2 := durOpen(t, dir, FsyncOff)
	tbl2, _ := db2.TxTable("baskets")
	sameTxs(t, "dup", collectTxs(tbl2), want)
	if rec := db2.Recovery(); rec.SkippedTx != 2 {
		t.Fatalf("Recovery().SkippedTx = %d, want 2 (the duplicated appends)", rec.SkippedTx)
	}
	db2.Kill()
}

// Fault injection: an empty WAL (bare header) and a torn header (too
// short to hold one) both open cleanly.
func TestDurableEmptyAndTornHeader(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		dir := t.TempDir()
		durOpen(t, dir, FsyncOff).Kill() // leaves a bare-header WAL
		db := durOpen(t, dir, FsyncOff)
		if rec := db.Recovery(); rec.Records != 0 || rec.TornBytes != 0 {
			t.Fatalf("empty WAL replayed %+v", rec)
		}
		db.Kill()
	})
	t.Run("torn-header", func(t *testing.T) {
		dir := t.TempDir()
		durOpen(t, dir, FsyncOff).Kill()
		if err := os.Truncate(filepath.Join(dir, walFile), walHdrSize-7); err != nil {
			t.Fatal(err)
		}
		db := durOpen(t, dir, FsyncOff)
		if rec := db.Recovery(); rec.Records != 0 || rec.TornBytes != walHdrSize-7 {
			t.Fatalf("torn header: recovery = %+v, want %d torn bytes", rec, walHdrSize-7)
		}
		// The engine recreated a usable log.
		tbl, _ := db.CreateTxTable("baskets")
		tbl.Append(durAt(0, 9), itemset.New(1))
		db.Kill()
		db2 := durOpen(t, dir, FsyncOff)
		if tbl2, ok := db2.TxTable("baskets"); !ok || tbl2.Len() != 1 {
			t.Fatal("append after torn-header recovery lost")
		}
		db2.Kill()
	})
}

// Fault injection: a WAL whose epoch predates the checkpoint manifest
// (crash between manifest write and WAL reset) is discarded — its
// contents are already inside the checkpoint.
func TestDurableStaleEpochWAL(t *testing.T) {
	dir := t.TempDir()
	db := durOpen(t, dir, FsyncOff)
	tbl, _ := db.CreateTxTable("baskets")
	tbl.Append(durAt(0, 9), itemset.New(1, 2))
	tbl.Append(durAt(1, 9), itemset.New(2, 3))
	want := collectTxs(tbl)

	// Stash the epoch-0 WAL, checkpoint (manifest moves to epoch 1, WAL
	// resets), then put the stale WAL back: exactly the state a crash
	// after the manifest rename but before the WAL reset leaves.
	path := filepath.Join(dir, walFile)
	stale, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Kill()
	if err := os.WriteFile(path, stale, 0o644); err != nil {
		t.Fatal(err)
	}

	db2 := durOpen(t, dir, FsyncOff)
	if rec := db2.Recovery(); rec.Records != 0 {
		t.Fatalf("stale-epoch WAL was replayed: %+v", rec)
	}
	tbl2, _ := db2.TxTable("baskets")
	sameTxs(t, "stale", collectTxs(tbl2), want)
	db2.Kill()
}

// Create and drop are WAL-logged: a table created, filled and dropped
// between checkpoints stays dropped after recovery, and a same-named
// successor keeps only its own data.
func TestDurableCreateDropReplay(t *testing.T) {
	dir := t.TempDir()
	db := durOpen(t, dir, FsyncOff)
	tbl, _ := db.CreateTxTable("scratch")
	tbl.Append(durAt(0, 9), itemset.New(1))
	if dropped, err := db.Drop("scratch"); !dropped || err != nil {
		t.Fatalf("Drop = %v, %v", dropped, err)
	}
	tbl2, err := db.CreateTxTable("scratch")
	if err != nil {
		t.Fatal(err)
	}
	tbl2.Append(durAt(5, 9), itemset.New(9))
	db.Kill()

	db2 := durOpen(t, dir, FsyncOff)
	got, ok := db2.TxTable("scratch")
	if !ok {
		t.Fatal("recreated table lost")
	}
	txs := collectTxs(got)
	if len(txs) != 1 || txs[0].Items.Key() != itemset.New(9).Key() {
		t.Fatalf("recreated table holds %v, want only the post-recreate append", txs)
	}
	db2.Kill()
}

// Dictionary growth is WAL-logged in intern order, so recovery
// reproduces the exact name↔id mapping without a dict file flush.
func TestDurableDictReplay(t *testing.T) {
	dir := t.TempDir()
	db := durOpen(t, dir, FsyncOff)
	tbl, _ := db.CreateTxTable("baskets")
	a := db.Dict().Intern("ale")
	b := db.Dict().Intern("bread")
	tbl.Append(durAt(0, 9), itemset.New(a, b))
	c := db.Dict().Intern("cheese")
	tbl.Append(durAt(1, 9), itemset.New(b, c))
	db.Kill()

	db2 := durOpen(t, dir, FsyncOff)
	for _, want := range []struct {
		name string
		id   itemset.Item
	}{{"ale", a}, {"bread", b}, {"cheese", c}} {
		got, ok := db2.Dict().Lookup(want.name)
		if !ok || got != want.id {
			t.Fatalf("dict after recovery: %q = %d (ok %v), want %d", want.name, got, ok, want.id)
		}
	}
	db2.Kill()
}

// Concurrent appenders with checkpoints firing mid-traffic: every
// acked append must be present after a kill + recovery, exactly once.
func TestDurableConcurrentAppendCheckpointRecover(t *testing.T) {
	dir := t.TempDir()
	db := durOpen(t, dir, FsyncOff)
	tbl, _ := db.CreateTxTable("baskets")

	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if i%3 == 0 {
					tbl.Append(durAt(i%28, w%24), itemset.New(itemset.Item(w), itemset.Item(100+i%11)))
				} else {
					tbl.AppendBatch([]Tx{
						{At: durAt(i%28, w%24), Items: itemset.New(itemset.Item(w), 200)},
						{At: durAt((i+1)%28, w%24), Items: itemset.New(itemset.Item(w), 201)},
					})
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if _, err := db.Checkpoint(); err != nil {
				t.Errorf("checkpoint under traffic: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	wantLen := tbl.Len()
	db.Kill()

	db2 := durOpen(t, dir, FsyncOff)
	tbl2, _ := db2.TxTable("baskets")
	if got := tbl2.Len(); got != wantLen {
		t.Fatalf("recovered %d txs, want %d", got, wantLen)
	}
	// IDs are unique and dense: no append applied twice or lost.
	seen := make(map[int64]bool, wantLen)
	tbl2.Each(func(tx Tx) bool {
		if seen[tx.ID] {
			t.Errorf("duplicate tx ID %d after recovery", tx.ID)
			return false
		}
		seen[tx.ID] = true
		return true
	})
	for id := int64(0); id < int64(wantLen); id++ {
		if !seen[id] {
			t.Fatalf("tx ID %d missing after recovery", id)
		}
	}
	db2.Kill()
}

// Checkpoints pick the segment writer's incremental path: an append-only
// table rewrites the touched tail segment, not the whole history.
func TestDurableCheckpointIncremental(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDurable(dir, Durability{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.CreateTxTable("baskets")
	days := 4 * segmentWidth // at least four segments
	for day := 0; day < days; day++ {
		tbl.Append(durAt(day, 9), itemset.New(itemset.Item(day%5)))
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tbl.Append(durAt(days-1, 15), itemset.New(7)) // touches only the last segment
	st, err := db.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if st.SegmentsWritten != 1 || st.SegmentsSkipped < 3 {
		t.Fatalf("incremental checkpoint wrote %d / skipped %d segments, want 1 written, ≥3 skipped", st.SegmentsWritten, st.SegmentsSkipped)
	}
	db.Kill()
}

// TestDurableCheckpointCutBeforeManifest: a checkpoint that rewrote
// segments and crashed before writing the manifest leaves segments
// longer than their manifest counts, while the WAL still holds every
// row appended since the last checkpoint. The open drops the segments'
// rows from the manifest's next ID on and replays them from the WAL:
// the table exports exactly as an uninterrupted twin's does, and a
// checkpoint after it writes a directory that reopens the same.
func TestDurableCheckpointCutBeforeManifest(t *testing.T) {
	// run appends a table over several segments, checkpoints it, then
	// appends into the last and — a late row — into the first, and kills
	// the database, after rewriting every segment from the table when
	// cut.
	run := func(t *testing.T, cut bool) string {
		dir := t.TempDir()
		db := durOpen(t, dir, FsyncOff)
		tbl, err := db.CreateTxTable("baskets")
		if err != nil {
			t.Fatal(err)
		}
		items := func(i int) itemset.Set {
			return itemset.New(db.Dict().Intern(fmt.Sprintf("item%d", i%7)), db.Dict().Intern("milk"))
		}
		days := 2 * segmentWidth
		for d := 0; d < days; d++ {
			tbl.Append(durAt(d, 9), items(d))
		}
		if _, err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		tbl.Append(durAt(3, 15), items(100)) // late: into the first segment
		for d := days - 4; d < days; d++ {
			tbl.Append(durAt(d, 18), items(d+1))
		}
		if cut {
			segd := filepath.Join(dir, "baskets"+segDirSuffix)
			if err := tbl.eachSegment(func(idx int64, lo, hi int) error {
				return writeSegment(filepath.Join(segd, segFileName(idx)), idx, tbl, lo, hi)
			}); err != nil {
				t.Fatal(err)
			}
		}
		db.Kill()
		return dir
	}
	export := func(t *testing.T, dir string) string {
		t.Helper()
		db, err := OpenDurable(dir, Durability{Fsync: FsyncOff})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer db.Kill()
		tbl, ok := db.TxTable("baskets")
		if !ok {
			t.Fatal("table lost")
		}
		var sb strings.Builder
		if err := ExportBaskets(&sb, tbl, db.Dict()); err != nil {
			t.Fatal(err)
		}
		if got := db.Recovery().AppendedTx; got != 5 {
			t.Errorf("replayed %d transactions, want the 5 appended after the checkpoint", got)
		}
		return sb.String()
	}
	want := export(t, run(t, false))
	dir := run(t, true)
	if got := export(t, dir); got != want {
		t.Fatalf("export after a checkpoint cut before its manifest:\n%s\nwant:\n%s", got, want)
	}
	db := durOpen(t, dir, FsyncOff)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after the recovery: %v", err)
	}
	db.Kill()
	db = durOpen(t, dir, FsyncOff)
	defer db.Kill()
	tbl, _ := db.TxTable("baskets")
	var sb strings.Builder
	if err := ExportBaskets(&sb, tbl, db.Dict()); err != nil {
		t.Fatal(err)
	}
	if sb.String() != want {
		t.Fatalf("export after the next checkpoint:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for in, want := range map[string]FsyncPolicy{
		"always": FsyncAlways, "ALWAYS": FsyncAlways,
		"interval": FsyncInterval, " off ": FsyncOff, "none": FsyncOff,
	} {
		got, err := ParseFsyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseFsyncPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("ParseFsyncPolicy accepted garbage")
	}
}

// encodeAppendRecord is the reference encoder of an append record in
// the fixedRows coding, which logs written before gapRows hold — the
// payload field by field through the store encoder, from a batch as
// the caller holds it. Nothing writes that coding any more; replay
// still reads it.
func encodeAppendRecord(table string, firstID int64, txs []Tx) []byte {
	e := &encoder{}
	e.u8(walRecAppend)
	e.str(table)
	e.i64(firstID)
	e.u32(uint32(len(txs)))
	for _, tx := range txs {
		e.i64(tx.At.UnixNano())
		e.u32(uint32(len(tx.Items)))
		for _, it := range tx.Items {
			e.u32(uint32(it))
		}
	}
	return e.buf.Bytes()
}

// encodeAppendRecordV2 is the reference encoder of an append record in
// the gapRows coding, field by field from the batch: each timestamp as
// a zig-zag varint delta from the one before (from zero for the first),
// then the item count and the items as gaps less one, each a uvarint.
func encodeAppendRecordV2(table string, firstID int64, txs []Tx) []byte {
	e := &encoder{}
	e.u8(walRecAppend)
	e.str(table)
	e.i64(firstID)
	e.u32(uint32(len(txs)))
	var prevAt int64
	for _, tx := range txs {
		at := tx.At.UnixNano()
		e.buf.Write(binary.AppendVarint(nil, at-prevAt))
		prevAt = at
		e.buf.Write(binary.AppendUvarint(nil, uint64(len(tx.Items))))
		for i, it := range tx.Items {
			gap := uint64(it)
			if i > 0 {
				gap -= uint64(tx.Items[i-1]) + 1
			}
			e.buf.Write(binary.AppendUvarint(nil, gap))
		}
	}
	return e.buf.Bytes()
}

// TestEncodeAppendFrameEquivalence pins the single-alloc hot-path
// framing, which reads the rows a batch became in the table, to the
// reference encode-then-frame pair over the batch itself, byte for
// byte: what is logged is what was appended, across an arena block
// boundary, with wide items, late rows and multi-byte gaps too. The
// frame is exactly as long as its bytes, and the split bound is never
// below a row's length.
func TestEncodeAppendFrameEquivalence(t *testing.T) {
	for _, txs := range [][]Tx{
		nil,
		{{At: durAt(0, 9), Items: itemset.New(1, 2, 3)}},
		{
			{At: durAt(1, 1), Items: itemset.New(7)},
			{At: durAt(2, 23), Items: itemset.New(1, 2, 3, 4, 5, 6)},
			{At: durAt(3, 0), Items: itemset.Set{}},
		},
		{
			{At: durAt(5, 1), Items: itemset.New(0, 127, 128, 16_511, 1<<16-1)},
			{At: durAt(4, 2), Items: itemset.New(3, 1<<16, 1<<21, 1<<32-1)},
			{At: time.Unix(0, math.MinInt64), Items: itemset.New(1<<32 - 1)},
			{At: time.Unix(0, math.MaxInt64), Items: itemset.New(9, 10, 11)},
			{At: durAt(4, 2), Items: itemset.New(2)},
		},
	} {
		tbl, err := newTxTable("baskets", 2)
		if err != nil {
			t.Fatal(err)
		}
		tbl.nextID = 41
		tbl.AppendBatch(txs)
		want := frameRecord(encodeAppendRecordV2("baskets", 41, txs))
		got := encodeAppendFrame(tbl, 41, 0, tbl.Len())
		if !bytes.Equal(got, want) {
			t.Fatalf("encodeAppendFrame diverges for %d txs:\n got %x\nwant %x", len(txs), got, want)
		}
		if len(got) != cap(got) {
			t.Fatalf("frame of %d bytes allocated %d", len(got), cap(got))
		}
		var prev row
		for i := range tbl.Len() {
			r := tbl.row(i)
			n := tbl.rowLen(r, prev, false)
			if bound := maxWALRowLen(tbl.itemCount(r)); n > bound {
				t.Fatalf("row %d codes in %d bytes, past its bound %d", i, n, bound)
			}
			prev = r
		}
	}
}

// FuzzWALDecode: arbitrary bytes must never panic the record scanner at
// either coding, the valid prefix must stay in bounds, and re-decoding
// exactly that prefix must be a fixed point.
func FuzzWALDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	seed := func(payloads ...[]byte) []byte {
		var out []byte
		for _, p := range payloads {
			out = append(out, frameRecord(p)...)
		}
		return out
	}
	f.Add(seed(encodeAppendRecord("baskets", 0, []Tx{{At: durAt(0, 9), Items: itemset.New(1, 2)}})))
	f.Add(seed(encodeAppendRecordV2("baskets", 0, []Tx{{At: durAt(0, 9), Items: itemset.New(1, 2)}})))
	f.Add(seed(encodeAppendRecordV2("baskets", 7, []Tx{
		{At: durAt(2, 9), Items: itemset.New(3, 300, 70_000)},
		{At: durAt(1, 0), Items: itemset.Set{}},
		{At: durAt(1, 0), Items: itemset.New(1<<32 - 1)},
	})))
	f.Add(seed(
		encodeDictRecord(0, []string{"ale", "bread"}),
		encodeCreateRecord("scratch"),
		encodeDropRecord("scratch"),
	))
	corrupt := seed(encodeAppendRecord("x", 3, []Tx{{At: durAt(1, 1), Items: itemset.New(4)}}))
	corrupt[len(corrupt)-1] ^= 0xFF
	f.Add(corrupt)
	corrupt = seed(encodeAppendRecordV2("x", 3, []Tx{{At: durAt(1, 1), Items: itemset.New(4, 5)}}))
	corrupt[len(corrupt)-1] ^= 0xFF
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, version := range []uint32{fixedRows, gapRows} {
			recs, valid := decodeWALRecords(data, version)
			if valid < 0 || valid > len(data) {
				t.Fatalf("v%d: valid offset %d out of range [0, %d]", version, valid, len(data))
			}
			recs2, valid2 := decodeWALRecords(data[:valid], version)
			if valid2 != valid || len(recs2) != len(recs) {
				t.Fatalf("v%d: re-decoding the valid prefix gave %d records / offset %d, want %d / %d",
					version, len(recs2), valid2, len(recs), valid)
			}
		}
	})
}

// A batch whose encoding exceeds the reader's maxWALRecord cap must be
// split across append records at write time: one oversized record would
// be acked as durable and then treated as corruption at recovery,
// silently discarding the batch and everything logged after it.
func TestDurableOversizedBatchSplitRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("writes and replays a >64MiB WAL")
	}
	dir := t.TempDir()
	db := durOpen(t, dir, FsyncOff)
	tbl, err := db.CreateTxTable("big")
	if err != nil {
		t.Fatal(err)
	}
	// 8600 transactions sharing one 2000-item set whose items lie 2²¹+1
	// apart: a gap codes the distance less one, 2²¹, in four bytes, so a
	// transaction takes ≈ 8 KB and the batch ≈ 66 MiB, past the 64 MiB
	// cap by its real coding and not only by maxWALRowLen's bound. The
	// set is shared in memory but encoded per tx.
	items := make([]itemset.Item, 2000)
	for i := range items {
		items[i] = itemset.Item(i * (1<<21 + 1))
	}
	set := itemset.Set(items)
	const nTx = 8600
	txs := make([]Tx, nTx)
	for i := range txs {
		txs[i] = Tx{At: durAt(i/24, i%24), Items: set}
	}
	if _, _, err := tbl.AppendBatchDurable(txs); err != nil {
		t.Fatalf("AppendBatchDurable: %v", err)
	}
	walPath := filepath.Join(dir, walFile)
	st, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() <= maxWALRecord {
		t.Fatalf("the batch logged %d bytes, not past the %d-byte cap it is meant to exceed", st.Size(), maxWALRecord)
	}
	// A marker append after the big batch: the old bug also discarded
	// every record following the oversized one.
	markerID := tbl.Append(durAt(400, 1), itemset.New(1, 2, 3))
	db.Kill()

	_, recs, _, torn, err := readWALFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if torn != 0 {
		t.Fatalf("WAL has %d torn bytes; the writer emitted a record the reader rejects", torn)
	}
	appends := 0
	for _, rec := range recs {
		if rec.typ == walRecAppend && (len(rec.txs) != 1 || rec.txs[0].ID != markerID) {
			appends++
		}
	}
	if appends < 2 {
		t.Fatalf("batch was written as %d append records, want >= 2 (split at the %d-byte cap)", appends, maxWALRecord)
	}

	db2 := durOpen(t, dir, FsyncOff)
	got, ok := db2.TxTable("big")
	if !ok {
		t.Fatal("table lost")
	}
	if got.Len() != nTx+1 {
		t.Fatalf("recovered %d transactions, want %d", got.Len(), nTx+1)
	}
	rec := collectTxs(got)
	for i := 0; i < nTx; i++ {
		if rec[i].ID != int64(i) || rec[i].Items.Len() != len(items) {
			t.Fatalf("tx %d recovered as {ID %d, %d items}, want {ID %d, %d items}",
				i, rec[i].ID, rec[i].Items.Len(), i, len(items))
		}
	}
	if last := rec[nTx]; last.ID != markerID || last.Items.Key() != itemset.New(1, 2, 3).Key() {
		t.Fatalf("marker append after the big batch recovered as %v", last)
	}
	db2.Kill()
}

// TestWALReplaySizesItemSlab: replaying an append record allocates its
// items' one backing slice at the record's item count, not at one item
// per byte left — about 1.8× the items of a basket of ten small gaps,
// whose timestamp delta and count also take bytes. Measured as the
// bytes the decode allocates less the record's Tx headers, against 4 B
// an item; the least of three decodes, so another goroutine's
// allocations cannot fail it.
func TestWALReplaySizesItemSlab(t *testing.T) {
	tbl, err := newTxTable("baskets", 2)
	if err != nil {
		t.Fatal(err)
	}
	const rows = 20_000
	txs := make([]Tx, rows)
	items := 0
	for i := range txs {
		set := make([]itemset.Item, 0, 10)
		for x := i % 7; len(set) < 9+i%3; x += 1 + i%5 {
			set = append(set, itemset.Item(x))
		}
		txs[i] = Tx{At: durAt(0, 0).Add(time.Duration(i) * time.Minute), Items: set}
		items += len(set)
	}
	tbl.AppendBatch(txs)
	payload := encodeAppendFrame(tbl, 0, 0, rows)[8:]
	best := uint64(math.MaxUint64)
	for range 3 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		rec, err := decodeWALPayload(payload, gapRows)
		runtime.ReadMemStats(&m1)
		if err != nil || len(rec.txs) != rows {
			t.Fatalf("decoded %d txs, err %v; want %d", len(rec.txs), err, rows)
		}
		best = min(best, m1.TotalAlloc-m0.TotalAlloc)
	}
	slab := best - rows*uint64(unsafe.Sizeof(Tx{}))
	if want := 4 * uint64(items); slab > want+want/50+16<<10 {
		t.Errorf("decoding %d rows of %d items allocated %d B beyond their Tx headers, want ≈ %d (4 B an item)", rows, items, slab, want)
	}
}

// Dropping a table that the newest checkpoint holds, with appends in
// the WAL, then crashing before the next checkpoint: the drop record
// must hit the platter before the table's files are removed (even under
// the interval policy, whose commits buffer in user space), and replay
// must tolerate the appends that precede the drop — their table's
// checkpoint files are legitimately gone.
func TestDurableDropAfterCheckpointRecover(t *testing.T) {
	dir := t.TempDir()
	// An hour-long sync interval: nothing reaches the file unless a sync
	// is forced, so the test proves Drop itself carries the barrier.
	db, err := OpenDurable(dir, Durability{Fsync: FsyncInterval, SyncInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	doomed, err := db.CreateTxTable("doomed")
	if err != nil {
		t.Fatal(err)
	}
	doomed.Append(durAt(0, 9), itemset.New(1, 2))
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint traffic, all buffered: appends into the doomed
	// table, plus a surviving table replay must still reconstruct.
	doomed.Append(durAt(1, 9), itemset.New(3))
	doomed.Append(durAt(2, 9), itemset.New(4))
	keep, err := db.CreateTxTable("keep")
	if err != nil {
		t.Fatal(err)
	}
	keep.Append(durAt(3, 9), itemset.New(5, 6))
	if dropped, err := db.Drop("doomed"); !dropped || err != nil {
		t.Fatalf("Drop = %v, %v", dropped, err)
	}
	db.Kill()

	db2 := durOpen(t, dir, FsyncOff)
	if _, ok := db2.TxTable("doomed"); ok {
		t.Fatal("dropped table resurrected by recovery")
	}
	got, ok := db2.TxTable("keep")
	if !ok {
		t.Fatal("surviving table lost: replay did not get past the dropped table's appends")
	}
	txs := collectTxs(got)
	if len(txs) != 1 || txs[0].Items.Key() != itemset.New(5, 6).Key() {
		t.Fatalf("surviving table recovered as %v", txs)
	}
	if sk := db2.Recovery().SkippedTx; sk != 2 {
		t.Fatalf("recovery skipped %d transactions, want the 2 destined for the dropped table", sk)
	}
	db2.Kill()
}

// Concurrent create+append per goroutine: the create record must reach
// the WAL before the table is visible to appenders, or replay meets an
// append that precedes its table's create. Run under -race this also
// guards the publish ordering itself.
func TestDurableConcurrentCreateAppendRecover(t *testing.T) {
	dir := t.TempDir()
	db := durOpen(t, dir, FsyncOff)
	const nTables = 8
	var wg sync.WaitGroup
	errs := make([]error, nTables)
	for i := 0; i < nTables; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("t%d", i)
			tbl, err := db.CreateTxTable(name)
			if err != nil {
				errs[i] = err
				return
			}
			for j := 0; j < 10; j++ {
				tbl.Append(durAt(j, i%24), itemset.New(itemset.Item(i), itemset.Item(nTables+j)))
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("create t%d: %v", i, err)
		}
	}
	db.Kill()

	db2 := durOpen(t, dir, FsyncOff)
	for i := 0; i < nTables; i++ {
		tbl, ok := db2.TxTable(fmt.Sprintf("t%d", i))
		if !ok {
			t.Fatalf("table t%d lost", i)
		}
		if tbl.Len() != 10 {
			t.Fatalf("table t%d recovered %d transactions, want 10", i, tbl.Len())
		}
	}
	db2.Kill()
}
