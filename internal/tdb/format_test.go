package tdb

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/tarm-project/tarm/internal/itemset"
)

// copyDir copies the files of src, one directory deep, into a new
// temporary directory and returns it.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, ent os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if ent.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// fileVersion reads the version field of a file's header.
func fileVersion(t *testing.T, path string) uint32 {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) < 8 {
		t.Fatalf("%s: %d bytes, too short for a header", path, len(b))
	}
	return binary.LittleEndian.Uint32(b[4:8])
}

// checkFixtureState holds a database opened on the fixture's history,
// and extra appended to its baskets after it, to that history: every
// table, every row with its ID and timestamp, and the dictionary.
func checkFixtureState(t *testing.T, tag string, db *DB, extra ...Tx) {
	t.Helper()
	var arrived []Tx
	for i, tx := range append(append(v1FixtureCheckpointed(), v1FixtureTail()...), extra...) {
		arrived = append(arrived, Tx{ID: int64(i), At: tx.At, Items: tx.Items})
	}
	baskets, ok := db.TxTable("baskets")
	if !ok {
		t.Fatalf("%s: baskets missing", tag)
	}
	sameTxs(t, tag+": baskets", collectTxs(baskets), sortedRef(arrived))
	late, ok := db.TxTable("late")
	if !ok {
		t.Fatalf("%s: late missing", tag)
	}
	lt := v1FixtureLate()
	sameTxs(t, tag+": late", collectTxs(late), []Tx{{ID: 0, At: lt.At, Items: lt.Items}})
	if got, want := db.Dict().SortedNames(false), append(v1FixtureNames, "eggs"); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("%s: dictionary %v, want %v", tag, got, want)
	}
	stores, ok := db.Table("stores")
	if !ok || stores.Len() != 2 {
		t.Fatalf("%s: relational table stores lost", tag)
	}
}

// The fixture was written by the fixedRows writer: its segments, their
// manifest and its WAL are at version 1, its dictionary, relational
// table and checkpoint at fmtVersion. It opens with every row, the WAL
// tail replayed; from then on every segment — the third, whose count
// the tail left alone, too — and the log are at gapRows, and a reopen
// reads the same rows. The same history written by the current writer
// opens to the same state.
func TestV1DirectoryOpens(t *testing.T) {
	src := filepath.Join("testdata", "v1db")
	segs, err := filepath.Glob(filepath.Join(src, "baskets"+segDirSuffix, "*.seg"))
	if err != nil || len(segs) != 3 {
		t.Fatalf("fixture holds %d segments (%v), want 3", len(segs), err)
	}
	for _, path := range append(segs, filepath.Join(src, "baskets"+segDirSuffix, manifestFile), filepath.Join(src, walFile)) {
		if v := fileVersion(t, path); v != fixedRows {
			t.Fatalf("fixture file %s at version %d, want %d", path, v, fixedRows)
		}
	}

	dir := copyDir(t, src)
	db := durOpen(t, dir, FsyncAlways)
	if rec := db.Recovery(); rec.AppendedTx != 4 || rec.TornBytes != 0 {
		t.Fatalf("recovery = %+v, want 4 transactions replayed and none torn", rec)
	}
	checkFixtureState(t, "opened", db)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"baskets", "late"} {
		paths, _ := filepath.Glob(filepath.Join(dir, name+segDirSuffix, "*"))
		if name == "baskets" && len(paths) != 4 {
			t.Fatalf("baskets has %d files after the checkpoint, want 3 segments and a manifest", len(paths))
		}
		for _, path := range paths {
			if v := fileVersion(t, path); v != gapRows {
				t.Errorf("%s at version %d after the checkpoint, want %d", path, v, gapRows)
			}
		}
	}
	if v := fileVersion(t, filepath.Join(dir, walFile)); v != gapRows {
		t.Errorf("WAL at version %d after the checkpoint, want %d", v, gapRows)
	}
	for _, f := range []string{dictFile, checkpointFile, "stores" + extTable} {
		if v := fileVersion(t, filepath.Join(dir, f)); v != fmtVersion {
			t.Errorf("%s at version %d, want %d", f, v, fmtVersion)
		}
	}
	more := Tx{At: durAt(90, 1), Items: itemset.New(2, 3)}
	tbl, _ := db.TxTable("baskets")
	tbl.Append(more.At, more.Items)
	db.Kill()

	db = durOpen(t, dir, FsyncAlways)
	defer db.Kill()
	checkFixtureState(t, "reopened", db, more)

	fresh := t.TempDir()
	writeFixtureHistory(t, fresh)
	db2 := durOpen(t, fresh, FsyncAlways)
	defer db2.Kill()
	checkFixtureState(t, "written at gapRows", db2)
}

// A log whose header has the log's magic and a version this build does
// not know is refused, and the file is left as it was: replaying it as
// a torn header would recreate the log and lose acknowledged appends.
func TestDurableUnknownWALVersion(t *testing.T) {
	dir := t.TempDir()
	db := durOpen(t, dir, FsyncAlways)
	tbl, err := db.CreateTxTable("baskets")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tbl.AppendBatchDurable([]Tx{{At: durAt(0, 9), Items: itemset.New(1, 2)}}); err != nil {
		t.Fatal(err)
	}
	db.Kill()
	path := filepath.Join(dir, walFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(raw[4:8], gapRows+1)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if db, err := OpenDurable(dir, Durability{Fsync: FsyncAlways}); err == nil {
		db.Kill()
		t.Fatal("a WAL at an unknown version opened")
	} else if !strings.Contains(err.Error(), "version") {
		t.Fatalf("open error %q does not name the version", err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, raw) {
		t.Fatalf("the refused WAL changed: %d bytes, was %d (%v)", len(after), len(raw), err)
	}
}

// segmentBody is a gapRows segment file's body for index idx, declaring
// n rows, with rows as its row bytes.
func segmentBody(idx int64, n uint64, rows []byte) []byte {
	e := &encoder{}
	e.buf.WriteString(magicSegment)
	e.u32(gapRows)
	e.i64(idx)
	e.u64(n)
	e.buf.Write(rows)
	return e.buf.Bytes()
}

// decodeSegmentBody decodes a segment body into a small-block table.
func decodeSegmentBody(body []byte, idx int64) (*TxTable, error) {
	tbl, err := newTxTable("seg", 3)
	if err != nil {
		return nil, err
	}
	_, err = tbl.decodeSegment(&decoder{b: body, off: 8}, gapRows, idx, math.MaxInt64)
	return tbl, err
}

// Each malformed row is refused with what is wrong with it.
func TestSegmentDecodeRefuses(t *testing.T) {
	row := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	sv := func(v int64) []byte { return binary.AppendVarint(nil, v) }
	for _, c := range []struct {
		name string
		n    uint64
		rows []byte
		want string
	}{
		{"count past bytes", 1, row(sv(5), sv(1), uv(9), uv(1)), "implausible item count"},
		{"rows past bytes", 50, row(sv(5), sv(1), uv(0)), "implausible transaction count"},
		{"over-long varint", 1, row(sv(5), sv(1), []byte{0x81, 0x00}, uv(1)), "malformed varint"},
		{"overflowing varint", 1, row(sv(5), sv(1), bytes.Repeat([]byte{0xFF}, 10), []byte{0x01}), "malformed varint"},
		{"item past range", 1, row(sv(5), sv(1), uv(2), uv(math.MaxUint32), uv(0)), "item range"},
		{"first item past range", 1, row(sv(5), sv(1), uv(1), uv(math.MaxUint32+1)), "item range"},
		{"trailing bytes", 1, row(sv(5), sv(1), uv(1), uv(4), []byte{0}), "trailing bytes"},
		{"out of time order", 2, row(sv(5), sv(1), uv(0), sv(-1), sv(1), uv(0)), "earlier than the row before"},
		{"ID out of range", 1, row(sv(5), sv(-1), uv(0)), "does not fit"},
		{"truncated varint", 1, row(sv(5), sv(1), uv(1), []byte{0x81}), "truncated"},
	} {
		_, err := decodeSegmentBody(segmentBody(7, c.n, c.rows), 7)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one naming %q", c.name, err, c.want)
		}
	}
}

// FuzzSegmentDecode: arbitrary row bytes under a count must never panic
// the segment decoder, and a body it accepts re-encodes, through the
// segment writer from the table it filled, to exactly the same bytes —
// only the one coding of each row is read.
func FuzzSegmentDecode(f *testing.F) {
	const idx = 618
	seed := func(txs ...Tx) {
		tbl, _ := newTxTable("seg", 3)
		for i, tx := range txs {
			if err := tbl.storeRow(int64(i*3%7), tx.At.UnixNano(), tx.Items); err != nil {
				f.Fatal(err)
			}
		}
		tbl.rlockSorted()
		body := tbl.encodeSegment(idx, 0, tbl.nrows)
		tbl.mu.RUnlock()
		f.Add(uint64(len(txs)), body[8+16:])
	}
	seed()
	seed(Tx{At: durAt(0, 9), Items: itemset.New(1, 2, 3)})
	seed(Tx{At: durAt(0, 9), Items: itemset.New(0, 127, 128, 1<<16)},
		Tx{At: durAt(0, 9), Items: itemset.Set{}},
		Tx{At: durAt(1, 23), Items: itemset.New(5, 1<<32-1)},
		Tx{At: durAt(2, 0), Items: itemset.New(300, 301, 302, 303, 304, 305, 306, 307, 308, 309)})
	f.Add(uint64(2), []byte{0x81, 0x00, 0x02, 0x00})

	f.Fuzz(func(t *testing.T, n uint64, rows []byte) {
		body := segmentBody(idx, n, rows)
		tbl, err := decodeSegmentBody(body, idx)
		if err != nil {
			return
		}
		if uint64(tbl.Len()) != n {
			t.Fatalf("accepted %d rows, header says %d", tbl.Len(), n)
		}
		tbl.rlockSorted()
		got := tbl.encodeSegment(idx, 0, tbl.nrows)
		tbl.mu.RUnlock()
		if !bytes.Equal(got, body) {
			t.Fatalf("decode then encode changed the segment:\n got %x\nwant %x", got, body)
		}
	})
}

// A row's timestamp delta wraps rather than overflows, so the extreme
// instants round-trip through the WAL and the segments, late rows and
// the widest item among them.
func TestDurableExtremeDeltas(t *testing.T) {
	dir := t.TempDir()
	db := durOpen(t, dir, FsyncAlways)
	tbl, err := db.CreateTxTable("edges")
	if err != nil {
		t.Fatal(err)
	}
	txs := []Tx{
		{At: time.Unix(0, math.MaxInt64), Items: itemset.New(1<<32 - 1)},
		{At: time.Unix(0, math.MinInt64), Items: itemset.New(0, 1<<32-1)},
		{At: durAt(0, 1), Items: itemset.New(3)},
		{At: time.Unix(0, math.MinInt64+1), Items: itemset.Set{}},
	}
	if _, _, err := tbl.AppendBatchDurable(txs); err != nil {
		t.Fatal(err)
	}
	var want []Tx
	for i, tx := range txs {
		want = append(want, Tx{ID: int64(i), At: tx.At, Items: tx.Items})
	}
	want = sortedRef(want)
	db.Kill()
	db = durOpen(t, dir, FsyncAlways)
	tbl, _ = db.TxTable("edges")
	sameTxs(t, "replayed", collectTxs(tbl), want)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = durOpen(t, dir, FsyncAlways)
	defer db.Kill()
	tbl, _ = db.TxTable("edges")
	sameTxs(t, "loaded", collectTxs(tbl), want)
}

// uvarint reads every value at every length binary.AppendUvarint gives
// it, with or without eight bytes after it to read at once, and refuses
// the same value padded to a longer encoding.
func TestUvarintMatchesBinary(t *testing.T) {
	vals := []uint64{0, 1, 127, 128, 300, 1<<14 - 1, 1 << 14, math.MaxUint32, 1<<56 - 1, 1 << 56, 1 << 63, math.MaxUint64}
	for sh := range 64 {
		vals = append(vals, 1<<sh+uint64(sh)*0x9E3779B97F4A7C15>>sh)
	}
	for _, v := range vals {
		enc := binary.AppendUvarint(nil, v)
		for pad := range 10 {
			b := append(append([]byte{}, enc...), bytes.Repeat([]byte{0xAB}, pad)...)
			d := &decoder{b: b}
			if got := d.uvarint(); d.err != nil || got != v || d.off != len(enc) {
				t.Fatalf("%d with %d bytes after it: read %d to offset %d (err %v), want %d to %d", v, pad, got, d.off, d.err, v, len(enc))
			}
		}
		if len(enc) < binary.MaxVarintLen64 {
			long := append(append([]byte{}, enc...), 0)
			long[len(enc)-1] |= 0x80
			for pad := range 10 {
				d := &decoder{b: append(long, bytes.Repeat([]byte{0xAB}, pad)...)}
				if got := d.uvarint(); d.err == nil {
					t.Fatalf("%d padded to %d bytes read as %d", v, len(long), got)
				}
			}
		}
	}
}
