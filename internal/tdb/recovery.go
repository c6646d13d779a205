package tdb

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"
	"strings"
	"time"

	"github.com/tarm-project/tarm/internal/itemset"
)

// Crash recovery: decode the WAL's longest valid record prefix and
// replay it over the loaded checkpoint. Decoding is forgiving — a torn
// write, a truncated tail or a bit flip ends the prefix without error,
// because that is exactly what a crash leaves behind — while replay is
// strict: a record that decodes but contradicts the checkpoint (a
// dictionary name mismatch, an append into a table that never existed)
// aborts the open rather than silently rebuilding a different database.

// walRecord is one decoded WAL record.
type walRecord struct {
	typ   uint8
	table string // append/create/drop

	firstID int64 // append
	txs     []Tx  // append (IDs filled from firstID)

	dictStart int      // dict
	names     []string // dict
}

// maxWALRecord bounds a single record's framed payload; larger lengths
// are treated as corruption (a flipped bit in the length field must not
// cause a gigabyte allocation).
const maxWALRecord = 64 << 20

// decodeWALPayload decodes one framed payload of a log at version. It
// returns an error for any malformed payload; the caller treats that as
// the end of the valid prefix.
func decodeWALPayload(p []byte, version uint32) (walRecord, error) {
	d := &decoder{b: p}
	var rec walRecord
	rec.typ = d.u8()
	switch rec.typ {
	case walRecAppend:
		rec.table = d.str()
		rec.firstID = d.i64()
		n := int(d.u32())
		if d.err != nil {
			return rec, d.err
		}
		if n < 0 || n > len(p) {
			return rec, fmt.Errorf("tdb: wal append record: implausible tx count %d", n)
		}
		rec.txs = make([]Tx, 0, n)
		// One backing slice for the record's items, sized to a bound a
		// well-formed record cannot pass, so it is never regrown: at
		// fixedRows an item takes four of the bytes left; gap-coded,
		// every varint ends in exactly one byte below 0x80, and each row
		// spends two of those on its timestamp delta and item count.
		left := len(d.b) - d.off
		if version == fixedRows {
			left /= 4
		} else {
			left = max(varintEnds(d.b[d.off:])-2*n, 0)
		}
		items := make(itemset.Set, 0, left)
		var at int64
		for i := 0; i < n && d.err == nil; i++ {
			k := len(items)
			var err error
			if version == fixedRows {
				at = d.i64()
				items, err = d.items(items)
			} else {
				at += d.varint()
				items, err = d.gaps(items)
			}
			if err != nil {
				return rec, fmt.Errorf("tdb: wal append record: %w", err)
			}
			rec.txs = append(rec.txs, Tx{
				ID:    rec.firstID + int64(i),
				At:    nanoTime(at),
				Items: items[k:len(items):len(items)],
			})
		}
	case walRecDict:
		rec.dictStart = int(d.u32())
		n := int(d.u32())
		if d.err != nil {
			return rec, d.err
		}
		if n < 0 || n > len(p) {
			return rec, fmt.Errorf("tdb: wal dict record: implausible name count %d", n)
		}
		rec.names = make([]string, 0, n)
		for i := 0; i < n; i++ {
			rec.names = append(rec.names, d.str())
		}
	case walRecCreate, walRecDrop:
		rec.table = d.str()
	default:
		return rec, fmt.Errorf("tdb: unknown wal record type %d", rec.typ)
	}
	if d.err != nil {
		return rec, d.err
	}
	if d.off != len(d.b) {
		return rec, fmt.Errorf("tdb: wal record: %d trailing bytes", len(d.b)-d.off)
	}
	return rec, nil
}

// varintEnds counts the bytes of b below 0x80, the last byte of every
// varint in it.
func varintEnds(b []byte) int {
	n := len(b)
	for ; len(b) >= 8; b = b[8:] {
		n -= bits.OnesCount64(binary.LittleEndian.Uint64(b) & 0x8080808080808080)
	}
	for _, c := range b {
		n -= int(c >> 7)
	}
	return n
}

// decodeWALRecords scans the record region (everything after the
// header) of a log at version and returns the records of the longest
// valid prefix plus the byte offset, relative to data, at which that
// prefix ends. Anything beyond — a torn frame, a CRC mismatch, a
// payload that does not decode — is a crash artifact, not an error.
func decodeWALRecords(data []byte, version uint32) (recs []walRecord, valid int) {
	off := 0
	for {
		if off+8 > len(data) {
			return recs, off
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		if n < 0 || n > maxWALRecord || off+8+n > len(data) {
			return recs, off
		}
		payload := data[off+8 : off+8+n]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[off+4:off+8]) {
			return recs, off
		}
		rec, err := decodeWALPayload(payload, version)
		if err != nil {
			return recs, off
		}
		recs = append(recs, rec)
		off += 8 + n
	}
}

// walHeader is what a log's header holds past its magic.
type walHeader struct {
	version uint32
	epoch   uint64
}

// readWALFile reads path and returns its header, the valid-prefix
// records, the file size of that valid prefix and how many tail bytes
// were discarded. A file too short to hold a header, or whose magic is
// not the log's, recovers as empty at epoch 0 with everything counted
// as torn. A whole header at a version this reader does not know is an
// error, and the file is left as it is: its records may be
// acknowledged appends that another coding holds.
func readWALFile(path string) (hdr walHeader, recs []walRecord, validSize int64, torn int, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return hdr, nil, 0, 0, fmt.Errorf("tdb: read wal %s: %w", path, err)
	}
	if len(raw) < walHdrSize || string(raw[:4]) != magicWAL {
		// A torn header: nothing recoverable, treat as an empty log.
		return hdr, nil, 0, len(raw), nil
	}
	hdr = walHeader{version: binary.LittleEndian.Uint32(raw[4:8]), epoch: binary.LittleEndian.Uint64(raw[8:16])}
	if hdr.version != fixedRows && hdr.version != gapRows {
		return hdr, nil, 0, 0, fmt.Errorf("tdb: wal %s: unsupported format version %d", path, hdr.version)
	}
	recs, valid := decodeWALRecords(raw[walHdrSize:], hdr.version)
	validSize = int64(walHdrSize + valid)
	return hdr, recs, validSize, len(raw) - int(validSize), nil
}

// RecoveryStats reports what opening a durable database replayed.
type RecoveryStats struct {
	// Records is the number of valid WAL records replayed.
	Records int
	// AppendedTx is the number of transactions the replay added on top
	// of the checkpoint.
	AppendedTx int
	// SkippedTx is the number of logged transactions the checkpoint
	// already contained (idempotent replay).
	SkippedTx int
	// TornBytes is the size of the discarded invalid WAL tail.
	TornBytes int
	// Wall is the end-to-end recovery time (checkpoint load excluded).
	Wall time.Duration
}

// replayWAL applies the decoded records to the freshly loaded
// checkpoint state. Tables are resolved lazily so create records are
// honoured in order; appends restore the IDs the transactions carried
// when first acknowledged, skipping IDs the checkpoint already holds.
//
// One tolerance on top of strict replay: an append into a table the
// checkpoint does not hold is legal when a later record drops that
// table. Drop removes the table's checkpoint files as soon as its
// WAL record is durable, so a crash after a drop leaves exactly this
// shape — appends from before the drop, no files behind them. The
// transactions are counted as skipped (the drop destroys them anyway);
// an append with no subsequent drop still aborts the open.
func (db *DB) replayWAL(recs []walRecord) (stats RecoveryStats, err error) {
	lastDrop := map[string]int{}
	for i, rec := range recs {
		if rec.typ == walRecDrop {
			lastDrop[strings.ToLower(rec.table)] = i
		}
	}
	for i, rec := range recs {
		switch rec.typ {
		case walRecDict:
			for i, name := range rec.names {
				want := itemset.Item(rec.dictStart + i)
				if int(want) < db.dict.Len() {
					// The checkpoint already interned this id; the names
					// must agree or the log belongs to another database.
					got, nameErr := db.dict.Name(want)
					if nameErr != nil || got != name {
						return stats, fmt.Errorf("tdb: wal replay: dictionary id %d is %q in checkpoint, %q in log", want, got, name)
					}
					continue
				}
				if got := db.dict.Intern(name); got != want {
					return stats, fmt.Errorf("tdb: wal replay: dictionary gap: %q interned as %d, log says %d", name, got, want)
				}
			}
		case walRecCreate:
			if _, ok := db.TxTable(rec.table); !ok {
				if _, err := db.createTxTableNoLog(rec.table); err != nil {
					return stats, fmt.Errorf("tdb: wal replay: %w", err)
				}
			}
		case walRecDrop:
			if _, err := db.dropNoLog(rec.table); err != nil {
				return stats, fmt.Errorf("tdb: wal replay: %w", err)
			}
		case walRecAppend:
			t, ok := db.TxTable(rec.table)
			if !ok {
				if drop, dropped := lastDrop[strings.ToLower(rec.table)]; dropped && drop > i {
					stats.SkippedTx += len(rec.txs)
					stats.Records++
					continue
				}
				return stats, fmt.Errorf("tdb: wal replay: append into unknown table %q", rec.table)
			}
			added, skipped, err := t.restoreBatch(rec.txs)
			stats.AppendedTx += added
			stats.SkippedTx += skipped
			if err != nil {
				return stats, fmt.Errorf("tdb: wal replay: %w", err)
			}
		}
		stats.Records++
	}
	return stats, nil
}

// restoreBatch re-applies logged transactions, preserving their
// original IDs. Transactions whose ID precedes the table's next-ID
// watermark are already present (checkpointed, or an earlier copy of a
// duplicated record) and are skipped, which is what makes replay
// idempotent. An ID the table cannot hold ends the batch with an error.
func (t *TxTable) restoreBatch(txs []Tx) (added, skipped int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, tx := range txs {
		if tx.ID < t.nextID {
			skipped++
			continue
		}
		t.nextID = tx.ID
		if err := t.appendLocked(tx.At.UnixNano(), tx.Items); err != nil {
			return added, skipped, err
		}
		added++
	}
	return added, skipped, nil
}
