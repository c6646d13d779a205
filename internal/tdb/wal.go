package tdb

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tarm-project/tarm/internal/obs"
)

// Write-ahead log. The durable write path of a database directory is
//
//	append to memory → encode a WAL record → write → fsync (policy) → ack
//
// so every acknowledged append survives a crash: recovery loads the
// newest checkpoint (the segment directories + .rel files + dictionary)
// and replays the WAL tail on top of it. Under FsyncAlways and FsyncOff
// the record write is a direct syscall before the ack; FsyncInterval
// trades a bounded loss window (one flush cadence) for a buffered
// write path that keeps pace with in-memory ingest.
//
// File layout (<dir>/tdb.wal):
//
//	header:  magic "TDBW" | version u32 | checkpoint epoch u64
//	records: length u32 | crc32 u32 (over payload) | payload
//
// A record's payload starts with a one-byte type. The version is the
// coding of the append records' rows: gapRows is written; a fixedRows
// log is replayed and then checkpointed at open, which resets it at
// gapRows, and a version past gapRows refuses the open. Records are
// self-delimiting and individually checksummed, so a torn or corrupted
// tail is detected record-precisely and recovery keeps the longest
// valid prefix. The header's checkpoint epoch pairs the WAL with the
// checkpoint manifest: a WAL whose epoch is older than the manifest's
// predates the newest checkpoint (the crash hit between manifest write
// and WAL reset) and is discarded; replay of a current-epoch WAL is
// idempotent regardless, because append records carry the IDs the
// transactions were assigned in memory and replay skips IDs the loaded
// checkpoint already contains.
const (
	magicWAL   = "TDBW"
	walFile    = "tdb.wal"
	walHdrSize = 4 + 4 + 8
)

// WAL record types.
const (
	walRecAppend uint8 = 1 // table, firstID, transactions
	walRecDict   uint8 = 2 // dictionary growth: startID + names, in intern order
	walRecCreate uint8 = 3 // transaction table created
	walRecDrop   uint8 = 4 // transaction table dropped
)

// FsyncPolicy is when the WAL reaches the platter relative to the ack.
type FsyncPolicy int

const (
	// FsyncAlways fsyncs before every acknowledgment (group-committed:
	// concurrent appends piggyback on one fsync covering all of them).
	// Survives OS/power failure.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval batches records in a user-space buffer that a
	// background flusher writes and fsyncs on a fixed cadence (plus an
	// inline flush if the buffer outgrows walBufFlushSize). Keeping the
	// write syscall off the append path is what lets this policy track
	// the in-memory ingest rate; the price is that up to one interval
	// of acknowledged appends is exposed to a process kill or OS crash.
	FsyncInterval
	// FsyncOff writes each record immediately and never fsyncs; the OS
	// flushes at its leisure. Survives a process kill, not an OS crash.
	FsyncOff
)

// walBufFlushSize caps the interval policy's user-space buffer: a
// writeFrames that grows it past this flushes inline, bounding both
// memory and the kill-window to min(SyncInterval, this many bytes).
const walBufFlushSize = 1 << 20

// ParseFsyncPolicy resolves the -fsync flag spelling.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "off", "none":
		return FsyncOff, nil
	default:
		return 0, fmt.Errorf("tdb: unknown fsync policy %q (want always, interval or off)", s)
	}
}

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncOff:
		return "off"
	default:
		return fmt.Sprintf("fsync(%d)", int(p))
	}
}

// WAL metric names, published when the database was opened with a
// Registry.
const (
	MetricWALAppends   = "tarm_wal_appends_total"           // append records written (counter)
	MetricWALRecords   = "tarm_wal_records_total"           // records of any type written (counter)
	MetricWALBytes     = "tarm_wal_bytes_total"             // record bytes written (counter)
	MetricWALFsyncs    = "tarm_wal_fsyncs_total"            // fsync calls (counter)
	MetricWALSyncSecs  = "tarm_wal_sync_seconds"            // fsync latency (histogram)
	MetricWALSize      = "tarm_wal_size_bytes"              // current WAL file size (gauge)
	MetricWALReplayRec = "tarm_wal_replayed_records"        // records replayed at open (counter)
	MetricWALReplayTx  = "tarm_wal_replayed_tx"             // transactions replayed at open (counter)
	MetricWALTornBytes = "tarm_wal_torn_bytes_total"        // invalid tail bytes discarded at open (counter)
	MetricCheckpoints  = "tarm_checkpoint_total"            // checkpoints taken (counter)
	MetricCheckpointS  = "tarm_checkpoint_seconds"          // checkpoint latency (histogram)
	MetricCheckpointW  = "tarm_checkpoint_segments_written" // segment files rewritten (counter)
	MetricCheckpointK  = "tarm_checkpoint_segments_skipped" // segment files skipped as unchanged (counter)
	MetricRecoverSecs  = "tarm_recovery_seconds"            // open-time recovery wall (gauge)
)

// wal is the append-side handle of the log. One wal serves a whole
// database: records from different tables interleave, each carrying its
// table name.
type wal struct {
	path   string
	policy FsyncPolicy
	reg    *obs.Registry // nil = no metrics

	// mu serialises record writes; per-table append order is preserved
	// because appenders log while holding the table lock.
	mu   sync.Mutex
	f    *os.File
	size int64
	lsn  int64  // records written (monotonic, reset by checkpoint)
	err  error  // sticky write/sync error; surfaces on every later commit
	buf  []byte // FsyncInterval only: framed records not yet written

	// Group commit: syncMu serialises fsyncs, synced is the highest LSN
	// known durable. A committer whose LSN is already covered returns
	// without syncing; the ones that queued on syncMu during an fsync
	// find their LSN covered when they acquire it.
	syncMu sync.Mutex
	synced atomic.Int64
}

// walHeaderAt is the header of a log at epoch: always gapRows, so a log
// in the fixed-width coding is never appended to.
func walHeaderAt(epoch uint64) [walHdrSize]byte {
	var hdr [walHdrSize]byte
	copy(hdr[:4], magicWAL)
	binary.LittleEndian.PutUint32(hdr[4:8], gapRows)
	binary.LittleEndian.PutUint64(hdr[8:16], epoch)
	return hdr
}

// createWAL truncates (or creates) path with a fresh header at epoch.
func createWAL(path string, epoch uint64, policy FsyncPolicy, reg *obs.Registry) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("tdb: create wal %s: %w", path, err)
	}
	hdr := walHeaderAt(epoch)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("tdb: write wal header %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("tdb: sync wal header %s: %w", path, err)
	}
	w := &wal{path: path, policy: policy, reg: reg, f: f, size: walHdrSize}
	w.gaugeSize()
	return w, nil
}

// openWALForAppend opens an existing WAL whose records have been
// recovered up to validSize, truncating any invalid tail so new records
// extend the valid prefix.
func openWALForAppend(path string, validSize int64, policy FsyncPolicy, reg *obs.Registry) (*wal, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("tdb: open wal %s: %w", path, err)
	}
	if err := f.Truncate(validSize); err != nil {
		f.Close()
		return nil, fmt.Errorf("tdb: truncate wal %s: %w", path, err)
	}
	if _, err := f.Seek(validSize, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("tdb: seek wal %s: %w", path, err)
	}
	w := &wal{path: path, policy: policy, reg: reg, f: f, size: validSize}
	w.gaugeSize()
	return w, nil
}

func (w *wal) gaugeSize() {
	if w.reg != nil {
		w.reg.Gauge(MetricWALSize).Set(float64(w.size))
	}
}

// frameRecord wraps payload with the length+CRC frame.
func frameRecord(payload []byte) []byte {
	out := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(payload))
	copy(out[8:], payload)
	return out
}

// writeRecords appends framed payloads as one write each and returns
// the LSN of the last.
func (w *wal) writeRecords(payloads ...[]byte) (int64, error) {
	frames := make([][]byte, len(payloads))
	for i, p := range payloads {
		frames[i] = frameRecord(p)
	}
	return w.writeFrames(frames...)
}

// writeFrames appends pre-framed records and returns the LSN of the
// last. always/off write through — no user-space buffer, so an
// acknowledged record survives a process kill and only fsync timing
// differs. interval appends to the buffer the background flusher
// drains, keeping the write syscall off the append path.
func (w *wal) writeFrames(frames ...[]byte) (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.lsn, w.err
	}
	for _, frame := range frames {
		// The reader treats any length beyond maxWALRecord as corruption
		// and ends the valid prefix there, so writing such a record would
		// ack data that recovery silently discards — along with every
		// record after it. logAppend splits batches below the cap; this
		// guard turns any remaining oversized record into a sticky error
		// the commit surfaces before the ack.
		if len(frame)-8 > maxWALRecord {
			w.err = fmt.Errorf("tdb: wal record payload %d bytes exceeds the %d-byte cap", len(frame)-8, maxWALRecord)
			return w.lsn, w.err
		}
		if w.policy == FsyncInterval {
			w.buf = append(w.buf, frame...)
		} else {
			if _, err := w.f.Write(frame); err != nil {
				w.err = fmt.Errorf("tdb: wal write: %w", err)
				return w.lsn, w.err
			}
			w.size += int64(len(frame))
		}
		w.lsn++
		if w.reg != nil {
			w.reg.Counter(MetricWALRecords).Add(1)
			w.reg.Counter(MetricWALBytes).Add(int64(len(frame)))
		}
	}
	if len(w.buf) >= walBufFlushSize {
		if err := w.flushLocked(); err != nil {
			return w.lsn, err
		}
	}
	w.gaugeSize()
	return w.lsn, nil
}

// flushLocked drains the interval policy's buffer to the file. Caller
// holds w.mu.
func (w *wal) flushLocked() error {
	if w.err != nil {
		return w.err
	}
	if len(w.buf) == 0 {
		return nil
	}
	if _, err := w.f.Write(w.buf); err != nil {
		w.err = fmt.Errorf("tdb: wal write: %w", err)
		return w.err
	}
	w.size += int64(len(w.buf))
	w.buf = w.buf[:0]
	return nil
}

// commit makes everything up to lsn durable according to the policy.
// FsyncAlways group-commits: one fsync covers every record written
// before it, and committers whose LSN is already covered return
// immediately.
func (w *wal) commit(lsn int64) error {
	switch w.policy {
	case FsyncOff, FsyncInterval:
		w.mu.Lock()
		err := w.err
		w.mu.Unlock()
		return err
	}
	if w.synced.Load() >= lsn {
		return nil
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	if w.synced.Load() >= lsn {
		return nil // a concurrent committer's fsync covered us
	}
	w.mu.Lock()
	target := w.lsn
	f, err := w.f, w.err
	w.mu.Unlock()
	if err != nil {
		return err
	}
	t0 := time.Now()
	if err := f.Sync(); err != nil {
		w.mu.Lock()
		w.err = fmt.Errorf("tdb: wal fsync: %w", err)
		err = w.err
		w.mu.Unlock()
		return err
	}
	if w.reg != nil {
		w.reg.Counter(MetricWALFsyncs).Add(1)
		w.reg.Histogram(MetricWALSyncSecs).Observe(time.Since(t0).Seconds())
	}
	w.synced.Store(target)
	return nil
}

// sync flushes any buffered records and fsyncs unconditionally (the
// interval flusher and checkpoint use it regardless of policy).
func (w *wal) sync() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	err := w.flushLocked()
	target := w.lsn
	f := w.f
	w.mu.Unlock()
	if err != nil {
		return err
	}
	t0 := time.Now()
	if err := f.Sync(); err != nil {
		w.mu.Lock()
		w.err = fmt.Errorf("tdb: wal fsync: %w", err)
		err = w.err
		w.mu.Unlock()
		return err
	}
	if w.reg != nil {
		w.reg.Counter(MetricWALFsyncs).Add(1)
		w.reg.Histogram(MetricWALSyncSecs).Observe(time.Since(t0).Seconds())
	}
	if s := w.synced.Load(); target > s {
		w.synced.Store(target)
	}
	return nil
}

// reset atomically replaces the log with an empty one at epoch: the
// checkpoint's last step. A new file is prepared under a temp name and
// renamed over the old, so a crash leaves either the full old WAL or
// the empty new one, never a half-header. syncMu is taken first so an
// in-flight fsync (interval flusher, group commit) finishes against the
// old handle before it is closed.
func (w *wal) reset(epoch uint64) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	tmp := w.path + ".tmp"
	nf, err := os.OpenFile(tmp, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("tdb: reset wal: %w", err)
	}
	hdr := walHeaderAt(epoch)
	if _, err := nf.Write(hdr[:]); err == nil {
		err = nf.Sync()
	}
	if err != nil {
		nf.Close()
		os.Remove(tmp)
		return fmt.Errorf("tdb: reset wal: %w", err)
	}
	if err := os.Rename(tmp, w.path); err != nil {
		nf.Close()
		os.Remove(tmp)
		return fmt.Errorf("tdb: reset wal: %w", err)
	}
	// Make the rename durable: a power cut must not resurrect the old
	// (now checkpoint-subsumed, soon divergent) log under this name.
	if err := syncDir(filepath.Dir(w.path)); err != nil {
		nf.Close()
		return fmt.Errorf("tdb: reset wal: %w", err)
	}
	old := w.f
	w.f = nf
	w.size = walHdrSize
	w.lsn = 0
	w.buf = w.buf[:0] // buffered records predate the checkpoint that subsumes them
	w.synced.Store(0)
	w.err = nil
	old.Close()
	w.gaugeSize()
	return nil
}

// close releases the file handle; with a sync first on a graceful path.
func (w *wal) close(syncFirst bool) error {
	if syncFirst {
		if err := w.sync(); err != nil {
			return err
		}
	}
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.f.Close()
	if w.err == nil && err != nil {
		w.err = err
	}
	return err
}

// sizeBytes returns the logical log size: the file plus any records
// still in the interval policy's buffer.
func (w *wal) sizeBytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size + int64(len(w.buf))
}

// stickyErr returns the recorded write/sync error, if any.
func (w *wal) stickyErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// ---------------------------------------------------------------------
// Record encoding. Payloads reuse the encoder of store.go.

// encodeAppendFrame encodes rows [lo, hi) of t as one framed append
// record — type, table, first ID, row count, then each row in the
// gapRows coding without its ID (appendRow) — in a single exactly-sized
// allocation: a first pass over the rows sizes it, and the payload is
// built behind an 8-byte hole that then receives the length+CRC frame
// header. One alloc and no copy — this is the append hot path. The
// caller holds t.mu.
func encodeAppendFrame(t *TxTable, firstID int64, lo, hi int) []byte {
	size := 1 + 4 + len(t.name) + 8 + 4
	var prev row
	for i := lo; i < hi; i++ {
		r := t.row(i)
		size += t.rowLen(r, prev, false)
		prev = r
	}
	out := make([]byte, 8+size)
	p := out[8:8]
	p = append(p, walRecAppend)
	p = binary.LittleEndian.AppendUint32(p, uint32(len(t.name)))
	p = append(p, t.name...)
	p = binary.LittleEndian.AppendUint64(p, uint64(firstID))
	p = binary.LittleEndian.AppendUint32(p, uint32(hi-lo))
	prev = row{}
	for i := lo; i < hi; i++ {
		r := t.row(i)
		p = t.appendRow(p, r, prev, false)
		prev = r
	}
	binary.LittleEndian.PutUint32(out[0:4], uint32(len(p)))
	binary.LittleEndian.PutUint32(out[4:8], crc32.ChecksumIEEE(p))
	return out[:8+len(p)]
}

// maxWALRowLen bounds what a row of k items adds to an append record:
// a timestamp delta, a count and k items, each at its longest varint.
// logAppend splits batches on it; the exact size can be smaller, never
// larger.
func maxWALRowLen(k int) int { return binary.MaxVarintLen64 + binary.MaxVarintLen32*(1+k) }

func encodeDictRecord(startID int, names []string) []byte {
	e := &encoder{}
	e.u8(walRecDict)
	e.u32(uint32(startID))
	e.u32(uint32(len(names)))
	for _, n := range names {
		e.str(n)
	}
	return e.buf.Bytes()
}

func encodeCreateRecord(table string) []byte {
	e := &encoder{}
	e.u8(walRecCreate)
	e.str(table)
	return e.buf.Bytes()
}

func encodeDropRecord(table string) []byte {
	e := &encoder{}
	e.u8(walRecDrop)
	e.str(table)
	return e.buf.Bytes()
}
