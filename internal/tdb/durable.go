package tdb

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/obs"
)

// The durable storage engine. A database opened with OpenDurable keeps
// its state recoverable at all times through two cooperating artifacts:
//
//   - a checkpoint: the dictionary, the relational .rel files, one
//     segment directory per transaction table (<key>.segd, written by
//     the incremental segment writer) and a "checkpoint" manifest
//     carrying the checkpoint epoch;
//   - the WAL (tdb.wal): every append/create/drop since that checkpoint,
//     logged before the operation is acknowledged.
//
// Recovery is "load newest checkpoint, replay WAL tail". The invariant
// that makes every crash window safe: the manifest's epoch is written
// only after all table files, and the WAL is reset (to the new epoch)
// only after the manifest — so a WAL whose header epoch is older than
// the manifest's is fully contained in the checkpoint and discarded,
// while any same-or-newer WAL replays idempotently because records
// carry explicit transaction IDs and replay skips IDs the checkpoint
// already holds.
const (
	magicCheckpoint = "TDBC"
	checkpointFile  = "checkpoint"
	segDirSuffix    = ".segd"
)

// Durability configures the WAL-backed engine for OpenDurable.
type Durability struct {
	// Fsync is the group-commit policy (see FsyncPolicy).
	Fsync FsyncPolicy
	// SyncInterval is the background fsync cadence under FsyncInterval.
	// Zero means 50ms.
	SyncInterval time.Duration
	// CheckpointInterval, when positive, checkpoints on a background
	// cadence; zero leaves checkpoints to Close and explicit Checkpoint
	// calls.
	CheckpointInterval time.Duration
	// Registry receives wal_*/checkpoint_* metrics when non-nil.
	Registry *obs.Registry
}

func (c Durability) withDefaults() Durability {
	if c.SyncInterval <= 0 {
		c.SyncInterval = 50 * time.Millisecond
	}
	return c
}

// durability is the engine's runtime state, shared by the DB and its
// transaction tables.
//
// Lock order: gate (appenders RLock, Checkpoint Lock) → table mu →
// logMu → wal.mu. The gate freezes the WAL and the tables as one
// consistent unit during a checkpoint; logMu serialises record
// construction so a dictionary-growth record always precedes the
// append records that use its new ids.
type durability struct {
	cfg  Durability
	dict *itemset.Dict

	gate sync.RWMutex
	wal  *wal

	// loggedDict is how many dictionary ids the WAL (or the checkpoint)
	// already covers; guarded by logMu.
	logMu      sync.Mutex
	loggedDict int

	// epoch is the current checkpoint epoch; touched only at open and
	// under gate.Lock in Checkpoint.
	epoch uint64

	recovery RecoveryStats

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// logAppend writes the pending dictionary delta (if the dictionary
// grew) plus the append records of a batch — rows [lo, hi) of t, just
// stored, IDs consecutive from firstID — returning the LSN to commit.
// Callers hold the table lock, so per-table WAL order matches ID order
// — the replay skip-watermark depends on that. Write errors are sticky
// on the wal and surface from the commit.
//
// Batches and dictionary deltas whose encoding would exceed the
// reader's maxWALRecord cap — for a batch, by the bound maxWALRowLen
// puts on each row — are split across records (replay composes
// them back from each record's firstID / dictStart); a record the
// reader would reject as corrupt must never be written, because it
// would end the valid prefix at recovery and silently drop everything
// acked after it.
func (d *durability) logAppend(t *TxTable, firstID int64, lo, hi int) int64 {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	var frames [][]byte
	if n := d.dict.Len(); n > d.loggedDict {
		names := d.dict.SortedNames(false)
		frames = appendDictFrames(frames, d.loggedDict, names[d.loggedDict:n])
		d.loggedDict = n
	}
	nframes := len(frames)
	base := 1 + 4 + len(t.name) + 8 + 4
	start, size := lo, base
	for i := lo; i < hi; i++ {
		txSize := maxWALRowLen(t.itemCount(t.row(i)))
		if i > start && size+txSize > maxWALRecord {
			frames = append(frames, encodeAppendFrame(t, firstID+int64(start-lo), start, i))
			start, size = i, base
		}
		size += txSize
	}
	frames = append(frames, encodeAppendFrame(t, firstID+int64(start-lo), start, hi))
	lsn, _ := d.wal.writeFrames(frames...)
	if d.cfg.Registry != nil {
		d.cfg.Registry.Counter(MetricWALAppends).Add(int64(len(frames) - nframes))
	}
	return lsn
}

// appendDictFrames frames one or more dictionary-growth records for
// names starting at startID, splitting at the maxWALRecord cap.
func appendDictFrames(frames [][]byte, startID int, names []string) [][]byte {
	base := 1 + 4 + 4
	start, size := 0, base
	for i, n := range names {
		ns := 4 + len(n)
		if i > start && size+ns > maxWALRecord {
			frames = append(frames, frameRecord(encodeDictRecord(startID+start, names[start:i])))
			start, size = i, base
		}
		size += ns
	}
	return append(frames, frameRecord(encodeDictRecord(startID+start, names[start:])))
}

// logTableOp logs a create/drop record and commits it under the
// configured policy.
func (d *durability) logTableOp(payload []byte) error {
	d.logMu.Lock()
	lsn, err := d.wal.writeRecords(payload)
	d.logMu.Unlock()
	if err != nil {
		return err
	}
	return d.wal.commit(lsn)
}

// logTableOpSynced logs a record and forces it to the platter
// regardless of fsync policy. Drop uses it as a write barrier: under
// interval/off a mere commit leaves the record in a buffer a kill
// would take with it, while the file removals that follow persist
// immediately — exactly the inconsistency WAL-first exists to prevent.
func (d *durability) logTableOpSynced(payload []byte) error {
	d.logMu.Lock()
	_, err := d.wal.writeRecords(payload)
	d.logMu.Unlock()
	if err != nil {
		return err
	}
	return d.wal.sync()
}

func (d *durability) startBackground(db *DB) {
	if d.cfg.Fsync == FsyncInterval {
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			tick := time.NewTicker(d.cfg.SyncInterval)
			defer tick.Stop()
			for {
				select {
				case <-d.stop:
					return
				case <-tick.C:
					d.wal.sync() // errors are sticky; surfaced on commits
				}
			}
		}()
	}
	if d.cfg.CheckpointInterval > 0 {
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			tick := time.NewTicker(d.cfg.CheckpointInterval)
			defer tick.Stop()
			for {
				select {
				case <-d.stop:
					return
				case <-tick.C:
					db.Checkpoint() // best effort; Close repeats it
				}
			}
		}()
	}
}

func (d *durability) stopBackground() {
	d.stopOnce.Do(func() { close(d.stop) })
	d.wg.Wait()
}

// OpenDurable loads (or initialises) a database directory under the
// WAL-backed engine: newest checkpoint first, then the WAL tail
// replayed on top, with any torn tail truncated to the longest valid
// record prefix. It is the only way a directory is opened. The
// whole-file <table>.txn format that predates the segment writer has no
// reader: a directory still holding such a table without its segment
// directory is refused by name rather than opened with the table
// missing.
func OpenDurable(dir string, cfg Durability) (*DB, error) {
	if dir == "" {
		return nil, fmt.Errorf("tdb: OpenDurable needs a directory")
	}
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tdb: open %s: %w", dir, err)
	}
	t0 := time.Now()
	db := NewMemDB()
	db.dir = dir

	// Checkpoint state: dictionary, manifest epoch, tables.
	dictPath := filepath.Join(dir, dictFile)
	if _, err := os.Stat(dictPath); err == nil {
		dict, err := LoadDict(dictPath)
		if err != nil {
			return nil, err
		}
		db.dict = dict
	}
	var epoch uint64
	ckPath := filepath.Join(dir, checkpointFile)
	if _, err := os.Stat(ckPath); err == nil {
		epoch, err = readCheckpointFile(ckPath)
		if err != nil {
			return nil, err
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("tdb: open %s: %w", dir, err)
	}
	for _, ent := range entries {
		if ent.IsDir() && strings.HasSuffix(ent.Name(), segDirSuffix) {
			segDir := filepath.Join(dir, ent.Name())
			// The manifest is written last, so a segment directory
			// without one is a table's first checkpoint cut short by a
			// crash: the WAL still holds the whole table, and the next
			// checkpoint rewrites the directory.
			if _, err := os.Stat(filepath.Join(segDir, manifestFile)); errors.Is(err, fs.ErrNotExist) {
				continue
			}
			t, err := LoadTxTableSegmented(segDir)
			if err != nil {
				return nil, err
			}
			db.txtables[strings.ToLower(t.Name())] = t
		}
	}
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		path := filepath.Join(dir, ent.Name())
		switch {
		case strings.HasSuffix(ent.Name(), extTable):
			t, err := LoadTable(path)
			if err != nil {
				return nil, err
			}
			db.tables[strings.ToLower(t.Name())] = t
		case strings.HasSuffix(ent.Name(), extTx):
			// Beside its loaded segment directory the file is a leftover
			// the next checkpoint removes; alone it is a table this
			// engine cannot read.
			if _, ok := db.txtables[strings.TrimSuffix(strings.ToLower(ent.Name()), extTx)]; !ok {
				return nil, fmt.Errorf("tdb: open %s: %s is a whole-file transaction table with no %s directory beside it; this engine no longer reads that format", dir, ent.Name(), segDirSuffix)
			}
		}
	}

	d := &durability{cfg: cfg, dict: db.dict, epoch: epoch, stop: make(chan struct{})}
	db.dur = d
	for _, t := range db.txtables {
		t.dur = d
	}

	// The WAL: replay a surviving log, discard a stale one, create a
	// fresh one if absent.
	walPath := filepath.Join(dir, walFile)
	upgrade := false
	if _, statErr := os.Stat(walPath); statErr == nil {
		hdr, recs, validSize, torn, err := readWALFile(walPath)
		if err != nil {
			return nil, err
		}
		if hdr.epoch < epoch {
			// The crash hit between manifest write and WAL reset; the
			// checkpoint already contains everything this log holds.
			w, err := createWAL(walPath, epoch, cfg.Fsync, cfg.Registry)
			if err != nil {
				return nil, err
			}
			d.wal = w
		} else {
			stats, err := db.replayWAL(recs)
			if err != nil {
				return nil, err
			}
			stats.TornBytes = torn
			d.recovery = stats
			if validSize < walHdrSize {
				// Even the header was torn: nothing replayed, start a
				// fresh log at the manifest epoch.
				w, err := createWAL(walPath, epoch, cfg.Fsync, cfg.Registry)
				if err != nil {
					return nil, err
				}
				d.wal = w
			} else {
				w, err := openWALForAppend(walPath, validSize, cfg.Fsync, cfg.Registry)
				if err != nil {
					return nil, err
				}
				d.wal = w
				d.epoch = hdr.epoch // heals a manifest lost after the WAL reset
				upgrade = hdr.version != gapRows
			}
		}
	} else {
		w, err := createWAL(walPath, epoch, cfg.Fsync, cfg.Registry)
		if err != nil {
			return nil, err
		}
		d.wal = w
	}
	d.loggedDict = db.dict.Len()
	if upgrade {
		// A fixed-width log is replayed, never appended to: the
		// checkpoint writes what it held at gapRows and resets it.
		if _, err := db.Checkpoint(); err != nil {
			d.wal.close(false)
			return nil, err
		}
	}
	d.recovery.Wall = time.Since(t0)
	if reg := cfg.Registry; reg != nil {
		reg.Counter(MetricWALReplayRec).Add(int64(d.recovery.Records))
		reg.Counter(MetricWALReplayTx).Add(int64(d.recovery.AppendedTx))
		reg.Counter(MetricWALTornBytes).Add(int64(d.recovery.TornBytes))
		reg.Gauge(MetricRecoverSecs).Set(d.recovery.Wall.Seconds())
	}
	d.startBackground(db)
	return db, nil
}

// Durable reports whether the database runs the WAL-backed engine.
func (db *DB) Durable() bool { return db.dur != nil }

// Recovery returns what opening this database replayed (zero value for
// memory-only databases or a clean start).
func (db *DB) Recovery() RecoveryStats {
	if db.dur == nil {
		return RecoveryStats{}
	}
	return db.dur.recovery
}

// DurabilityErr reports the WAL's sticky write/sync error, if any. Once
// set, the engine acknowledges nothing new; the operator restarts (and
// thereby recovers) the database.
func (db *DB) DurabilityErr() error {
	if db.dur == nil {
		return nil
	}
	return db.dur.wal.stickyErr()
}

// SyncWAL forces the log to disk — flushing the interval policy's
// user-space buffer and fsyncing — without the cost of a checkpoint.
// After it returns, every append acknowledged so far survives both a
// process kill and an OS crash. A no-op for memory-only databases.
func (db *DB) SyncWAL() error {
	if db.dur == nil {
		return nil
	}
	return db.dur.wal.sync()
}

// FsyncPolicy returns the engine's policy (FsyncOff for memory-only
// databases).
func (db *DB) FsyncPolicy() FsyncPolicy {
	if db.dur == nil {
		return FsyncOff
	}
	return db.dur.cfg.Fsync
}

// CheckpointStats reports what a checkpoint wrote.
type CheckpointStats struct {
	// Tables is the number of tables (both kinds) persisted.
	Tables int
	// SegmentsWritten / SegmentsSkipped aggregate the segment writer's
	// incremental behaviour across transaction tables.
	SegmentsWritten, SegmentsSkipped int
	// WALTruncated is the size of the log the checkpoint made redundant.
	WALTruncated int64
	// Wall is the end-to-end checkpoint time.
	Wall time.Duration
}

// Checkpoint persists the full state and truncates the WAL. Appends are
// stalled for the duration (the gate write lock freezes tables and log
// as one consistent unit); reads proceed. A memory-only database has
// nowhere to checkpoint to and returns an error.
func (db *DB) Checkpoint() (CheckpointStats, error) {
	var st CheckpointStats
	d := db.dur
	if d == nil {
		return st, fmt.Errorf("tdb: Checkpoint on a memory-only database")
	}
	d.gate.Lock()
	defer d.gate.Unlock()
	t0 := time.Now()
	// Make acked-but-unsynced records durable first: if this checkpoint
	// crashes partway, recovery still has a complete log to replay over
	// whatever subset of files made it out.
	if err := d.wal.sync(); err != nil {
		return st, err
	}
	dictLen := db.dict.Len()
	if err := SaveDict(db.dict, filepath.Join(db.dir, dictFile)); err != nil {
		return st, err
	}
	db.mu.RLock()
	tables := make(map[string]*Table, len(db.tables))
	for k, t := range db.tables {
		tables[k] = t
	}
	txtables := make(map[string]*TxTable, len(db.txtables))
	for k, t := range db.txtables {
		txtables[k] = t
	}
	db.mu.RUnlock()
	for key, t := range tables {
		if err := SaveTable(t, filepath.Join(db.dir, key+extTable)); err != nil {
			return st, err
		}
	}
	for key, t := range txtables {
		segStats, err := SaveTxTableSegmented(t, filepath.Join(db.dir, key+segDirSuffix))
		if err != nil {
			return st, err
		}
		st.SegmentsWritten += segStats.Written
		st.SegmentsSkipped += segStats.Skipped
		// A pre-segment <table>.txn may linger beside the directory;
		// OpenDurable tolerates it only there, so it goes now.
		if err := removeIfExists(filepath.Join(db.dir, key+extTx)); err != nil {
			return st, err
		}
	}
	st.Tables = len(tables) + len(txtables)
	newEpoch := d.epoch + 1
	if err := writeCheckpointFile(filepath.Join(db.dir, checkpointFile), newEpoch); err != nil {
		return st, err
	}
	st.WALTruncated = d.wal.sizeBytes() - walHdrSize
	if err := d.wal.reset(newEpoch); err != nil {
		return st, err
	}
	d.epoch = newEpoch
	d.logMu.Lock()
	// The saved dictionary covers dictLen ids; claiming fewer than the
	// dictionary holds now is safe (replay re-verifies known ids),
	// claiming more would leave a gap.
	if dictLen > d.loggedDict {
		d.loggedDict = dictLen
	}
	d.logMu.Unlock()
	st.Wall = time.Since(t0)
	if reg := d.cfg.Registry; reg != nil {
		reg.Counter(MetricCheckpoints).Add(1)
		reg.Histogram(MetricCheckpointS).Observe(st.Wall.Seconds())
		reg.Counter(MetricCheckpointW).Add(int64(st.SegmentsWritten))
		reg.Counter(MetricCheckpointK).Add(int64(st.SegmentsSkipped))
	}
	return st, nil
}

// Close checkpoints a durable database and releases the WAL. Every
// acknowledged append is on disk in checkpoint form afterwards; the
// next open replays nothing. No-op on memory-only databases.
func (db *DB) Close() error {
	if db.dur == nil {
		return nil
	}
	db.dur.stopBackground()
	_, err := db.Checkpoint()
	if cerr := db.dur.wal.close(false); err == nil {
		err = cerr
	}
	return err
}

// Kill abandons the database without checkpoint or sync — the in-
// process equivalent of kill -9, for crash-recovery tests and fault
// injection. The database must not be used afterwards; durability of
// acknowledged appends is whatever the WAL file already holds (under
// FsyncInterval, records still in the user-space buffer are lost,
// exactly as a real kill would lose them).
func (db *DB) Kill() {
	if db.dur == nil {
		return
	}
	db.dur.stopBackground()
	db.dur.wal.close(false)
}

func writeCheckpointFile(path string, epoch uint64) error {
	e := &encoder{}
	e.buf.WriteString(magicCheckpoint)
	e.u32(fmtVersion)
	e.u64(epoch)
	return writeAtomic(path, e.buf.Bytes())
}

func readCheckpointFile(path string) (uint64, error) {
	d, _, err := readChecked(path, magicCheckpoint, fmtVersion)
	if err != nil {
		return 0, err
	}
	epoch := d.u64()
	if d.err != nil {
		return 0, d.err
	}
	return epoch, nil
}
