package tdb

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"github.com/tarm-project/tarm/internal/itemset"
)

// File extensions used inside a database directory.
const (
	extTable = ".rel"
	extTx    = ".txn"
	dictFile = "items.dict"
)

// DB is a named collection of relational tables and transaction
// tables, sharing one item dictionary. OpenDurable backs it with a
// directory under the WAL engine; NewMemDB keeps it memory-only. It is
// the substitute for the Oracle instance behind the paper's IQMS
// prototype.
type DB struct {
	dir string

	// dur is the WAL-backed storage engine (nil for NewMemDB). See
	// durable.go.
	dur *durability

	mu       sync.RWMutex
	tables   map[string]*Table
	txtables map[string]*TxTable
	dict     *itemset.Dict
}

// NewMemDB returns an in-memory database.
func NewMemDB() *DB {
	return &DB{
		tables:   make(map[string]*Table),
		txtables: make(map[string]*TxTable),
		dict:     itemset.NewDict(),
	}
}

// Dict returns the shared item dictionary.
func (db *DB) Dict() *itemset.Dict { return db.dict }

// Dir returns the backing directory ("" for memory-only).
func (db *DB) Dir() string { return db.dir }

func validName(name string) error {
	if name == "" {
		return fmt.Errorf("tdb: empty table name")
	}
	for _, r := range name {
		if !(r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9') {
			return fmt.Errorf("tdb: table name %q contains %q; use letters, digits and underscores", name, r)
		}
	}
	return nil
}

// tableFreeLocked reports an error if key names an existing table of
// either kind, phrased for the kind being created. Caller holds db.mu.
func (db *DB) tableFreeLocked(name, key string, forTx bool) error {
	if _, ok := db.txtables[key]; ok {
		if forTx {
			return fmt.Errorf("tdb: transaction table %q already exists", name)
		}
		return fmt.Errorf("tdb: a transaction table named %q already exists", name)
	}
	if _, ok := db.tables[key]; ok {
		if forTx {
			return fmt.Errorf("tdb: a relational table named %q already exists", name)
		}
		return fmt.Errorf("tdb: table %q already exists", name)
	}
	return nil
}

// CreateTable adds an empty relational table.
func (db *DB) CreateTable(name string, schema Schema) (*Table, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	key := strings.ToLower(name)
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.tableFreeLocked(name, key, false); err != nil {
		return nil, err
	}
	t, err := NewTable(name, schema)
	if err != nil {
		return nil, err
	}
	db.tables[key] = t
	return t, nil
}

// CreateTxTable adds an empty transaction table. On a durable database
// the create record is committed to the WAL before the table becomes
// visible: publishing first would let a concurrent goroutine find the
// table and win the log with an append record that precedes its create,
// a WAL replay refuses to apply. db.mu is held across the log write, so
// the visibility flip and the record are one atomic step.
func (db *DB) CreateTxTable(name string) (*TxTable, error) {
	d := db.dur
	if d != nil {
		d.gate.RLock()
		defer d.gate.RUnlock()
	}
	if err := validName(name); err != nil {
		return nil, err
	}
	key := strings.ToLower(name)
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.tableFreeLocked(name, key, true); err != nil {
		return nil, err
	}
	t, err := NewTxTable(name)
	if err != nil {
		return nil, err
	}
	if d != nil {
		if err := d.logTableOp(encodeCreateRecord(name)); err != nil {
			return nil, err
		}
	}
	t.dur = d
	db.txtables[key] = t
	return t, nil
}

// createTxTableNoLog is CreateTxTable minus gate and WAL record; WAL
// replay uses it directly.
func (db *DB) createTxTableNoLog(name string) (*TxTable, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	key := strings.ToLower(name)
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.tableFreeLocked(name, key, true); err != nil {
		return nil, err
	}
	t, err := NewTxTable(name)
	if err != nil {
		return nil, err
	}
	t.dur = db.dur
	db.txtables[key] = t
	return t, nil
}

// Table looks a relational table up by name (case-insensitive).
func (db *DB) Table(name string) (*Table, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	return t, ok
}

// TxTable looks a transaction table up by name (case-insensitive).
func (db *DB) TxTable(name string) (*TxTable, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.txtables[strings.ToLower(name)]
	return t, ok
}

// Drop removes a table of either kind; it reports whether anything was
// removed. Persisted files are deleted as well. On a durable database a
// transaction-table drop is WAL-first: the drop record reaches the
// platter — synced regardless of fsync policy — before any file is
// removed. Removing first would open a crash window in which the
// checkpoint has lost the table's files while the WAL still holds its
// append records, and recovery refuses such a log; after a logged drop,
// replay simply re-drops whatever files survive.
func (db *DB) Drop(name string) (bool, error) {
	d := db.dur
	if d != nil {
		d.gate.RLock()
		defer d.gate.RUnlock()
	}
	key := strings.ToLower(name)
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, isTx := db.txtables[key]; isTx && d != nil {
		if err := d.logTableOpSynced(encodeDropRecord(key)); err != nil {
			return false, err
		}
	}
	return db.dropLocked(key)
}

// dropNoLog is Drop minus gate and WAL record; WAL replay uses it
// directly.
func (db *DB) dropNoLog(name string) (bool, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.dropLocked(strings.ToLower(name))
}

func (db *DB) dropLocked(key string) (bool, error) {
	if _, ok := db.tables[key]; ok {
		delete(db.tables, key)
		if db.dir != "" {
			if err := removeIfExists(filepath.Join(db.dir, key+extTable)); err != nil {
				return true, err
			}
		}
		return true, nil
	}
	if _, ok := db.txtables[key]; ok {
		delete(db.txtables, key)
		if db.dir != "" {
			if err := removeIfExists(filepath.Join(db.dir, key+extTx)); err != nil {
				return true, err
			}
			if err := os.RemoveAll(filepath.Join(db.dir, key+segDirSuffix)); err != nil {
				return true, err
			}
		}
		return true, nil
	}
	return false, nil
}

func removeIfExists(path string) error {
	err := os.Remove(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// Names lists all table names (both kinds), sorted.
func (db *DB) Names() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables)+len(db.txtables))
	for _, t := range db.tables {
		out = append(out, t.Name())
	}
	for _, t := range db.txtables {
		out = append(out, t.Name())
	}
	sort.Strings(out)
	return out
}

// IsTxTable reports whether name refers to a transaction table.
func (db *DB) IsTxTable(name string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	_, ok := db.txtables[strings.ToLower(name)]
	return ok
}
