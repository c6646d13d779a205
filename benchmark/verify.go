package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"github.com/tarm-project/tarm/internal/apriori"
	"github.com/tarm-project/tarm/internal/core"
	"github.com/tarm-project/tarm/internal/minisql"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/tml"
)

// digest is the identity of one result. Statement results are digested
// as the text table tarmd renders (?format=text); the server guarantees
// its row order, so equal results are equal bytes.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

// rowsDigest is the identity of a rule set held as identity-key → row:
// a folded delta stream has no row order of its own, so rows are
// digested in key order.
func rowsDigest(rows map[string][]string) string {
	keys := make([]string, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(strings.Join(rows[k], "\x1f")))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// reference answers statements in process, independently of tarmd: a
// database fed the generator's baskets directly and an executor on a
// different counting backend from the server's. Golden regeneration
// uses the naive backend with no cache at all; that costs 20 s a
// statement, so run-time references count with referenceBackend and
// serve repeats from their own cache.
//
// tarmd's auto resolves to the flat bitmap on this data. The hash tree
// would be the most different kernel, but a 0.05 build with it takes
// 2 s against roaring's 0.6 s, and every run pays for its references.
const referenceBackend = apriori.BackendRoaring

type reference struct {
	db   *tdb.DB
	tbl  *tdb.TxTable
	exec *tml.Executor
}

func newReference(db *tdb.DB, tbl *tdb.TxTable, backend apriori.Backend, cached bool) *reference {
	ex := tml.NewExecutor(db)
	ex.Backend = backend
	// The reference only ever runs while tarmd is idle or down, so it
	// may use every core.
	ex.Workers = runtime.NumCPU()
	ex.Cache = nil
	if cached {
		// Never delta-maintained: after appends the reference recounts
		// from scratch, which is the point of having one.
		ex.Cache = core.NewHoldCache(core.DefaultCacheBytes)
		ex.Cache.DisableDelta()
	}
	return &reference{db: db, tbl: tbl, exec: ex}
}

// text is the reference's rendering of stmt, byte-comparable with
// tarmd's ?format=text answer.
func (r *reference) text(stmt string) ([]byte, error) {
	res, err := r.exec.Exec(stmt)
	if err != nil {
		return nil, fmt.Errorf("reference %q: %w", stmt, err)
	}
	var b bytes.Buffer
	minisql.Format(&b, res)
	return b.Bytes(), nil
}

// keyed is the reference's result for stmt as identity-key → display
// row, the form a folded subscription compares against.
func (r *reference) keyed(stmt string) (map[string][]string, error) {
	res, err := r.exec.Exec(stmt)
	if err != nil {
		return nil, fmt.Errorf("reference %q: %w", stmt, err)
	}
	return tml.KeyRows(res.Cols, tml.DisplayCells(res)), nil
}

// digests renders every statement, in order, into stmt → digest.
func (r *reference) digests(stmts []string) (map[string]string, error) {
	out := make(map[string]string, len(stmts))
	for _, s := range stmts {
		b, err := r.text(s)
		if err != nil {
			return nil, err
		}
		out[s] = digest(b)
	}
	return out, nil
}

// golden is a committed set of result digests for one workload and
// seed, produced by -regen-golden with the naive backend. Keys are
// statements, or "fold:<statement>" for a subscription's folded state.
type golden map[string]string

func goldenPath(dir, workload string, seed int64) string {
	return filepath.Join(dir, "golden", fmt.Sprintf("%s.%d.json", workload, seed))
}

// loadGolden returns nil (no error) when no golden is committed for
// the seed: the run is then checked against the in-process reference
// alone.
func loadGolden(dir, workload string, seed int64) (golden, error) {
	raw, err := os.ReadFile(goldenPath(dir, workload, seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(raw, &g); err != nil {
		return nil, fmt.Errorf("golden %s: %w", goldenPath(dir, workload, seed), err)
	}
	return g, nil
}

func saveGolden(dir, workload string, seed int64, g golden) error {
	raw, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	p := goldenPath(dir, workload, seed)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	return os.WriteFile(p, append(raw, '\n'), 0o644)
}

// checkGolden compares the digests a run expects with the committed
// golden: every golden key must be expected with the same digest. A
// disagreement means the run-time reference and the naive backend
// differ, which voids the run.
func checkGolden(g golden, expected map[string]string) error {
	for k, want := range g {
		got, ok := expected[k]
		if !ok {
			return fmt.Errorf("golden key %q is not produced by this run (stale golden? run -regen-golden)", k)
		}
		if got != want {
			return fmt.Errorf("reference digest %s for %q differs from golden %s", got, k, want)
		}
	}
	return nil
}
