package minisql

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"github.com/tarm-project/tarm/internal/tdb"
)

// Result is the output of a statement: a header and zero or more rows.
// Non-query statements produce a one-line informational result.
type Result struct {
	Cols []string
	Rows []tdb.Row
}

// Engine executes SQL statements against a tdb database. Transaction
// tables are queryable through a virtual (tid, at, item) view with one
// row per basket item, mirroring how the paper's prototype stored
// baskets relationally in Oracle.
type Engine struct {
	db *tdb.DB
}

// NewEngine wraps a database.
func NewEngine(db *tdb.DB) *Engine { return &Engine{db: db} }

// Exec parses and runs one statement.
func (e *Engine) Exec(sql string) (*Result, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return e.ExecStmt(stmt)
}

// ExecStmt runs an already parsed statement.
func (e *Engine) ExecStmt(stmt Stmt) (*Result, error) {
	switch s := stmt.(type) {
	case *SelectStmt:
		return e.execSelect(s)
	case *InsertStmt:
		return e.execInsert(s)
	case *CreateTableStmt:
		schema, err := tdb.NewSchema(s.Cols...)
		if err != nil {
			return nil, err
		}
		if _, err := e.db.CreateTable(s.Table, schema); err != nil {
			return nil, err
		}
		return message("table %s created", s.Table), nil
	case *DropTableStmt:
		dropped, err := e.db.Drop(s.Table)
		if err != nil {
			return nil, err
		}
		if !dropped {
			return nil, fmt.Errorf("minisql: no table named %q", s.Table)
		}
		return message("table %s dropped", s.Table), nil
	case *DeleteStmt:
		return e.execDelete(s)
	case *UpdateStmt:
		return e.execUpdate(s)
	case *ShowTablesStmt:
		res := &Result{Cols: []string{"table"}}
		for _, n := range e.db.Names() {
			res.Rows = append(res.Rows, tdb.Row{tdb.Str(n)})
		}
		return res, nil
	case *DescribeStmt:
		return e.execDescribe(s)
	default:
		return nil, fmt.Errorf("minisql: unsupported statement %T", stmt)
	}
}

func message(format string, args ...any) *Result {
	return &Result{Cols: []string{"result"}, Rows: []tdb.Row{{tdb.Str(fmt.Sprintf(format, args...))}}}
}

// scanTarget resolves FROM: a relational table directly, or a virtual
// item-level view of a transaction table.
func (e *Engine) scanTarget(name string) (tdb.Schema, func(fn func(row tdb.Row) bool), error) {
	if t, ok := e.db.Table(name); ok {
		return t.Schema(), t.Scan, nil
	}
	if t, ok := e.db.TxTable(name); ok {
		schema, err := tdb.NewSchema(
			tdb.Column{Name: "tid", Kind: tdb.KindInt},
			tdb.Column{Name: "at", Kind: tdb.KindTime},
			tdb.Column{Name: "item", Kind: tdb.KindString},
		)
		if err != nil {
			return tdb.Schema{}, nil, err
		}
		dict := e.db.Dict()
		scan := func(fn func(row tdb.Row) bool) {
			t.Each(func(tx tdb.Tx) bool {
				for _, it := range tx.Items {
					if !fn(tdb.Row{tdb.Int(tx.ID), tdb.Time(tx.At), tdb.Str(dict.Label(it))}) {
						return false
					}
				}
				return true
			})
		}
		return schema, scan, nil
	}
	return tdb.Schema{}, nil, fmt.Errorf("minisql: no table named %q", name)
}

func (e *Engine) execDescribe(s *DescribeStmt) (*Result, error) {
	schema, _, err := e.scanTarget(s.Table)
	if err != nil {
		return nil, err
	}
	res := &Result{Cols: []string{"column", "type"}}
	for _, c := range schema.Cols {
		res.Rows = append(res.Rows, tdb.Row{tdb.Str(c.Name), tdb.Str(c.Kind.String())})
	}
	return res, nil
}

func (e *Engine) execInsert(s *InsertStmt) (*Result, error) {
	t, ok := e.db.Table(s.Table)
	if !ok {
		if e.db.IsTxTable(s.Table) {
			return nil, fmt.Errorf("minisql: %q is a transaction table; load it with the data tools, not INSERT", s.Table)
		}
		return nil, fmt.Errorf("minisql: no table named %q", s.Table)
	}
	emptyEnv := &env{}
	for _, rowExprs := range s.Rows {
		row := make(tdb.Row, len(rowExprs))
		for i, ex := range rowExprs {
			v, err := eval(emptyEnv, ex)
			if err != nil {
				return nil, err
			}
			// Strings inserted into time columns coerce, like in
			// comparisons.
			if i < len(t.Schema().Cols) && t.Schema().Cols[i].Kind == tdb.KindTime {
				if c, ok := coerceTime(v); ok {
					v = c
				}
			}
			row[i] = v
		}
		if err := t.Insert(row); err != nil {
			return nil, err
		}
	}
	return message("%d row(s) inserted into %s", len(s.Rows), s.Table), nil
}

// mutableTable resolves a statement target that must be a relational
// table (transaction tables are append-only through the data tools).
func (e *Engine) mutableTable(name string) (*tdb.Table, error) {
	if t, ok := e.db.Table(name); ok {
		return t, nil
	}
	if e.db.IsTxTable(name) {
		return nil, fmt.Errorf("minisql: %q is a transaction table; it is append-only", name)
	}
	return nil, fmt.Errorf("minisql: no table named %q", name)
}

// whereMatcher compiles an optional WHERE into a row predicate.
func whereMatcher(schema tdb.Schema, where Expr) func(row tdb.Row) (bool, error) {
	return func(row tdb.Row) (bool, error) {
		if where == nil {
			return true, nil
		}
		v, err := eval(&env{schema: schema, row: row}, where)
		if err != nil {
			return false, err
		}
		return truthy(v)
	}
}

func (e *Engine) execDelete(s *DeleteStmt) (*Result, error) {
	t, err := e.mutableTable(s.Table)
	if err != nil {
		return nil, err
	}
	n, err := t.Delete(whereMatcher(t.Schema(), s.Where))
	if err != nil {
		return nil, err
	}
	return message("%d row(s) deleted from %s", n, s.Table), nil
}

func (e *Engine) execUpdate(s *UpdateStmt) (*Result, error) {
	t, err := e.mutableTable(s.Table)
	if err != nil {
		return nil, err
	}
	schema := t.Schema()
	cols := make([]int, len(s.Sets))
	for i, set := range s.Sets {
		idx := schema.ColIndex(set.Col)
		if idx < 0 {
			return nil, fmt.Errorf("minisql: unknown column %q", set.Col)
		}
		cols[i] = idx
	}
	n, err := t.Update(whereMatcher(schema, s.Where), func(row tdb.Row) (tdb.Row, error) {
		out := make(tdb.Row, len(row))
		copy(out, row)
		// All SET expressions see the row's old values, per SQL.
		ev := &env{schema: schema, row: row}
		for i, set := range s.Sets {
			v, err := eval(ev, set.Expr)
			if err != nil {
				return nil, err
			}
			if schema.Cols[cols[i]].Kind == tdb.KindTime {
				if c, ok := coerceTime(v); ok {
					v = c
				}
			}
			out[cols[i]] = v
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	return message("%d row(s) updated in %s", n, s.Table), nil
}

// aggSpec tracks one aggregate accumulation.
type aggSpec struct {
	node *Agg
	// accumulation state
	count    int64
	sum      float64
	sumIsInt bool
	intSum   int64
	min, max tdb.Value
	distinct map[string]bool
}

func collectAggs(exprs []Expr) []*aggSpec {
	var out []*aggSpec
	seen := map[*Agg]bool{}
	var walk func(Expr)
	walk = func(e Expr) {
		switch v := e.(type) {
		case *Agg:
			if !seen[v] {
				seen[v] = true
				out = append(out, &aggSpec{node: v, sumIsInt: true})
			}
		case *Binary:
			walk(v.L)
			walk(v.R)
		case *Unary:
			walk(v.E)
		case *IsNull:
			walk(v.E)
		case *InList:
			walk(v.E)
			for _, x := range v.List {
				walk(x)
			}
		}
	}
	for _, e := range exprs {
		if e != nil {
			walk(e)
		}
	}
	return out
}

func (a *aggSpec) add(ev *env) error {
	if a.node.E == nil { // COUNT(*)
		a.count++
		return nil
	}
	v, err := eval(ev, a.node.E)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil // SQL aggregates skip NULLs
	}
	if a.node.Distinct {
		if a.distinct == nil {
			a.distinct = make(map[string]bool)
		}
		key := fmt.Sprintf("%d|%v", v.K, v.Display())
		if a.distinct[key] {
			return nil
		}
		a.distinct[key] = true
	}
	a.count++
	switch a.node.Fn {
	case "sum", "avg":
		if !v.Numeric() {
			return fmt.Errorf("minisql: %s wants numbers, got %v", strings.ToUpper(a.node.Fn), v.K)
		}
		if v.K == tdb.KindInt {
			a.intSum += v.AsInt()
		} else {
			a.sumIsInt = false
		}
		a.sum += v.AsFloat()
	case "min":
		if a.min.IsNull() {
			a.min = v
		} else if c, err := v.Compare(a.min); err != nil {
			return err
		} else if c < 0 {
			a.min = v
		}
	case "max":
		if a.max.IsNull() {
			a.max = v
		} else if c, err := v.Compare(a.max); err != nil {
			return err
		} else if c > 0 {
			a.max = v
		}
	}
	return nil
}

func (a *aggSpec) value() tdb.Value {
	switch a.node.Fn {
	case "count":
		return tdb.Int(a.count)
	case "sum":
		if a.count == 0 {
			return tdb.Null()
		}
		if a.sumIsInt {
			return tdb.Int(a.intSum)
		}
		return tdb.Float(a.sum)
	case "avg":
		if a.count == 0 {
			return tdb.Null()
		}
		return tdb.Float(a.sum / float64(a.count))
	case "min":
		return a.min
	case "max":
		return a.max
	default:
		return tdb.Null()
	}
}

func (e *Engine) execSelect(s *SelectStmt) (*Result, error) {
	schema, scan, err := e.scanTarget(s.From)
	if err != nil {
		return nil, err
	}

	// Expand * and name the output columns.
	var outExprs []Expr
	var cols []string
	for _, se := range s.Exprs {
		if se.Star {
			for _, c := range schema.Cols {
				outExprs = append(outExprs, &ColRef{Name: c.Name})
				cols = append(cols, c.Name)
			}
			continue
		}
		outExprs = append(outExprs, se.Expr)
		name := se.Alias
		if name == "" {
			name = se.Expr.String()
		}
		cols = append(cols, name)
	}

	// ORDER BY may reference select-list aliases; the alias takes
	// precedence over a source column of the same name, as in standard
	// SQL.
	aliases := make(map[string]Expr)
	for i, se := range s.Exprs {
		if !se.Star && se.Alias != "" {
			aliases[strings.ToLower(se.Alias)] = s.Exprs[i].Expr
		}
	}
	orderBy := make([]OrderKey, len(s.OrderBy))
	copy(orderBy, s.OrderBy)
	for i, k := range orderBy {
		if ref, ok := k.Expr.(*ColRef); ok {
			if sub, ok := aliases[strings.ToLower(ref.Name)]; ok {
				orderBy[i].Expr = sub
			}
		}
	}
	s = &SelectStmt{Exprs: s.Exprs, From: s.From, Where: s.Where, GroupBy: s.GroupBy, Having: s.Having, OrderBy: orderBy, Limit: s.Limit}

	grouped := len(s.GroupBy) > 0 || s.Having != nil
	for _, ex := range outExprs {
		if hasAgg(ex) {
			grouped = true
		}
	}
	for _, k := range s.OrderBy {
		if hasAgg(k.Expr) {
			grouped = true
		}
	}

	// Collect filtered rows.
	var rows []tdb.Row
	var scanErr error
	scan(func(row tdb.Row) bool {
		if s.Where != nil {
			v, err := eval(&env{schema: schema, row: row}, s.Where)
			if err != nil {
				scanErr = err
				return false
			}
			ok, err := truthy(v)
			if err != nil {
				scanErr = err
				return false
			}
			if !ok {
				return true
			}
		}
		r := make(tdb.Row, len(row))
		copy(r, row)
		rows = append(rows, r)
		return true
	})
	if scanErr != nil {
		return nil, scanErr
	}

	// One output row per filtered row, or, grouped, per group that passes
	// HAVING: its environment, against which the projection and the ORDER
	// BY keys evaluate.
	var envs []*env
	if !grouped {
		envs = make([]*env, len(rows))
		for i, row := range rows {
			envs[i] = &env{schema: schema, row: row}
		}
	} else {
		var err error
		if envs, err = groupEnvs(s, schema, rows, outExprs); err != nil {
			return nil, err
		}
	}

	// All cells first, then the ORDER BY keys; one stable sort orders
	// both shapes.
	type outRow struct {
		cells tdb.Row
		keys  tdb.Row
	}
	out := make([]outRow, len(envs))
	for i, ev := range envs {
		out[i].cells = make(tdb.Row, len(outExprs))
		for j, ex := range outExprs {
			v, err := eval(ev, ex)
			if err != nil {
				return nil, err
			}
			out[i].cells[j] = v
		}
	}
	if len(s.OrderBy) > 0 {
		for i, ev := range envs {
			out[i].keys = make(tdb.Row, len(s.OrderBy))
			for j, k := range s.OrderBy {
				v, err := eval(ev, k.Expr)
				if err != nil {
					return nil, err
				}
				out[i].keys[j] = v
			}
		}
		var sortErr error
		sort.SliceStable(out, func(i, j int) bool {
			for k := range s.OrderBy {
				c, err := out[i].keys[k].Compare(out[j].keys[k])
				if err != nil {
					sortErr = err
					return false
				}
				if c != 0 {
					if s.OrderBy[k].Desc {
						return c > 0
					}
					return c < 0
				}
			}
			return false
		})
		if sortErr != nil {
			return nil, sortErr
		}
	}
	res := &Result{Cols: cols, Rows: make([]tdb.Row, len(out))}
	for i, r := range out {
		res.Rows[i] = r.cells
	}
	applyLimit(res, s.Limit)
	return res, nil
}

// groupEnvs keys rows by the GROUP BY expressions (empty GROUP BY means
// one global group) and returns one environment per group, in order of
// first appearance, that passes HAVING: the group's first row, against
// which non-aggregate expressions evaluate, and its aggregate values.
func groupEnvs(s *SelectStmt, schema tdb.Schema, rows []tdb.Row, outExprs []Expr) ([]*env, error) {
	type group struct {
		first tdb.Row
		aggs  []*aggSpec
	}
	allExprs := make([]Expr, 0, len(outExprs)+len(s.OrderBy)+1)
	allExprs = append(allExprs, outExprs...)
	for _, k := range s.OrderBy {
		allExprs = append(allExprs, k.Expr)
	}
	if s.Having != nil {
		allExprs = append(allExprs, s.Having)
	}

	groups := make(map[string]*group)
	var order []*group
	for _, row := range rows {
		ev := &env{schema: schema, row: row}
		var keyParts []string
		for _, ge := range s.GroupBy {
			v, err := eval(ev, ge)
			if err != nil {
				return nil, err
			}
			keyParts = append(keyParts, fmt.Sprintf("%d|%v", v.K, v.Display()))
		}
		key := strings.Join(keyParts, "\x00")
		g, ok := groups[key]
		if !ok {
			g = &group{first: row, aggs: collectAggs(allExprs)}
			groups[key] = g
			order = append(order, g)
		}
		for _, a := range g.aggs {
			if err := a.add(ev); err != nil {
				return nil, err
			}
		}
	}
	// An aggregate query with no GROUP BY over zero rows still yields
	// one row (COUNT(*) = 0).
	if len(order) == 0 && len(s.GroupBy) == 0 {
		order = append(order, &group{first: make(tdb.Row, len(schema.Cols)), aggs: collectAggs(allExprs)})
	}

	envs := make([]*env, 0, len(order))
	for _, g := range order {
		aggVals := make(map[*Agg]tdb.Value, len(g.aggs))
		for _, a := range g.aggs {
			aggVals[a.node] = a.value()
		}
		ev := &env{schema: schema, row: g.first, aggs: aggVals}
		if s.Having != nil {
			hv, err := eval(ev, s.Having)
			if err != nil {
				return nil, err
			}
			keep, err := truthy(hv)
			if err != nil {
				return nil, fmt.Errorf("minisql: HAVING: %w", err)
			}
			if !keep {
				continue
			}
		}
		envs = append(envs, ev)
	}
	return envs, nil
}

func applyLimit(res *Result, limit int) {
	if limit >= 0 && len(res.Rows) > limit {
		res.Rows = res.Rows[:limit]
	}
}

// Format renders a result as an aligned text table, REPL style, in one
// Write. Every cell is rendered once, by tdb.Value.AppendDisplay, into
// one arena. A column is as wide as its longest cell or header in
// bytes, and a cell is padded to that width by its rune count, so a
// non-ASCII cell carries extra padding — the layout the table has
// always had (it was %-*s over byte widths).
func Format(w io.Writer, res *Result) {
	widths := make([]int, len(res.Cols))
	for i, c := range res.Cols {
		widths[i] = len(c)
	}
	nCells := 0
	for _, row := range res.Rows {
		nCells += len(row)
	}
	arena := make([]byte, 0, 12*nCells)
	ends := make([]int32, 0, nCells) // ends[i] is where the i-th cell, row-major, ends
	for _, row := range res.Rows {
		for c, v := range row {
			start := len(arena)
			arena = v.AppendDisplay(arena)
			ends = append(ends, int32(len(arena)))
			if c < len(widths) && len(arena)-start > widths[c] {
				widths[c] = len(arena) - start
			}
		}
	}
	var sep []byte
	for _, wd := range widths {
		sep = append(sep, '+')
		sep = appendRepeat(sep, '-', wd+2)
	}
	sep = append(sep, "+\n"...)
	out := make([]byte, 0, len(sep)*(len(res.Rows)+4)+len(arena)+24)
	cell := func(s []byte, width int) {
		out = append(out, "| "...)
		out = append(out, s...)
		out = appendRepeat(out, ' ', width-utf8.RuneCount(s))
		out = append(out, ' ')
	}
	out = append(out, sep...)
	for i, c := range res.Cols {
		cell([]byte(c), widths[i])
	}
	out = append(out, "|\n"...)
	out = append(out, sep...)
	i, start := 0, int32(0)
	for _, row := range res.Rows {
		for c := range row {
			cell(arena[start:ends[i]], widths[c])
			start = ends[i]
			i++
		}
		out = append(out, "|\n"...)
	}
	out = append(out, sep...)
	out = strconv.AppendInt(out, int64(len(res.Rows)), 10)
	out = append(out, " row(s)\n"...)
	w.Write(out)
}

// appendRepeat appends n copies of c to b (none when n ≤ 0).
func appendRepeat(b []byte, c byte, n int) []byte {
	for ; n > 0; n-- {
		b = append(b, c)
	}
	return b
}
