// Package plan is the logical-plan / physical-operator layer between
// the TML executor and the mining kernel. A MINE statement compiles to
// a chain of operators (scan → hold acquisition → task mining → prune
// → limit → render); the same plan object drives both execution and
// EXPLAIN, so what EXPLAIN prints is — by construction — what runs.
//
// Each operator is a Node: an operator name from the shared vocabulary
// below, a detail list for EXPLAIN, the input node, and a Run closure
// holding the physical implementation. Execute walks the chain leaf
// first, threading a context.Context (checked before every operator;
// the operators themselves push it into the counting loops) and
// wrapping every operator in an "op:<name>" tracer span plus a
// caller-timed duration: the statement's trace records that duration
// on the span (where the journal, EXPLAIN and -stats read it) and the
// metrics registry folds it into a per-operator histogram.
package plan

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/tarm-project/tarm/internal/obs"
)

// Operator names. Mining operators are "mine:" plus the obs task
// vocabulary key (mine:periods, mine:during, …) so tracer spans,
// EXPLAIN and metric labels agree.
const (
	OpScan       = "scan"
	OpBuildHold  = "build-hold"  // cold hold-table build
	OpCachedHold = "cached-hold" // hold table served from the HoldCache
	OpPrune      = "prune"
	OpRender     = "render"
	OpLimit      = "limit"
)

// MineOp derives the mining operator name from a task vocabulary key,
// e.g. MineOp(obs.TaskPeriods) == "mine:periods".
func MineOp(task string) string { return "mine:" + task }

// KV is one EXPLAIN detail of a node, rendered as key=value.
type KV struct{ Key, Val string }

// Node is one operator of a plan. Plans are single-input chains: Input
// points at the producer, nil for the leaf (the scan).
type Node struct {
	Op     string
	Detail []KV
	Input  *Node
	// Run executes the operator: in is the input operator's output (nil
	// for the leaf). Implementations should check ctx inside their own
	// long loops; Execute checks it between operators.
	Run func(ctx context.Context, in any) (any, error)
}

// With appends a detail and returns the node, for fluent construction.
func (n *Node) With(key, val string) *Node {
	n.Detail = append(n.Detail, KV{Key: key, Val: val})
	return n
}

// describe renders "op (k=v, k=v)".
func (n *Node) describe() string {
	if len(n.Detail) == 0 {
		return n.Op
	}
	var b strings.Builder
	b.WriteString(n.Op)
	b.WriteString(" (")
	for i, d := range n.Detail {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(d.Key)
		b.WriteByte('=')
		b.WriteString(d.Val)
	}
	b.WriteByte(')')
	return b.String()
}

// Chain returns the operators of the plan rooted at root in execution
// order: leaf (scan) first, root (the result-shaping tail) last.
func Chain(root *Node) []*Node {
	var rev []*Node
	for n := root; n != nil; n = n.Input {
		rev = append(rev, n)
	}
	out := make([]*Node, len(rev))
	for i, n := range rev {
		out[len(rev)-1-i] = n
	}
	return out
}

// Execute runs the plan rooted at root: each operator in execution
// order, its input the previous operator's output. The context is
// checked before every operator, so a cancelled statement stops at the
// next operator boundary even when an operator ignores ctx; operators
// that loop (builds, task mining) observe ctx themselves and return
// promptly. Every operator is wrapped in an "op:<name>" tracer span
// and its duration is reported through obs.ObserveSpan, so the trace's
// op spans carry the caller-timed wall time (a failed final operator
// included) and the metrics registry grows one duration histogram per
// operator. On error the output is nil.
func Execute(ctx context.Context, root *Node, tr obs.Tracer) (any, error) {
	if root == nil {
		return nil, fmt.Errorf("plan: empty plan")
	}
	tr = obs.OrNop(tr)
	trace := tr.Enabled()
	var in any
	for _, n := range Chain(root) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if n.Run == nil {
			return nil, fmt.Errorf("plan: operator %q has no implementation", n.Op)
		}
		span := obs.OpSpan(n.Op)
		if trace {
			tr.StartTask(span)
			// The statement's trace gets each operator's EXPLAIN
			// details as span attributes, so the span tree carries the
			// same backend/threshold annotations EXPLAIN prints.
			if t := obs.TraceFromContext(ctx); t != nil {
				for _, kv := range n.Detail {
					t.SetAttr(kv.Key, kv.Val)
				}
			}
		}
		t0 := time.Now()
		out, err := n.Run(ctx, in)
		d := time.Since(t0)
		if trace {
			tr.EndTask()
			obs.ObserveSpan(tr, span, d)
		}
		if err != nil {
			return nil, err
		}
		in = out
	}
	return in, nil
}

// Explain renders the plan as an indented tree, root first — the
// conventional EXPLAIN orientation: the top line is what the statement
// returns, each child below it is that operator's input.
//
//	render (cols=antecedent, consequent, ...)
//	└─ limit (n=10)
//	   └─ mine:periods (min_length=2)
//	      └─ cached-hold (cache=rethreshold, backend=bitmap)
//	         └─ scan (table=baskets, transactions=280)
func Explain(root *Node) []string {
	var lines []string
	depth := 0
	for n := root; n != nil; n = n.Input {
		prefix := ""
		if depth > 0 {
			prefix = strings.Repeat("   ", depth-1) + "└─ "
		}
		lines = append(lines, prefix+n.describe())
		depth++
	}
	return lines
}
