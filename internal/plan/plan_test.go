package plan

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/tarm-project/tarm/internal/obs"
)

// opSpans runs the plan under a trace and returns the op spans it
// recorded, in start order.
func opSpans(t *testing.T, ctx context.Context, root *Node) (any, []string, error) {
	t.Helper()
	tr := obs.NewTrace("")
	out, err := Execute(obs.ContextWithTrace(ctx, tr), root, tr)
	var ops []string
	for _, o := range obs.Summarize(tr.Tree()).Ops {
		ops = append(ops, o.Op)
	}
	return out, ops, err
}

// chain3 builds scan → mine:periods → render with Run closures that
// record execution order and thread values through.
func chain3(order *[]string) *Node {
	scan := &Node{
		Op: OpScan,
		Run: func(ctx context.Context, in any) (any, error) {
			*order = append(*order, OpScan)
			return 1, nil
		},
	}
	scan.With("table", "baskets")
	mine := &Node{
		Op:    MineOp(obs.TaskPeriods),
		Input: scan,
		Run: func(ctx context.Context, in any) (any, error) {
			*order = append(*order, "mine")
			return in.(int) + 1, nil
		},
	}
	render := &Node{
		Op:    OpRender,
		Input: mine,
		Run: func(ctx context.Context, in any) (any, error) {
			*order = append(*order, OpRender)
			return in.(int) + 1, nil
		},
	}
	return render
}

func TestChainOrder(t *testing.T) {
	var order []string
	root := chain3(&order)
	chain := Chain(root)
	if len(chain) != 3 {
		t.Fatalf("chain length = %d, want 3", len(chain))
	}
	if chain[0].Op != OpScan || chain[1].Op != "mine:periods" || chain[2].Op != OpRender {
		t.Fatalf("chain order = %s, %s, %s", chain[0].Op, chain[1].Op, chain[2].Op)
	}
}

func TestExecuteThreadsOutputs(t *testing.T) {
	var order []string
	root := chain3(&order)
	out, err := Execute(context.Background(), root, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out != 3 {
		t.Fatalf("out = %v, want 3 (scan=1, +1 per operator)", out)
	}
	if got := strings.Join(order, ","); got != "scan,mine,render" {
		t.Fatalf("execution order = %s", got)
	}
}

func TestExecuteCancelled(t *testing.T) {
	var order []string
	root := chain3(&order)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Execute(ctx, root, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(order) != 0 {
		t.Fatalf("operators ran under a cancelled context: %v", order)
	}
}

func TestExecuteCancelBetweenOperators(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	scan := &Node{Op: OpScan, Run: func(context.Context, any) (any, error) {
		cancel() // fires after the scan completes
		return nil, nil
	}}
	render := &Node{Op: OpRender, Input: scan, Run: func(context.Context, any) (any, error) {
		t.Fatal("render ran after cancellation")
		return nil, nil
	}}
	_, ops, err := opSpans(t, ctx, render)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(ops) != 1 || ops[0] != "op:scan" {
		t.Fatalf("op spans = %v, want just the scan", ops)
	}
}

func TestExecuteEmptyAndUnimplemented(t *testing.T) {
	if _, err := Execute(context.Background(), nil, nil); err == nil {
		t.Fatal("nil root: want error")
	}
	n := &Node{Op: OpLimit}
	if _, err := Execute(context.Background(), n, nil); err == nil || !strings.Contains(err.Error(), "no implementation") {
		t.Fatalf("nil Run: err = %v", err)
	}
}

func TestExecuteOperatorError(t *testing.T) {
	boom := errors.New("boom")
	scan := &Node{Op: OpScan, Run: func(context.Context, any) (any, error) {
		return nil, boom
	}}
	out, ops, err := opSpans(t, context.Background(), scan)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if out != nil {
		t.Fatalf("out = %v, want nil on error", out)
	}
	if len(ops) != 1 {
		t.Fatalf("op spans = %v, want the failed operator measured", ops)
	}
}

func TestExecuteEmitsOpSpans(t *testing.T) {
	var order []string
	root := chain3(&order)
	root.With("cols", "3")
	tr := obs.NewTrace("")
	if _, err := Execute(obs.ContextWithTrace(context.Background(), tr), root, tr); err != nil {
		t.Fatal(err)
	}
	forest := tr.Tree()
	var ops []string
	for _, n := range forest {
		ops = append(ops, n.Name)
	}
	if got := strings.Join(ops, ","); got != "op:scan,op:mine:periods,op:render" {
		t.Fatalf("op spans = %s, want one per operator in execution order", got)
	}
	if forest[0].Attrs["table"] != "baskets" || forest[2].Attrs["cols"] != "3" {
		t.Errorf("op span attrs = %v / %v, want the plan details", forest[0].Attrs, forest[2].Attrs)
	}
}

func TestExplainTree(t *testing.T) {
	var order []string
	root := chain3(&order)
	root.With("cols", "3")
	lines := Explain(root)
	want := []string{
		"render (cols=3)",
		"└─ mine:periods",
		"   └─ scan (table=baskets)",
	}
	if len(lines) != len(want) {
		t.Fatalf("lines = %q", lines)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
}

func TestDescribeMultipleDetails(t *testing.T) {
	n := &Node{Op: OpBuildHold}
	n.With("cache", "cold").With("support", "0.1")
	if got := n.describe(); got != "build-hold (cache=cold, support=0.1)" {
		t.Fatalf("describe = %q", got)
	}
}
