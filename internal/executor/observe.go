package executor

import (
	"context"
	"sort"
	"time"

	"cgdqp/internal/cluster"
	"cgdqp/internal/expr"
	"cgdqp/internal/obs"
	"cgdqp/internal/plan"
)

// This file is the executor's observability layer: Run/RunParallel
// variants that report into an obs.Observer (execution spans, latency
// histograms, ledger-derived shipping stats from one consistent
// snapshot), per-operator profiling wrappers behind EXPLAIN ANALYZE,
// and the compliance audit record each Ship boundary emits. Every hook
// is nil-guarded so the unobserved paths keep their old cost.

// RunObserved is Run reporting into an observer (nil behaves like Run).
// When the observer carries a PlanProfile, every operator is wrapped to
// collect actual rows/batches (and, for a timed profile, time).
func RunObserved(p *plan.Node, c *cluster.Cluster, o *obs.Observer) ([]expr.Row, *RunStats, error) {
	return RunObservedContext(context.Background(), p, c, o)
}

// RunObservedContext is RunObserved under a caller context. The run's
// shipping statistics come from a per-run ledger scope, so concurrent
// executions over one Cluster each report exactly their own transfers.
func RunObservedContext(ctx context.Context, p *plan.Node, c *cluster.Cluster, o *obs.Observer) ([]expr.Row, *RunStats, error) {
	return RunObservedOpts(ctx, p, c, o, defaultExecOptions())
}

// RunObservedOpts is RunObservedContext under explicit execution
// options (kernel gate, wire encoding).
func RunObservedOpts(ctx context.Context, p *plan.Node, c *cluster.Cluster, o *obs.Observer, opt ExecOptions) ([]expr.Row, *RunStats, error) {
	sp := o.StartSpan("execute.sequential")
	m := o.Reg()
	var t0 time.Time
	if m != nil {
		t0 = time.Now()
	}
	scope := c.NewRun()
	op, err := buildObs(p, buildEnv{c: c, scope: scope, ctx: ctx, obsv: o, opt: opt})
	if err != nil {
		finishExec(sp, m, "seq", t0, 0, err)
		return nil, nil, err
	}
	rows, err := Collect(op)
	if err != nil {
		finishExec(sp, m, "seq", t0, 0, err)
		return nil, nil, err
	}
	stats := scopeStats(scope, int64(len(rows)))
	finishExec(sp, m, "seq", t0, stats.RowsOut, nil)
	return rows, stats, nil
}

// scopeStats derives a run's statistics from its private ledger scope.
func scopeStats(scope *cluster.RunScope, rowsOut int64) *RunStats {
	snap := scope.Ledger().Snapshot()
	return &RunStats{
		RowsOut:      rowsOut,
		ShippedRows:  snap.Rows,
		ShippedBytes: snap.Bytes,
		ShipCost:     snap.Cost,
		Retries:      scope.Retries(),
	}
}

// finishExec closes an execution span and records the per-engine
// execution counter and latency histogram.
func finishExec(sp obs.Span, m *obs.Registry, engine string, t0 time.Time, rowsOut int64, err error) {
	status := "ok"
	if err != nil {
		status = "error"
	}
	if sp.Enabled() {
		sp.TagInt("rows_out", rowsOut).Tag("outcome", status).End()
	}
	if m != nil {
		m.Counter("cgdqp_executions_total", "engine", engine, "status", status).Inc()
		if err == nil {
			m.Histogram("cgdqp_execute_seconds", "engine", engine).Observe(time.Since(t0).Seconds())
		}
	}
}

// auditRecFor builds the audit-record template of one Ship boundary:
// which base relations the shipped stream derives from, which columns
// cross the edge, and the compliance justification — the shipping trait
// the optimizer proved for the stream (every site in ShipT may legally
// receive it, ToLoc included), or "unchecked" when the plan was built
// without compliance annotation.
func auditRecFor(n *plan.Node) obs.AuditRecord {
	src := n
	if len(n.Children) > 0 {
		src = n.Children[0]
	}
	seen := map[string]bool{}
	var rels []string
	for _, s := range src.Tables() {
		if s.Table == nil || seen[s.Table.Name] {
			continue
		}
		seen[s.Table.Name] = true
		rels = append(rels, s.Table.Name)
	}
	sort.Strings(rels)
	cols := make([]string, len(src.Cols))
	for i, c := range src.Cols {
		cols[i] = c.Key()
	}
	sort.Strings(cols)
	just := "unchecked"
	if !n.ShipT.Empty() {
		just = "ship-trait " + n.ShipT.String() + " permits " + n.ToLoc
	}
	return obs.AuditRecord{
		From: n.FromLoc, To: n.ToLoc,
		Relations: rels, Columns: cols,
		Justification: just,
	}
}

// --- profiling wrappers --------------------------------------------------

// profOp wraps a row operator with actual-stats collection: rows, opens
// and ends of stream always, and — under a timed profile (EXPLAIN
// ANALYZE) — wall time inclusive of children, measured around the full
// Open/Next call (nested operators are wrapped too). A counting profile
// never reads the clock.
type profOp struct {
	op    Operator
	stats *obs.OpStats
	timed bool
	ended bool // this open's end of stream is already counted
}

func newProfOp(op Operator, prof *obs.PlanProfile, n *plan.Node) *profOp {
	return &profOp{op: op, stats: prof.Stats(n), timed: prof.Timed()}
}

func (p *profOp) Open() error {
	var t0 time.Time
	if p.timed {
		t0 = time.Now()
	}
	err := p.op.Open()
	if p.timed {
		p.stats.AddTime(time.Since(t0))
	}
	p.stats.Opens.Add(1)
	p.ended = false
	return err
}

func (p *profOp) Next() (expr.Row, bool, error) {
	var t0 time.Time
	if p.timed {
		t0 = time.Now()
	}
	row, ok, err := p.op.Next()
	if p.timed {
		p.stats.AddTime(time.Since(t0))
	}
	switch {
	case ok:
		p.stats.Rows.Add(1)
	case err == nil && !p.ended:
		p.ended = true
		p.stats.EOS.Add(1)
	}
	return row, ok, err
}

func (p *profOp) Close() error { return p.op.Close() }

// batchProfOp is profOp for the batch engine: rows and batches are
// counted per delivered batch.
type batchProfOp struct {
	op    BatchOperator
	stats *obs.OpStats
	timed bool
	ended bool
}

func newBatchProfOp(op BatchOperator, prof *obs.PlanProfile, n *plan.Node) *batchProfOp {
	return &batchProfOp{op: op, stats: prof.Stats(n), timed: prof.Timed()}
}

func (p *batchProfOp) Open() error {
	var t0 time.Time
	if p.timed {
		t0 = time.Now()
	}
	err := p.op.Open()
	if p.timed {
		p.stats.AddTime(time.Since(t0))
	}
	p.stats.Opens.Add(1)
	p.ended = false
	return err
}

func (p *batchProfOp) NextBatch() (*Batch, error) {
	var t0 time.Time
	if p.timed {
		t0 = time.Now()
	}
	b, err := p.op.NextBatch()
	if p.timed {
		p.stats.AddTime(time.Since(t0))
	}
	switch {
	case b != nil:
		p.stats.Rows.Add(int64(b.Len()))
		p.stats.Batches.Add(1)
	case err == nil && !p.ended:
		p.ended = true
		p.stats.EOS.Add(1)
	}
	return b, err
}

func (p *batchProfOp) Close() error { return p.op.Close() }
