package executor

import (
	"context"
	"fmt"
	"sync"
	"time"

	"cgdqp/internal/cluster"
	"cgdqp/internal/expr"
	"cgdqp/internal/network"
	"cgdqp/internal/obs"
	"cgdqp/internal/plan"
	"cgdqp/internal/store"
)

// This file implements the parallel, batch-oriented execution engine.
//
// A located plan is split at Ship boundaries into per-site fragments
// (see plan.SplitFragments): every Ship operator becomes an exchange —
// a bounded channel of batches — and the subtree below it runs as a
// producer on its own goroutine. Within a fragment, streaming operators
// (scan, filter, project, limit, union) are vectorized over batches;
// blocking operators (joins, aggregates, sorts) reuse the row-at-a-time
// implementations through thin adapters, so their semantics stay
// single-sourced with the sequential engine.
//
// Determinism: every exchange has exactly one producer and preserves its
// order, and consumers drain inputs in the same order as the sequential
// engine, so the parallel engine emits the same rows in the same order
// — and charges the ledger the same ShippedRows/ShippedBytes/ShipCost —
// as Run. Only wall-clock time differs: independent fragments overlap.

// exchangeDepth bounds the batches buffered per exchange; producers run
// at most exchangeDepth×BatchSize rows ahead of their consumer.
const exchangeDepth = 4

// RunParallel executes a located physical plan with the parallel engine
// and materializes its result. It is a drop-in replacement for Run:
// same rows (in the same order) and identical shipping statistics.
func RunParallel(p *plan.Node, c *cluster.Cluster) ([]expr.Row, *RunStats, error) {
	return RunParallelContext(context.Background(), p, c)
}

// RunParallelContext is RunParallel under a caller context: cancelling
// it (or hitting its deadline) tears down every fragment goroutine —
// producers observe the cancellation at their next channel send, retry
// backoff, or batch boundary — and the call returns only after all of
// them have exited, so no goroutine or ledger entry is left dangling.
func RunParallelContext(ctx context.Context, p *plan.Node, c *cluster.Cluster) ([]expr.Row, *RunStats, error) {
	return RunParallelObserved(ctx, p, c, nil)
}

// RunParallelObserved is RunParallelContext reporting into an observer
// (nil behaves like RunParallelContext): an execution span and latency
// histogram around the run, a fragment span plus compliance audit
// record per exchange producer, and per-operator actuals when the
// observer carries a PlanProfile.
func RunParallelObserved(ctx context.Context, p *plan.Node, c *cluster.Cluster, o *obs.Observer) ([]expr.Row, *RunStats, error) {
	return RunParallelOpts(ctx, p, c, o, defaultExecOptions())
}

// RunParallelOpts is RunParallelObserved under explicit execution
// options (kernel gate, wire encoding).
func RunParallelOpts(ctx context.Context, p *plan.Node, c *cluster.Cluster, o *obs.Observer, opt ExecOptions) ([]expr.Row, *RunStats, error) {
	sp := o.StartSpan("execute.parallel")
	m := o.Reg()
	var t0 time.Time
	if m != nil {
		t0 = time.Now()
	}
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	eng := &parallelEngine{c: c, scope: c.NewRun(), ctx: ctx, obsv: o, opt: opt}
	root, err := buildParallel(p, eng)
	if err != nil {
		finishExec(sp, m, "parallel", t0, 0, err)
		return nil, nil, err
	}
	eng.start()
	rows, err := CollectBatches(root)
	// Closing the root drained every exchange, so producers have either
	// finished or (on error) are observing the cancelled context.
	cancel()
	eng.wg.Wait()
	if err != nil {
		finishExec(sp, m, "parallel", t0, 0, err)
		return nil, nil, err
	}
	if err := parent.Err(); err != nil {
		// The caller cancelled (or timed out) while producers were
		// winding down: their closed exchanges look like clean ends of
		// stream, so guard against returning a partial result as
		// success.
		finishExec(sp, m, "parallel", t0, 0, err)
		return nil, nil, err
	}
	stats := scopeStats(eng.scope, int64(len(rows)))
	finishExec(sp, m, "parallel", t0, stats.RowsOut, nil)
	return rows, stats, nil
}

// CollectBatches drains a batch operator into a row slice.
func CollectBatches(op BatchOperator) ([]expr.Row, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	var out []expr.Row
	for {
		b, err := op.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		out = append(out, b.Rows()...)
		b.Release()
	}
}

// parallelEngine carries the per-execution state shared by fragments.
type parallelEngine struct {
	c         *cluster.Cluster
	scope     *cluster.RunScope
	ctx       context.Context
	wg        sync.WaitGroup
	producers []*exchangeProducer
	obsv      *obs.Observer
	opt       ExecOptions
}

// start launches every fragment producer. Producers begin executing
// immediately — like the sequential engine, which materializes each
// Ship's input fully at Open, every fragment runs exactly once and to
// completion, so eager start changes overlap, not semantics.
func (e *parallelEngine) start() {
	for _, p := range e.producers {
		e.wg.Add(1)
		go func(p *exchangeProducer) {
			defer e.wg.Done()
			p.run()
		}(p)
	}
}

// buildParallel compiles a plan node into a batch operator tree,
// registering one exchange producer per Ship boundary. Expression
// binding happens here, on the building goroutine, before any producer
// starts — bound expressions are only read during execution. When the
// engine's observer carries a PlanProfile, every node's operator is
// wrapped to collect per-node actuals.
func buildParallel(n *plan.Node, eng *parallelEngine) (BatchOperator, error) {
	op, err := buildParallelNode(n, eng)
	if err != nil {
		return nil, err
	}
	if prof := eng.obsv.Prof(); prof != nil {
		op = newBatchProfOp(op, prof, n)
	}
	return op, nil
}

func buildParallelNode(n *plan.Node, eng *parallelEngine) (BatchOperator, error) {
	switch n.Kind {
	case plan.Ship:
		src, err := buildParallel(n.Children[0], eng)
		if err != nil {
			return nil, err
		}
		ch := make(chan exchangeMsg, exchangeDepth)
		eng.producers = append(eng.producers, &exchangeProducer{
			node: n, src: src, ch: ch, c: eng.c, scope: eng.scope, ctx: eng.ctx, obsv: eng.obsv,
			enc: network.WireEncoder{Opt: eng.opt.Wire},
		})
		return &exchangeOp{ch: ch}, nil
	case plan.TableScan, plan.Scan:
		op, err := newScan(n, eng.c)
		if err != nil {
			return nil, err
		}
		return &batchScanOp{scan: op.(*scanOp)}, nil
	case plan.IndexScan:
		op, err := newIndexScan(n, eng.c)
		if err != nil {
			return nil, err
		}
		return &rowsToBatches{op: op}, nil
	case plan.FilterExec, plan.Filter:
		src, err := buildParallel(n.Children[0], eng)
		if err != nil {
			return nil, err
		}
		pred, err := expr.Bind(n.Pred, resolver(n.Children[0]))
		if err != nil {
			return nil, fmt.Errorf("executor: filter bind: %w", err)
		}
		types := colTypes(n.Children[0])
		return &batchFilterOp{src: src, pred: pred, kern: compilePred(pred, types, eng.opt.kernels()), types: types}, nil
	case plan.ProjectExec, plan.Project:
		src, err := buildParallel(n.Children[0], eng)
		if err != nil {
			return nil, err
		}
		res := resolver(n.Children[0])
		exprs := make([]expr.Expr, len(n.Projs))
		for i, p := range n.Projs {
			bound, err := expr.Bind(p.E, res)
			if err != nil {
				return nil, fmt.Errorf("executor: project bind %s: %w", p.E, err)
			}
			exprs[i] = bound
		}
		types := colTypes(n.Children[0])
		// Fuse with a vectorized filter child: the filter's surviving
		// selection vector drives the projection kernels over a shared
		// columnar view. Profiling wraps operators, so the assertion
		// fails and fusion is skipped under EXPLAIN ANALYZE.
		if f, ok := src.(*batchFilterOp); ok && f.kern != nil && eng.opt.kernels() {
			return &batchFilterProjectOp{
				src: f.src, pred: f.pred, kern: f.kern, types: f.types,
				exprs: exprs, proj: compileProj(exprs, types, true),
			}, nil
		}
		return &batchProjectOp{src: src, exprs: exprs, proj: compileProj(exprs, types, eng.opt.kernels()), types: types}, nil
	case plan.LimitExec, plan.Limit:
		src, err := buildParallel(n.Children[0], eng)
		if err != nil {
			return nil, err
		}
		return &batchLimitOp{src: src, n: n.LimitN}, nil
	case plan.UnionAll, plan.Union:
		children := make([]BatchOperator, len(n.Children))
		for i, ch := range n.Children {
			op, err := buildParallel(ch, eng)
			if err != nil {
				return nil, err
			}
			children[i] = op
		}
		return &batchUnionOp{children: children}, nil
	}
	// Blocking operators materialize their inputs anyway. Hash join (and
	// every NL join node the hash path can take) and hash aggregate
	// consume the columnar batches natively through chunk feeds — no row
	// adapter on their inputs; merge join, the remaining NL joins and
	// sort reuse the row implementations via adapters.
	var op Operator
	var err error
	switch eng.opt.execKind(n) {
	case plan.HashJoin:
		left, lerr := buildParallel(n.Children[0], eng)
		if lerr != nil {
			return nil, lerr
		}
		right, rerr := buildParallel(n.Children[1], eng)
		if rerr != nil {
			return nil, rerr
		}
		op, err = newHashJoinBatch(n, left, right, eng.opt.kernels())
	case plan.HashAgg, plan.Aggregate:
		src, serr := buildParallel(n.Children[0], eng)
		if serr != nil {
			return nil, serr
		}
		op, err = newHashAggBatch(n, src, eng.opt.kernels())
	case plan.IndexLookupJoin:
		// Only the outer child executes; the inner scan is reached through
		// the index probes.
		outer, oerr := buildParallel(n.Children[0], eng)
		if oerr != nil {
			return nil, oerr
		}
		op, err = newIndexLookupJoin(n, &batchesToRows{src: outer}, eng.c)
	case plan.MergeJoin, plan.NLJoin, plan.Join, plan.SortExec, plan.Sort:
		children := make([]Operator, len(n.Children))
		for i, ch := range n.Children {
			src, cerr := buildParallel(ch, eng)
			if cerr != nil {
				return nil, cerr
			}
			children[i] = &batchesToRows{src: src}
		}
		switch n.Kind {
		case plan.MergeJoin:
			op, err = newMergeJoin(n, children[0], children[1])
		case plan.NLJoin, plan.Join:
			op, err = newNLJoin(n, children[0], children[1])
		default:
			op, err = newSort(n, children[0])
		}
	default:
		return nil, fmt.Errorf("executor: unsupported operator %s", n.Kind)
	}
	if err != nil {
		return nil, err
	}
	return &rowsToBatches{op: op}, nil
}

// --- exchange ------------------------------------------------------------

// exchangeMsg is one hop over an exchange: a serialized wire frame or a
// terminal error.
type exchangeMsg struct {
	frame []byte
	err   error
}

// exchangeProducer runs one plan fragment on its own goroutine, feeding
// its Ship boundary: it drives the fragment's operator tree batch by
// batch, repacks the stream into BatchSize-row wire frames — the same
// framing the sequential shipOp applies to its materialized stream, so
// both engines encode byte-identical frames — charges the cluster
// ledger the encoded size of each frame, applies the simulated wire
// delay, and sends the frames downstream in order. The consuming
// exchangeOp decodes them back into batches.
type exchangeProducer struct {
	node  *plan.Node
	src   BatchOperator
	ch    chan exchangeMsg
	c     *cluster.Cluster
	scope *cluster.RunScope
	ctx   context.Context
	obsv  *obs.Observer
	enc   network.WireEncoder
	// sent* accumulate what the producer actually delivered; only the
	// producer goroutine touches them. On a clean end of stream they
	// become the fragment's compliance audit record — a producer that
	// errors out mid-stream records nothing, keeping the audit log
	// deterministic (partial, interleaving-dependent deliveries never
	// appear in it).
	sentRows, sentBytes, sentBatches int64
}

func (p *exchangeProducer) run() {
	defer close(p.ch)
	sp := p.obsv.StartSpan("exec.fragment").
		Tag("from", p.node.FromLoc).Tag("to", p.node.ToLoc)
	err := p.produce()
	if sp.Enabled() {
		outcome := "ok"
		if err != nil {
			outcome = "error"
		}
		sp.TagInt("rows", p.sentRows).TagInt("batches", p.sentBatches).
			Tag("outcome", outcome).End()
	}
	if err == nil {
		if a := p.obsv.AuditSink(); a != nil {
			rec := auditRecFor(p.node)
			rec.Rows, rec.Bytes, rec.Batches = p.sentRows, p.sentBytes, p.sentBatches
			a.Record(rec)
		}
		return
	}
	select {
	case p.ch <- exchangeMsg{err: err}:
	case <-p.ctx.Done():
	}
}

func (p *exchangeProducer) produce() error {
	if err := p.src.Open(); err != nil {
		return err
	}
	defer p.src.Close()
	ship := p.scope.OpenShipment(p.node.FromLoc, p.node.ToLoc)
	// The start-up cost α (one round trip) is paid when the connection
	// opens; per-frame sends below pay the bandwidth part.
	p.c.SleepWire(p.c.Net.Alpha(p.node.FromLoc, p.node.ToLoc))
	cal := p.c.Calibrator()
	pending := make([]expr.Row, 0, BatchSize)
	frameIdx := 0
	flush := func(rows []expr.Row) error {
		frame := p.enc.Encode(rows)
		// The encoder reuses its buffer; the frame crossing the channel
		// must own its bytes.
		buf := append([]byte(nil), frame...)
		if cal != nil {
			cal.ObserveEncoding(widthSum(rows), int64(len(buf)))
		}
		// The resilient shipping path injects faults, retries with
		// backoff, and charges the shipment only when the frame lands,
		// so retried runs keep ledger parity with a fault-free one.
		if err := p.scope.ShipBatch(p.ctx, ship, p.node.FromLoc, p.node.ToLoc, frameIdx, int64(len(rows)), int64(len(buf))); err != nil {
			return err
		}
		frameIdx++
		p.sentRows += int64(len(rows))
		p.sentBytes += int64(len(buf))
		p.sentBatches++
		select {
		case p.ch <- exchangeMsg{frame: buf}:
			return nil
		case <-p.ctx.Done():
			return p.ctx.Err()
		}
	}
	for {
		b, err := p.src.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			if len(pending) > 0 {
				if err := flush(pending); err != nil {
					return err
				}
			}
			if cal != nil {
				// One affine sample per completed shipment: total
				// encoded bytes against the modeled edge cost.
				cal.ObserveShip(p.node.FromLoc, p.node.ToLoc, p.sentBytes,
					p.c.Net.ShipCost(p.node.FromLoc, p.node.ToLoc, float64(p.sentBytes)))
			}
			return nil
		}
		rows := b.Rows()
		for len(rows) > 0 {
			take := BatchSize - len(pending)
			if take > len(rows) {
				take = len(rows)
			}
			pending = append(pending, rows[:take]...)
			rows = rows[take:]
			if len(pending) == BatchSize {
				if err := flush(pending); err != nil {
					b.Release()
					return err
				}
				pending = pending[:0]
			}
		}
		b.Release()
	}
}

// exchangeOp is the consuming side of an exchange: a batch operator
// decoding the producer's wire frames back into batches, in order, at
// the destination site.
type exchangeOp struct {
	ch   <-chan exchangeMsg
	done bool
}

func (e *exchangeOp) Open() error { return nil }

func (e *exchangeOp) NextBatch() (*Batch, error) {
	if e.done {
		return nil, nil
	}
	msg, ok := <-e.ch
	if !ok {
		e.done = true
		return nil, nil
	}
	if msg.err != nil {
		e.done = true
		return nil, msg.err
	}
	// Frames decode straight into column vectors: downstream kernels run
	// on the decoded lanes with no row materialization, and the row view
	// (when an operator does need it) reproduces DecodeBatch exactly.
	b := NewBatch()
	if err := network.DecodeBatchCols(msg.frame, b.Data()); err != nil {
		b.Release()
		e.done = true
		return nil, fmt.Errorf("executor: exchange frame decode: %w", err)
	}
	return b, nil
}

// Close drains the remaining stream so an abandoned producer (e.g.
// under a LIMIT) still runs to completion and its shipment accounting
// matches the sequential engine, which always materializes Ship inputs
// fully.
func (e *exchangeOp) Close() error {
	for range e.ch {
	}
	e.done = true
	return nil
}

// --- adapters ------------------------------------------------------------

// rowsToBatches lifts a row operator into the batch engine by gathering
// its output into BatchSize vectors.
type rowsToBatches struct {
	op Operator
}

func (r *rowsToBatches) Open() error { return r.op.Open() }

func (r *rowsToBatches) NextBatch() (*Batch, error) {
	b := NewBatch()
	buf := b.rowBuf[:0]
	for len(buf) < BatchSize {
		row, ok, err := r.op.Next()
		if err != nil {
			b.rowBuf = buf
			b.Release()
			return nil, err
		}
		if !ok {
			break
		}
		buf = append(buf, row)
	}
	b.rowBuf = buf
	if len(buf) == 0 {
		b.Release()
		return nil, nil
	}
	b.SetRows(buf)
	return b, nil
}

func (r *rowsToBatches) Close() error { return r.op.Close() }

// batchesToRows lowers a batch operator to the row interface for the
// blocking operators that consume rows one at a time.
type batchesToRows struct {
	src  BatchOperator
	cur  *Batch
	rows []expr.Row
	pos  int
}

func (b *batchesToRows) Open() error { return b.src.Open() }

func (b *batchesToRows) Next() (expr.Row, bool, error) {
	for {
		if b.pos < len(b.rows) {
			row := b.rows[b.pos]
			b.pos++
			return row, true, nil
		}
		b.cur.Release()
		b.cur, b.rows = nil, nil
		next, err := b.src.NextBatch()
		if err != nil {
			return nil, false, err
		}
		if next == nil {
			return nil, false, nil
		}
		b.cur = next
		b.rows = next.Rows()
		b.pos = 0
	}
}

func (b *batchesToRows) Close() error {
	b.cur.Release()
	b.cur, b.rows = nil, nil
	return b.src.Close()
}

// --- vectorized streaming operators --------------------------------------

// batchScanOp emits a table fragment's rows as batches. Persistent
// fragments stream page by page through a store.Iterator, each page
// decoding straight into the batch's column vectors — no row
// materialization between disk and the kernels; the in-memory backend
// keeps the zero-copy row-aliasing path.
type batchScanOp struct {
	scan *scanOp
	it   *store.Iterator
	pos  int
}

func (s *batchScanOp) Open() error {
	s.pos, s.it = 0, nil
	n := s.scan.node
	if n.FragIdx >= 0 || !n.Table.Fragmented() {
		it, ok, err := s.scan.c.FragmentBatches(n.Table, n.FragIdx)
		if err != nil {
			return err
		}
		if ok {
			s.it = it
			return nil
		}
	}
	return s.scan.Open()
}

func (s *batchScanOp) NextBatch() (*Batch, error) {
	if s.it != nil {
		b := NewBatch()
		ok, err := s.it.NextBatch(b.Data())
		if err != nil || !ok {
			b.Release()
			return nil, err
		}
		return b, nil
	}
	rows := s.scan.rows
	if s.pos >= len(rows) {
		return nil, nil
	}
	end := s.pos + BatchSize
	if end > len(rows) {
		end = len(rows)
	}
	// The batch aliases the fragment's rows — no copy; columns are built
	// lazily (and at most once) by the first kernel consumer.
	b := NewBatch()
	b.SetRows(rows[s.pos:end])
	s.pos = end
	return b, nil
}

func (s *batchScanOp) Close() error {
	s.it = nil
	return s.scan.Close()
}

// runSelect narrows a batch's selection through a compiled predicate,
// in place: the surviving selection lives in batch-owned storage either
// way. ok is false when the kernel could not evaluate the batch — the
// selection is left exactly as before then (a partially compacted
// selection is restored from scratch), so the interpreter fallback sees
// the original rows.
func runSelect(kern *expr.PredKernel, b *Batch, d *expr.Batch, scratch *[]int32) ([]int32, bool) {
	if cur := b.Sel(); cur != nil {
		// Select compacts a non-nil selection in place as it goes; keep a
		// copy so an error can undo the partial compaction.
		*scratch = append((*scratch)[:0], cur...)
		sel, err := kern.Select(d, cur, nil)
		if err != nil {
			copy(cur, *scratch)
			b.compactSel(cur)
			return nil, false
		}
		b.compactSel(sel)
		return sel, true
	}
	sel, err := kern.Select(d, nil, b.SelBuf())
	if err != nil {
		return nil, false
	}
	b.setSel(sel)
	return sel, true
}

// batchFilterOp narrows each batch to its qualifying rows. With a
// compiled predicate only the selection vector changes — no rows move
// and no columns rebuild; a batch the kernel cannot handle is re-run
// row by row into batch-owned row storage (never compacted in place:
// row-backed batches may alias upstream rows).
type batchFilterOp struct {
	src     BatchOperator
	pred    expr.Expr
	kern    *vecPred
	types   []expr.Type
	selCopy []int32
}

func (f *batchFilterOp) Open() error { return f.src.Open() }

func (f *batchFilterOp) NextBatch() (*Batch, error) {
	for {
		b, err := f.src.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		if f.kern != nil {
			d := b.Data()
			d.Bind(f.types)
			if sel, ok := runSelect(f.kern.kern, b, d, &f.selCopy); ok {
				if len(sel) > 0 {
					return b, nil
				}
				b.Release()
				continue
			}
		}
		// Interpreter re-run over the (selected) row view; survivors are
		// gathered into the batch's own row storage.
		rows := b.Rows()
		kept := b.rowBuf[:0]
		for _, row := range rows {
			keep, err := expr.EvalBool(f.pred, row)
			if err != nil {
				b.Release()
				return nil, err
			}
			if keep {
				kept = append(kept, row)
			}
		}
		b.rowBuf = kept
		b.SetRows(kept)
		if b.Len() > 0 {
			return b, nil
		}
		b.Release()
	}
}

func (f *batchFilterOp) Close() error { return f.src.Close() }

// batchProjectOp evaluates the projection over each input batch. The
// fast path is fully columnar: kernel outputs, gathered passthroughs
// and broadcast constants land in the output batch's own vectors, and
// no row materializes. Batches that path cannot handle exactly fall
// back to kernel-assisted row assembly, then to the interpreter.
type batchProjectOp struct {
	src   BatchOperator
	exprs []expr.Expr
	proj  *vecProj
	types []expr.Type
}

func (p *batchProjectOp) Open() error { return p.src.Open() }

func (p *batchProjectOp) NextBatch() (*Batch, error) {
	in, err := p.src.NextBatch()
	if err != nil || in == nil {
		return nil, err
	}
	out := NewBatch()
	if p.proj != nil {
		d := in.Data()
		d.Bind(p.types)
		if p.proj.applyCols(d, in.Sel(), out.Data()) {
			in.Release()
			return out, nil
		}
		if rows, ok := p.proj.apply(d, in.Sel(), out.rowBuf[:0]); ok {
			out.rowBuf = rows
			out.SetRows(rows)
			in.Release()
			return out, nil
		}
	}
	buf := out.rowBuf[:0]
	for _, row := range in.Rows() {
		proj, err := projectRow(p.exprs, row)
		if err != nil {
			in.Release()
			out.rowBuf = buf
			out.Release()
			return nil, err
		}
		buf = append(buf, proj)
	}
	out.rowBuf = buf
	out.SetRows(buf)
	in.Release()
	return out, nil
}

func (p *batchProjectOp) Close() error { return p.src.Close() }

// batchFilterProjectOp is the fused filter+projection of the parallel
// engine: the predicate narrows the batch's selection vector, which
// drives the projection kernels directly over the same columnar view —
// surviving rows are never materialized between the two. Batches either
// kernel cannot handle re-run row by row — filter then project, in row
// order — matching the interpreter.
type batchFilterProjectOp struct {
	src     BatchOperator
	pred    expr.Expr
	kern    *vecPred
	types   []expr.Type
	exprs   []expr.Expr
	proj    *vecProj // nil: passthrough/interpreted outputs only
	selCopy []int32
}

func (p *batchFilterProjectOp) Open() error { return p.src.Open() }

func (p *batchFilterProjectOp) NextBatch() (*Batch, error) {
	for {
		in, err := p.src.NextBatch()
		if err != nil || in == nil {
			return nil, err
		}
		out, done, err := p.processBatch(in)
		if err != nil {
			return nil, err
		}
		if done {
			if out != nil {
				return out, nil
			}
			continue
		}
		// Full interpreter re-run of the batch, in row order.
		out = NewBatch()
		buf := out.rowBuf[:0]
		for _, row := range in.Rows() {
			keep, err := expr.EvalBool(p.pred, row)
			if err != nil {
				in.Release()
				out.rowBuf = buf
				out.Release()
				return nil, err
			}
			if !keep {
				continue
			}
			proj, err := projectRow(p.exprs, row)
			if err != nil {
				in.Release()
				out.rowBuf = buf
				out.Release()
				return nil, err
			}
			buf = append(buf, proj)
		}
		out.rowBuf = buf
		out.SetRows(buf)
		in.Release()
		if out.Len() > 0 {
			return out, nil
		}
		out.Release()
	}
}

// processBatch runs the kernel path over one batch: predicate selection
// plus the columnar (or kernel-assisted row) projection. done is false
// when the batch must be re-run through the interpreter; in is NOT
// released then and its selection is unchanged.
func (p *batchFilterProjectOp) processBatch(in *Batch) (*Batch, bool, error) {
	d := in.Data()
	d.Bind(p.types)
	sel, ok := runSelect(p.kern.kern, in, d, &p.selCopy)
	if !ok {
		return nil, false, nil
	}
	if len(sel) == 0 {
		in.Release()
		return nil, true, nil
	}
	out := NewBatch()
	if p.proj != nil {
		if p.proj.applyCols(d, sel, out.Data()) {
			in.Release()
			return out, true, nil
		}
		if rows, applied := p.proj.apply(d, sel, out.rowBuf[:0]); applied {
			out.rowBuf = rows
			out.SetRows(rows)
			in.Release()
			return out, true, nil
		}
		out.Release()
		return nil, false, nil
	}
	buf := out.rowBuf[:0]
	for _, si := range sel {
		proj, err := projectRow(p.exprs, d.Row(int(si)))
		if err != nil {
			out.rowBuf = buf
			out.Release()
			return nil, false, nil
		}
		buf = append(buf, proj)
	}
	out.rowBuf = buf
	out.SetRows(buf)
	in.Release()
	return out, true, nil
}

func (p *batchFilterProjectOp) Close() error { return p.src.Close() }

// batchLimitOp truncates the stream after n rows.
type batchLimitOp struct {
	src  BatchOperator
	n    int64
	seen int64
}

func (l *batchLimitOp) Open() error {
	l.seen = 0
	return l.src.Open()
}

func (l *batchLimitOp) NextBatch() (*Batch, error) {
	if l.seen >= l.n {
		return nil, nil
	}
	b, err := l.src.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	if remain := l.n - l.seen; int64(b.Len()) > remain {
		b.Truncate(int(remain))
	}
	l.seen += int64(b.Len())
	return b, nil
}

func (l *batchLimitOp) Close() error { return l.src.Close() }

// batchUnionOp concatenates its children's streams in order. All
// children are opened up front — matching the sequential engine — so
// exchange inputs of later branches fill their buffers while earlier
// branches drain.
type batchUnionOp struct {
	children []BatchOperator
	idx      int
}

func (u *batchUnionOp) Open() error {
	u.idx = 0
	for _, c := range u.children {
		if err := c.Open(); err != nil {
			return err
		}
	}
	return nil
}

func (u *batchUnionOp) NextBatch() (*Batch, error) {
	for u.idx < len(u.children) {
		b, err := u.children[u.idx].NextBatch()
		if err != nil {
			return nil, err
		}
		if b != nil {
			return b, nil
		}
		u.idx++
	}
	return nil, nil
}

func (u *batchUnionOp) Close() error {
	var firstErr error
	for _, c := range u.children {
		if err := c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
