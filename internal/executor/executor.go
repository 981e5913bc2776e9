// Package executor runs physical query execution plans over the
// simulated geo-distributed cluster using the Volcano iterator model
// (Open / Next / Close). SHIP operators move rows through the simulated
// WAN and charge the message cost model via the cluster's ledger, which
// is how the plan-quality experiments (Figures 6g/6h) measure execution
// cost.
package executor

import (
	"context"
	"fmt"
	"math"
	"sort"

	"cgdqp/internal/cluster"
	"cgdqp/internal/expr"
	"cgdqp/internal/network"
	"cgdqp/internal/obs"
	"cgdqp/internal/plan"
)

// Operator is the Volcano iterator interface.
type Operator interface {
	Open() error
	// Next returns the next row; ok is false at end of stream.
	Next() (row expr.Row, ok bool, err error)
	Close() error
}

// RunStats summarizes one execution.
type RunStats struct {
	RowsOut      int64
	ShippedRows  int64
	ShippedBytes int64
	// ShipCost is the simulated communication cost (ms) of all SHIP
	// operators, priced by the cluster's message cost model.
	ShipCost float64
	// Retries counts failed send attempts that the shipping path
	// recovered (or gave up on) under the cluster's fault plan; always
	// 0 when no faults are injected.
	Retries int64
}

// Run executes a located physical plan sequentially (one goroutine,
// row at a time) and materializes its result. RunParallel is the
// batch-parallel equivalent with identical results and statistics;
// RunObserved additionally reports into an observer.
func Run(p *plan.Node, c *cluster.Cluster) ([]expr.Row, *RunStats, error) {
	return RunObserved(p, c, nil)
}

// RunContext is Run under a caller context: cancelling it makes the
// next SHIP boundary (including its in-flight retry backoff) return
// the context error instead of starting new work.
func RunContext(ctx context.Context, p *plan.Node, c *cluster.Cluster) ([]expr.Row, *RunStats, error) {
	return RunObservedContext(ctx, p, c, nil)
}

// Collect drains an operator into a slice.
func Collect(op Operator) ([]expr.Row, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	defer op.Close()
	var out []expr.Row
	for {
		row, ok, err := op.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, row)
	}
}

// Build compiles a physical plan node into an operator tree.
func Build(n *plan.Node, c *cluster.Cluster) (Operator, error) {
	return buildObs(n, buildEnv{c: c, ctx: context.Background(), opt: defaultExecOptions()})
}

// buildEnv bundles the per-execution context an operator tree is built
// under: the cluster, an optional per-run accounting scope (nil charges
// the shared ledger only, as Build always did), the cancellation
// context Ship boundaries honor, the observer, and the execution
// options (kernel gate, wire encoding).
type buildEnv struct {
	c     *cluster.Cluster
	scope *cluster.RunScope
	ctx   context.Context
	obsv  *obs.Observer
	opt   ExecOptions
}

// buildObs is Build threading a build environment: Ship operators
// report audit records into its observer, honor its context and charge
// its run scope; when the observer carries a PlanProfile every operator
// is wrapped to collect per-node actuals.
func buildObs(n *plan.Node, env buildEnv) (Operator, error) {
	children := make([]Operator, len(n.Children))
	for i, ch := range n.Children {
		op, err := buildObs(ch, env)
		if err != nil {
			return nil, err
		}
		children[i] = op
	}
	var op Operator
	var err error
	switch env.opt.execKind(n) {
	case plan.TableScan, plan.Scan:
		op, err = newScan(n, env.c)
	case plan.IndexScan:
		op, err = newIndexScan(n, env.c)
	case plan.IndexLookupJoin:
		// The inner scan child (children[1]) is reached through the index
		// probes, never executed as an operator.
		op, err = newIndexLookupJoin(n, children[0], env.c)
	case plan.FilterExec, plan.Filter:
		op, err = newFilter(n, children[0], env.opt.kernels())
	case plan.ProjectExec, plan.Project:
		op, err = newProject(n, children[0], env.opt.kernels())
	case plan.HashJoin:
		op, err = newHashJoin(n, children[0], children[1], env.opt.kernels())
	case plan.MergeJoin:
		op, err = newMergeJoin(n, children[0], children[1])
	case plan.NLJoin, plan.Join:
		op, err = newNLJoin(n, children[0], children[1])
	case plan.HashAgg, plan.Aggregate:
		op, err = newHashAgg(n, children[0], env.opt.kernels())
	case plan.SortExec, plan.Sort:
		op, err = newSort(n, children[0])
	case plan.LimitExec, plan.Limit:
		op = newLimit(n, children[0])
	case plan.UnionAll, plan.Union:
		op = newUnion(children)
	case plan.Ship:
		op = newShip(n, children[0], env)
	default:
		return nil, fmt.Errorf("executor: unsupported operator %s", n.Kind)
	}
	if err != nil {
		return nil, err
	}
	if prof := env.obsv.Prof(); prof != nil {
		op = newProfOp(op, prof, n)
	}
	return op, nil
}

// resolver builds a column resolver over a plan node's output schema.
func resolver(n *plan.Node) expr.Resolver {
	keys := make([]string, len(n.Cols))
	for i, c := range n.Cols {
		keys[i] = c.Key()
	}
	return expr.SliceResolver(keys)
}

// --- scan ---------------------------------------------------------------

type scanOp struct {
	node *plan.Node
	c    *cluster.Cluster
	rows []expr.Row
	pos  int
}

func newScan(n *plan.Node, c *cluster.Cluster) (Operator, error) {
	if n.Table == nil {
		return nil, fmt.Errorf("executor: scan without table")
	}
	return &scanOp{node: n, c: c}, nil
}

func (s *scanOp) Open() error {
	var err error
	if s.node.FragIdx < 0 && s.node.Table.Fragmented() {
		s.rows, err = s.c.AllRows(s.node.Table)
	} else {
		s.rows, err = s.c.FragmentRows(s.node.Table, s.node.FragIdx)
	}
	s.pos = 0
	return err
}

func (s *scanOp) Next() (expr.Row, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	row := s.rows[s.pos]
	s.pos++
	return row, true, nil
}

func (s *scanOp) Close() error {
	s.rows = nil
	return nil
}

// --- filter -------------------------------------------------------------

type filterOp struct {
	child Operator
	pred  expr.Expr
}

func newFilter(n *plan.Node, child Operator, vec bool) (Operator, error) {
	bound, err := expr.Bind(n.Pred, resolver(n.Children[0]))
	if err != nil {
		return nil, fmt.Errorf("executor: filter bind: %w", err)
	}
	if p := compilePred(bound, colTypes(n.Children[0]), vec); p != nil {
		f := &vecFilterOp{child: child, pred: bound, kern: p, types: colTypes(n.Children[0])}
		f.data.Bind(f.types)
		return f, nil
	}
	return &filterOp{child: child, pred: bound}, nil
}

func (f *filterOp) Open() error { return f.child.Open() }

func (f *filterOp) Next() (expr.Row, bool, error) {
	for {
		row, ok, err := f.child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		keep, err := expr.EvalBool(f.pred, row)
		if err != nil {
			return nil, false, err
		}
		if keep {
			return row, true, nil
		}
	}
}

func (f *filterOp) Close() error { return f.child.Close() }

// vecFilterOp is filterOp over micro-batches: it pulls vecChunk rows,
// runs the compiled predicate over the columnar view, and replays the
// survivors. A batch the kernel cannot handle is re-run row by row, so
// results and error behavior match the interpreter.
type vecFilterOp struct {
	child Operator
	pred  expr.Expr
	kern  *vecPred
	types []expr.Type
	data  expr.Batch
	buf   []expr.Row
	out   []expr.Row
	pos   int
	done  bool
	// pendErr is an interpreter error found mid-chunk: survivors before
	// the failing row drain first, exactly like the row-at-a-time path.
	pendErr error
}

func (f *vecFilterOp) Open() error {
	f.out, f.pos, f.done, f.pendErr = nil, 0, false, nil
	return f.child.Open()
}

// fillChunk pulls up to vecChunk rows from op into buf.
func fillChunk(op Operator, buf []expr.Row) ([]expr.Row, bool, error) {
	buf = buf[:0]
	for len(buf) < vecChunk {
		row, ok, err := op.Next()
		if err != nil {
			return buf, false, err
		}
		if !ok {
			return buf, true, nil
		}
		buf = append(buf, row)
	}
	return buf, false, nil
}

func (f *vecFilterOp) Next() (expr.Row, bool, error) {
	for {
		if f.pos < len(f.out) {
			row := f.out[f.pos]
			f.pos++
			return row, true, nil
		}
		if f.pendErr != nil {
			return nil, false, f.pendErr
		}
		if f.done {
			return nil, false, nil
		}
		var eos bool
		var err error
		f.buf, eos, err = fillChunk(f.child, f.buf)
		if err != nil {
			return nil, false, err
		}
		f.done = eos
		f.out, f.pos = f.out[:0], 0
		if len(f.buf) == 0 {
			continue
		}
		f.data.SetRows(f.buf)
		if sel, ok := f.kern.selectRows(&f.data); ok {
			for _, si := range sel {
				f.out = append(f.out, f.buf[si])
			}
			continue
		}
		// Interpreter re-run: keep survivors up to the failing row.
		for _, row := range f.buf {
			keep, err := expr.EvalBool(f.pred, row)
			if err != nil {
				f.pendErr = err
				break
			}
			if keep {
				f.out = append(f.out, row)
			}
		}
	}
}

func (f *vecFilterOp) Close() error { return f.child.Close() }

// --- project ------------------------------------------------------------

type projectOp struct {
	child Operator
	exprs []expr.Expr
}

func newProject(n *plan.Node, child Operator, vec bool) (Operator, error) {
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
	// selection vector drives the projection kernels directly, and both
	// share one columnar view of the batch. (Profiling wraps operators,
	// so the assertion fails and fusion is skipped under EXPLAIN
	// ANALYZE, keeping per-node actuals intact.)
	if f, ok := child.(*vecFilterOp); ok && vec {
		fp := &vecFilterProjectOp{
			child: f.child, pred: f.pred, kern: f.kern, types: types,
			exprs: exprs, proj: compileProj(exprs, types, true),
		}
		fp.data.Bind(types)
		return fp, nil
	}
	if p := compileProj(exprs, types, vec); p != nil {
		vp := &vecProjectOp{child: child, exprs: exprs, proj: p, types: types}
		vp.data.Bind(types)
		return vp, nil
	}
	return &projectOp{child: child, exprs: exprs}, nil
}

func (p *projectOp) Open() error { return p.child.Open() }

func (p *projectOp) Next() (expr.Row, bool, error) {
	row, ok, err := p.child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	out := make(expr.Row, len(p.exprs))
	for i, e := range p.exprs {
		v, err := expr.Eval(e, row)
		if err != nil {
			return nil, false, err
		}
		out[i] = v
	}
	return out, true, nil
}

func (p *projectOp) Close() error { return p.child.Close() }

// vecProjectOp is projectOp over micro-batches with compiled kernels.
type vecProjectOp struct {
	child   Operator
	exprs   []expr.Expr
	proj    *vecProj
	types   []expr.Type
	data    expr.Batch
	buf     []expr.Row
	out     []expr.Row
	pos     int
	done    bool
	pendErr error
}

func (p *vecProjectOp) Open() error {
	p.out, p.pos, p.done, p.pendErr = nil, 0, false, nil
	return p.child.Open()
}

func (p *vecProjectOp) Next() (expr.Row, bool, error) {
	for {
		if p.pos < len(p.out) {
			row := p.out[p.pos]
			p.pos++
			return row, true, nil
		}
		if p.pendErr != nil {
			return nil, false, p.pendErr
		}
		if p.done {
			return nil, false, nil
		}
		var eos bool
		var err error
		p.buf, eos, err = fillChunk(p.child, p.buf)
		if err != nil {
			return nil, false, err
		}
		p.done = eos
		p.out, p.pos = p.out[:0], 0
		if len(p.buf) == 0 {
			continue
		}
		p.data.SetRows(p.buf)
		if out, ok := p.proj.apply(&p.data, nil, p.out); ok {
			p.out = out
			continue
		}
		for _, row := range p.buf {
			proj, err := projectRow(p.exprs, row)
			if err != nil {
				p.pendErr = err
				break
			}
			p.out = append(p.out, proj)
		}
	}
}

func (p *vecProjectOp) Close() error { return p.child.Close() }

// vecFilterProjectOp is the fused filter+projection: one columnar view
// per chunk, the predicate's selection vector fed straight into the
// projection kernels. A chunk either path cannot handle is re-run row
// by row — filter then project, in row order — matching the
// interpreter's error timing.
type vecFilterProjectOp struct {
	child   Operator
	pred    expr.Expr
	kern    *vecPred
	types   []expr.Type
	data    expr.Batch
	exprs   []expr.Expr
	proj    *vecProj // nil: passthrough/interpreted outputs only
	buf     []expr.Row
	out     []expr.Row
	pos     int
	done    bool
	pendErr error
}

func (p *vecFilterProjectOp) Open() error {
	p.out, p.pos, p.done, p.pendErr = nil, 0, false, nil
	return p.child.Open()
}

func (p *vecFilterProjectOp) Next() (expr.Row, bool, error) {
	for {
		if p.pos < len(p.out) {
			row := p.out[p.pos]
			p.pos++
			return row, true, nil
		}
		if p.pendErr != nil {
			return nil, false, p.pendErr
		}
		if p.done {
			return nil, false, nil
		}
		var eos bool
		var err error
		p.buf, eos, err = fillChunk(p.child, p.buf)
		if err != nil {
			return nil, false, err
		}
		p.done = eos
		p.out, p.pos = p.out[:0], 0
		if len(p.buf) == 0 {
			continue
		}
		p.data.SetRows(p.buf)
		if sel, ok := p.kern.selectRows(&p.data); ok {
			if p.proj != nil {
				if out, applied := p.proj.apply(&p.data, sel, p.out); applied {
					p.out = out
					continue
				}
			} else {
				rowsOK := true
				for _, si := range sel {
					proj, err := projectRow(p.exprs, p.buf[si])
					if err != nil {
						rowsOK = false
						break
					}
					p.out = append(p.out, proj)
				}
				if rowsOK {
					continue
				}
				p.out = p.out[:0]
			}
		}
		// Full interpreter re-run of the chunk, in row order.
		for _, row := range p.buf {
			keep, err := expr.EvalBool(p.pred, row)
			if err != nil {
				p.pendErr = err
				break
			}
			if !keep {
				continue
			}
			proj, err := projectRow(p.exprs, row)
			if err != nil {
				p.pendErr = err
				break
			}
			p.out = append(p.out, proj)
		}
	}
}

func (p *vecFilterProjectOp) Close() error { return p.child.Close() }

// --- hash join ----------------------------------------------------------

// hashJoinOp joins a probe stream (left) against a hash table built from
// the right child. Both sides are consumed a chunk at a time through a
// chunkFeed, so the operator is engine-agnostic: the sequential engine
// feeds it row-operator chunks, the parallel engine its columnar batches
// with no row round trip. With kernels on and every equi-key a bare
// column, hashing reads the key columns directly (bit-identical to
// hashKey), build rows link into per-hash chains alongside typed key
// copies, and hash-collision rechecks compare typed lanes; any chunk
// that does not vectorize falls back to the row path with identical
// results and error timing.
//
// A candidate pair matches when its keys are equal under Value.Compare
// (the recheck behind every hash hit) and then the residual holds, so
// the residual is evaluated only on key-equal pairs, all of which a
// nested loop over the same predicate evaluates too. A float NaN key is
// the one value no hash can place: Compare orders NaN equal to every
// number. Probe rows with a NaN key — and every probe row once a build
// row has one — are therefore joined by the full predicate against all
// build rows in arrival order, the nested loop's own rule.
type hashJoinOp struct {
	node         *plan.Node
	probe, build chunkFeed
	leftKeys     []expr.Expr // bound against left schema
	rightKeys    []expr.Expr // bound against right schema
	residual     expr.Expr   // bound against concatenated schema
	cond         expr.Expr   // the whole predicate, concatenated schema

	vec            bool  // kernels on and all equi-keys are bare columns
	lCols, rCols   []int // key column indexes per side
	lTypes, rTypes []expr.Type
	eqMode         []keyEqMode
	typedEq        bool // every key pair rechecks through typed lanes

	// Build side, vectorized mode: rows in arrival order, with per-hash
	// chains. table maps a key hash to its chain's first and last row;
	// next links rows within one, so chain iteration order matches the
	// row path's per-hash append order. buildRows holds every build row
	// with no NULL key, in both modes.
	buildRows   []expr.Row
	table       chainTable
	next        []int32
	keyArrs     []joinKeyArr // typed build keys, valid while buildKeysOK
	buildKeysOK bool
	// Build side, row mode: the reference hash table, one row slice per
	// key hash in arrival order. Kept deliberately simple — it is the
	// baseline the vectorized mode is measured and checked against.
	rowBuckets map[uint64][]expr.Row
	// wild: a build row has a NaN key (see the type comment).
	wild bool

	// Probe state: the first probe chunk is peeked at Open (to skip the
	// hash-table build when the probe side is provably empty) and
	// replayed on the first Next.
	pending *Batch
	peeked  bool
	out     []expr.Row
	pos     int
	done    bool
	// pendErr is an error found mid-chunk: matches emitted before the
	// failing row drain first, exactly like the row-at-a-time path.
	pendErr error

	keyVecs []*expr.Vec // scratch: key vectors of the current chunk
	pairs   [][2]int32  // scratch: (probe row, build row) matches
	scratch expr.Row    // scratch: a candidate pair's joined row
}

// keyEqMode is the typed recheck strategy for one equi-key pair, fixed
// from the static lane types of both sides. Any eqSlow key makes the
// whole recheck go through the row path's Value.Compare, preserving its
// error and coercion behavior for lane combinations it would reject.
type keyEqMode uint8

const (
	eqInt   keyEqMode = iota // both integer-class: int64 equality
	eqFloat                  // numeric with a float side: Compare's <//> over Float()
	eqStr                    // both strings
	eqSlow                   // anything else: row-path Compare
)

func keyMode(lt, rt expr.Type) keyEqMode {
	intClass := func(t expr.Type) bool { return t == expr.TInt || t == expr.TDate }
	numeric := func(t expr.Type) bool { return intClass(t) || t == expr.TFloat }
	switch {
	case intClass(lt) && intClass(rt):
		return eqInt
	case (lt == expr.TFloat || rt == expr.TFloat) && numeric(lt) && numeric(rt):
		return eqFloat
	case lt == expr.TString && rt == expr.TString:
		return eqStr
	}
	return eqSlow
}

// joinKeyArr stores one build-side key column as a typed array parallel
// to buildRows — the target of the typed collision recheck.
type joinKeyArr struct {
	t expr.Type
	i []int64
	f []float64
	s []string
}

func (a *joinKeyArr) reset() { a.i, a.f, a.s = a.i[:0], a.f[:0], a.s[:0] }

func (a *joinKeyArr) appendFrom(v *expr.Vec, i int) {
	switch a.t {
	case expr.TInt, expr.TDate:
		a.i = append(a.i, v.I[i])
	case expr.TFloat:
		a.f = append(a.f, v.F[i])
	case expr.TString:
		a.s = append(a.s, v.S[i])
	case expr.TBool:
		var x int64
		if v.B.Get(i) {
			x = 1
		}
		a.i = append(a.i, x)
	}
}

func (a *joinKeyArr) float(i int32) float64 {
	if a.t == expr.TFloat {
		return a.f[i]
	}
	return float64(a.i[i])
}

// chainTable is the vectorized join's hash index: an open-addressed
// (linear probing) table from a 64-bit key hash to that hash's chain of
// build rows. The chain's first and last row indexes live in the slot
// itself, so a probe hit resolves in one 16-byte slot read — no chain-id
// indirection through side arrays.
type chainSlot struct {
	hash       uint64
	head, tail int32 // head -1: empty slot
}

type chainTable struct {
	slots []chainSlot
	mask  uint64
	used  int
	limit int // grow past this occupancy (¾ load)
}

// reset empties the table, sized for about `hint` distinct keys.
func (t *chainTable) reset(hint int) {
	need := 1024
	for need < hint*2 {
		need <<= 1
	}
	if cap(t.slots) >= need {
		t.slots = t.slots[:need]
	} else {
		t.slots = make([]chainSlot, need)
	}
	for i := range t.slots {
		t.slots[i] = chainSlot{head: -1}
	}
	t.mask = uint64(need - 1)
	t.used = 0
	t.limit = need * 3 / 4
}

// lookup returns the first build row chained under h, or -1.
func (t *chainTable) lookup(h uint64) int32 {
	i := h & t.mask
	for {
		s := &t.slots[i]
		if s.head < 0 || s.hash == h {
			return s.head
		}
		i = (i + 1) & t.mask
	}
}

// slot returns the position holding h, claiming an empty slot (head
// still -1) if the hash is new. The caller fills head/tail.
func (t *chainTable) slot(h uint64) uint64 {
	if t.used >= t.limit {
		t.grow()
	}
	i := h & t.mask
	for {
		s := &t.slots[i]
		if s.head < 0 || s.hash == h {
			return i
		}
		i = (i + 1) & t.mask
	}
}

// grow rehashes into a table 8× larger: the hint is often missing, so
// steep growth keeps the total reinsertion work a small fraction of
// the build.
func (t *chainTable) grow() {
	old := t.slots
	need := 8 * len(old)
	t.slots = make([]chainSlot, need)
	for i := range t.slots {
		t.slots[i].head = -1
	}
	t.mask = uint64(need - 1)
	t.limit = need * 3 / 4
	for _, s := range old {
		if s.head < 0 {
			continue
		}
		j := s.hash & t.mask
		for t.slots[j].head >= 0 {
			j = (j + 1) & t.mask
		}
		t.slots[j] = s
	}
}

func newHashJoin(n *plan.Node, left, right Operator, vec bool) (Operator, error) {
	return makeHashJoin(n, &opFeed{op: left}, &opFeed{op: right}, vec)
}

// newHashJoinBatch is newHashJoin consuming the parallel engine's
// columnar batches directly — no row adapter on the inputs.
func newHashJoinBatch(n *plan.Node, left, right BatchOperator, vec bool) (Operator, error) {
	return makeHashJoin(n, &batchFeed{src: left}, &batchFeed{src: right}, vec)
}

// equiKeys splits a join predicate into its column = column conjuncts
// whose columns bind one to each child — left keys bound against the
// left schema, right keys against the right — and the remaining
// residual conjuncts, in predicate order.
func equiKeys(n *plan.Node) (lk, rk, residual []expr.Expr) {
	lres := resolver(n.Children[0])
	rres := resolver(n.Children[1])
	for _, c := range expr.Conjuncts(n.Pred) {
		cmp, ok := c.(*expr.Cmp)
		if ok && cmp.Op == expr.EQ {
			lc, lok := cmp.L.(*expr.Col)
			rc, rok := cmp.R.(*expr.Col)
			if lok && rok {
				if bl, err := expr.Bind(lc, lres); err == nil {
					if br, err := expr.Bind(rc, rres); err == nil {
						lk = append(lk, bl)
						rk = append(rk, br)
						continue
					}
				}
				// Reversed sides.
				if bl, err := expr.Bind(rc, lres); err == nil {
					if br, err := expr.Bind(lc, rres); err == nil {
						lk = append(lk, bl)
						rk = append(rk, br)
						continue
					}
				}
			}
		}
		residual = append(residual, c)
	}
	return lk, rk, residual
}

// hashNL reports whether an NLJoin/Join node runs on the hash-join
// path, with its right (inner) child as the build side: its predicate
// has a column = column conjunct and no key pair whose lane types force
// the eqSlow recheck, where Value.Compare can raise an incomparable-type
// error on pairs the hash table never pairs up. The hash path emits the
// nested loop's rows in the nested loop's order — per outer row, its
// matches in inner arrival order — so only the local algorithm changes.
func (o ExecOptions) hashNL(n *plan.Node) bool {
	if o.nestedLoop {
		return false
	}
	lk, rk, _ := equiKeys(n)
	if len(lk) == 0 {
		return false
	}
	lt, rt := colTypes(n.Children[0]), colTypes(n.Children[1])
	for i := range lk {
		if keyMode(lt[lk[i].(*expr.Col).Index], rt[rk[i].(*expr.Col).Index]) == eqSlow {
			return false
		}
	}
	return true
}

// execKind is the operator kind a node executes as: NLJoin/Join nodes
// the hash path can take run as HashJoin.
func (o ExecOptions) execKind(n *plan.Node) plan.Kind {
	if (n.Kind == plan.NLJoin || n.Kind == plan.Join) && o.hashNL(n) {
		return plan.HashJoin
	}
	return n.Kind
}

func makeHashJoin(n *plan.Node, probe, build chunkFeed, vec bool) (Operator, error) {
	lk, rk, residual := equiKeys(n)
	if len(lk) == 0 {
		return nil, fmt.Errorf("executor: hash join without equi-key: %v", n.Pred)
	}
	cond, err := expr.Bind(n.Pred, resolver(n))
	if err != nil {
		return nil, fmt.Errorf("executor: join predicate bind: %w", err)
	}
	var res expr.Expr
	if len(residual) > 0 {
		bound, err := expr.Bind(expr.AndAll(residual...), resolver(n))
		if err != nil {
			return nil, fmt.Errorf("executor: join residual bind: %w", err)
		}
		res = bound
	}
	j := &hashJoinOp{
		node: n, probe: probe, build: build,
		leftKeys: lk, rightKeys: rk, residual: res, cond: cond,
		lTypes: colTypes(n.Children[0]), rTypes: colTypes(n.Children[1]),
	}
	if vec {
		j.vec = true
		j.lCols = make([]int, len(lk))
		j.rCols = make([]int, len(lk))
		for i := range lk {
			lc, lok := lk[i].(*expr.Col)
			rc, rok := rk[i].(*expr.Col)
			if !lok || !rok {
				j.vec = false
				break
			}
			j.lCols[i], j.rCols[i] = lc.Index, rc.Index
		}
	}
	if j.vec {
		j.keyVecs = make([]*expr.Vec, len(lk))
		j.keyArrs = make([]joinKeyArr, len(lk))
		j.eqMode = make([]keyEqMode, len(lk))
		j.typedEq = true
		for i := range lk {
			j.keyArrs[i].t = j.rTypes[j.rCols[i]]
			j.eqMode[i] = keyMode(j.lTypes[j.lCols[i]], j.rTypes[j.rCols[i]])
			if j.eqMode[i] == eqSlow {
				j.typedEq = false
			}
		}
	}
	return j, nil
}

// keyState classifies one row's join key for hashing.
type keyState uint8

const (
	keyNull   keyState = iota // a key is NULL: the row never matches
	keyHashed                 // the key hash locates every possible match
	keyWild                   // a key is a float NaN: no hash locates its matches
)

func hashKey(keys []expr.Expr, row expr.Row) (uint64, keyState, error) {
	var h uint64 = 1469598103934665603
	state := keyHashed
	for _, k := range keys {
		v, err := expr.Eval(k, row)
		if err != nil {
			return 0, keyNull, err
		}
		if v.IsNull() {
			return 0, keyNull, nil // NULL keys never match
		}
		if v.T == expr.TFloat && math.IsNaN(v.F) {
			state = keyWild
		}
		h = h*1099511628211 ^ v.Hash()
	}
	return h, state, nil
}

func (j *hashJoinOp) Open() error {
	j.out, j.pos, j.done, j.pendErr = j.out[:0], 0, false, nil
	// Peek the first probe chunk before building: when the probe side is
	// provably empty, the join produces nothing and the hash-table build
	// is wasted work. The build side is still opened and closed (Ship
	// inputs materialize at Open, so transfer accounting is unchanged);
	// only the hashing and insertion are skipped.
	if err := j.probe.open(); err != nil {
		return err
	}
	first, err := j.probe.nextChunk()
	if err != nil {
		return err
	}
	j.pending, j.peeked = first, first != nil
	if err := j.build.open(); err != nil {
		return err
	}
	j.buildRows, j.wild = j.buildRows[:0], false
	if j.vec {
		j.table.reset(j.buildSizeHint())
		j.next = j.next[:0]
		j.buildKeysOK = true
		for i := range j.keyArrs {
			j.keyArrs[i].reset()
		}
	} else {
		j.rowBuckets = make(map[uint64][]expr.Row, j.buildSizeHint())
	}
	if j.peeked {
		if err := j.buildTable(); err != nil {
			return err
		}
	}
	return j.build.close()
}

// buildTable drains the build feed into the chained hash table.
func (j *hashJoinOp) buildTable() error {
	for {
		chunk, err := j.build.nextChunk()
		if err != nil {
			return err
		}
		if chunk == nil {
			return nil
		}
		if chunk.Len() == 0 {
			continue
		}
		if err := j.insertChunk(chunk); err != nil {
			return err
		}
	}
}

// insertChunk hashes one build chunk. In row mode the rows append into
// the reference bucket map. In vectorized mode valid rows link into the
// chains, reading the key columns directly when the chunk vectorizes
// and row by row otherwise; one impure chunk disables the typed recheck
// for the whole build (the key arrays stop tracking buildRows). Rows
// with a NaN key are kept in buildRows but never hashed.
func (j *hashJoinOp) insertChunk(chunk *Batch) error {
	rows := chunk.Rows()
	if !j.vec {
		for _, row := range rows {
			h, st, err := hashKey(j.rightKeys, row)
			if err != nil {
				return err
			}
			switch st {
			case keyNull:
				continue
			case keyWild:
				j.wild = true
			default:
				j.rowBuckets[h] = append(j.rowBuckets[h], row)
			}
			j.buildRows = append(j.buildRows, row)
		}
		return nil
	}
	if j.chunkKeyVecs(chunk, j.rCols, j.rTypes) {
		sel := chunk.Sel()
		for r := range rows {
			si := r
			if sel != nil {
				si = int(sel[r])
			}
			h, st := j.hashVecKeys(si)
			if st == keyNull {
				continue // NULL keys never match
			}
			idx := j.appendBuild(rows[r])
			if j.buildKeysOK {
				for k := range j.keyArrs {
					j.keyArrs[k].appendFrom(j.keyVecs[k], si)
				}
			}
			j.link(h, idx, st == keyWild)
		}
		return nil
	}
	j.buildKeysOK = false
	for _, row := range rows {
		h, st, err := hashKey(j.rightKeys, row)
		if err != nil {
			return err
		}
		if st == keyNull {
			continue
		}
		j.link(h, j.appendBuild(row), st == keyWild)
	}
	return nil
}

// appendBuild appends a vectorized-mode build row, returning its index.
func (j *hashJoinOp) appendBuild(row expr.Row) int32 {
	idx := int32(len(j.buildRows))
	j.buildRows = append(j.buildRows, row)
	j.next = append(j.next, -1)
	return idx
}

// chunkKeyVecs resolves one side's key columns over a chunk into
// keyVecs. Every vector must be exact: an inexact vector canonicalizes
// payloads the row path hashes and compares verbatim, so such chunks
// take the row path instead.
func (j *hashJoinOp) chunkKeyVecs(chunk *Batch, cols []int, types []expr.Type) bool {
	d := chunk.Data()
	d.Bind(types)
	for k, c := range cols {
		v, ok := d.ColVec(c)
		if !ok || !v.Exact {
			return false
		}
		j.keyVecs[k] = v
	}
	return true
}

// hashVecKeys combines the key hashes of (pre-selection) row si,
// bit-identical to hashKey over the row.
func (j *hashJoinOp) hashVecKeys(si int) (uint64, keyState) {
	var h uint64 = 1469598103934665603
	state := keyHashed
	for _, v := range j.keyVecs {
		if v.IsNullAt(si) {
			return 0, keyNull
		}
		if v.T == expr.TFloat && math.IsNaN(v.F[si]) {
			state = keyWild
		}
		h = h*1099511628211 ^ v.HashAt(si)
	}
	return h, state
}

// link appends build row idx to hash h's chain; a NaN-keyed (wild)
// row is left unchained and marks the whole build wild.
func (j *hashJoinOp) link(h uint64, idx int32, wild bool) {
	if wild {
		j.wild = true
		return
	}
	si := j.table.slot(h)
	s := &j.table.slots[si]
	if s.head >= 0 {
		j.next[s.tail] = idx
		s.tail = idx
		return
	}
	s.hash, s.head, s.tail = h, idx, idx
	j.table.used++
}

// buildSizeHint pre-sizes the hash table from the build child's
// cardinality estimate, capped to keep a wild estimate from allocating
// an outsized table up front.
func (j *hashJoinOp) buildSizeHint() int {
	const maxHint = 1 << 20
	card := j.node.Children[1].Card
	switch {
	case card <= 0:
		return 0
	case card >= maxHint:
		return maxHint
	}
	return int(card)
}

func (j *hashJoinOp) Next() (expr.Row, bool, error) {
	for {
		if j.pos < len(j.out) {
			row := j.out[j.pos]
			j.pos++
			return row, true, nil
		}
		if j.pendErr != nil {
			return nil, false, j.pendErr
		}
		if j.done {
			return nil, false, nil
		}
		chunk, err := j.nextProbeChunk()
		if err != nil {
			return nil, false, err
		}
		if chunk == nil {
			j.done = true
			continue
		}
		j.out, j.pos = j.out[:0], 0
		if chunk.Len() == 0 {
			continue
		}
		j.probeChunk(chunk)
	}
}

// nextProbeChunk honors the chunk peeked at Open.
func (j *hashJoinOp) nextProbeChunk() (*Batch, error) {
	if j.peeked {
		j.peeked = false
		return j.pending, nil
	}
	return j.probe.nextChunk()
}

// probeChunk matches one probe chunk against the table into j.out.
// Errors land in pendErr so matches emitted before the failing row
// drain first, like the row-at-a-time path.
func (j *hashJoinOp) probeChunk(chunk *Batch) {
	rows := chunk.Rows()
	if !j.vec {
		j.probeChunkMap(rows)
		return
	}
	if j.chunkKeyVecs(chunk, j.lCols, j.lTypes) {
		j.probeChunkVec(chunk, rows)
		return
	}
	j.probeChunkRows(rows)
}

func (j *hashJoinOp) probeChunkVec(chunk *Batch, rows []expr.Row) {
	typed := j.typedEq && j.buildKeysOK
	sel := chunk.Sel()
	j.pairs = j.pairs[:0]
probeLoop:
	for r := range rows {
		si := r
		if sel != nil {
			si = int(sel[r])
		}
		h, st := j.hashVecKeys(si)
		if st == keyNull {
			continue
		}
		if st == keyWild || j.wild {
			j.emitPairs(rows)
			if err := j.joinAll(rows[r]); err != nil {
				j.pendErr = err
				break probeLoop
			}
			continue
		}
		for bi := j.table.lookup(h); bi >= 0; bi = j.next[bi] {
			eq, err := j.recheck(typed, si, bi, rows[r])
			if err != nil {
				j.pendErr = err
				break probeLoop
			}
			if !eq {
				continue
			}
			if j.residual == nil {
				j.pairs = append(j.pairs, [2]int32{int32(r), bi})
				continue
			}
			out, keep, err := joinMatch(j.residual, rows[r], j.buildRows[bi], &j.scratch)
			if err != nil {
				j.pendErr = err
				break probeLoop
			}
			if keep {
				j.out = append(j.out, out)
			}
		}
	}
	j.emitPairs(rows)
}

// probeChunkMap is the row-mode reference probe: per-row hashing
// through the interpreter, bucket-map candidates, and one materialized
// row per match. The vectorized mode must be value- and order-identical
// to this path.
func (j *hashJoinOp) probeChunkMap(rows []expr.Row) {
probeLoop:
	for _, row := range rows {
		h, st, err := hashKey(j.leftKeys, row)
		if err != nil {
			j.pendErr = err
			break probeLoop
		}
		if st == keyNull {
			continue
		}
		if st == keyWild || j.wild {
			if err := j.joinAll(row); err != nil {
				j.pendErr = err
				break probeLoop
			}
			continue
		}
		for _, bRow := range j.rowBuckets[h] {
			keep, out, err := j.matchRow(row, bRow)
			if err != nil {
				j.pendErr = err
				break probeLoop
			}
			if keep {
				j.out = append(j.out, out)
			}
		}
	}
}

// probeChunkRows handles a probe chunk that did not vectorize while the
// operator is in vectorized mode: per-row hashing, but candidates come
// from the same chains the columnar probe walks.
func (j *hashJoinOp) probeChunkRows(rows []expr.Row) {
probeLoop:
	for _, row := range rows {
		h, st, err := hashKey(j.leftKeys, row)
		if err != nil {
			j.pendErr = err
			break probeLoop
		}
		if st == keyNull {
			continue
		}
		if st == keyWild || j.wild {
			if err := j.joinAll(row); err != nil {
				j.pendErr = err
				break probeLoop
			}
			continue
		}
		for bi := j.table.lookup(h); bi >= 0; bi = j.next[bi] {
			keep, out, err := j.matchRow(row, j.buildRows[bi])
			if err != nil {
				j.pendErr = err
				break probeLoop
			}
			if keep {
				j.out = append(j.out, out)
			}
		}
	}
}

// joinAll joins one probe row by the whole predicate against every
// build row in arrival order — the nested loop's rule, for the rows a
// NaN key keeps the hash from placing.
func (j *hashJoinOp) joinAll(probeRow expr.Row) error {
	for _, b := range j.buildRows {
		out, keep, err := joinMatch(j.cond, probeRow, b, &j.scratch)
		if err != nil {
			return err
		}
		if keep {
			j.out = append(j.out, out)
		}
	}
	return nil
}

// matchRow applies the key recheck and then the residual to one
// candidate pair, returning the joined row on a match.
func (j *hashJoinOp) matchRow(probeRow, buildRow expr.Row) (bool, expr.Row, error) {
	eq, err := j.keysEqual(probeRow, buildRow)
	if err != nil || !eq {
		return false, nil, err
	}
	if j.residual == nil {
		return true, concatRow(probeRow, buildRow), nil
	}
	out, keep, err := joinMatch(j.residual, probeRow, buildRow, &j.scratch)
	return keep, out, err
}

// recheck verifies key equality behind a hash hit (collisions). typed
// compares lanes directly; otherwise the row path's Compare runs, with
// its exact error behavior.
func (j *hashJoinOp) recheck(typed bool, si int, bi int32, probeRow expr.Row) (bool, error) {
	if !typed {
		return j.keysEqual(probeRow, j.buildRows[bi])
	}
	for k := range j.eqMode {
		pv := j.keyVecs[k]
		arr := &j.keyArrs[k]
		switch j.eqMode[k] {
		case eqInt:
			if pv.I[si] != arr.i[bi] {
				return false, nil
			}
		case eqFloat:
			var a float64
			if pv.T == expr.TFloat {
				a = pv.F[si]
			} else {
				a = float64(pv.I[si])
			}
			b := arr.float(bi)
			// Compare's float equality is !(a < b) && !(a > b), which is
			// not the same as == when NaN is involved.
			if a < b || a > b {
				return false, nil
			}
		case eqStr:
			if pv.S[si] != arr.s[bi] {
				return false, nil
			}
		}
	}
	return true, nil
}

// emitPairs materializes the pending matches into one output slab and
// clears them: each joined row is a sub-slice, so the headers in j.out
// stay valid without a per-row allocation.
func (j *hashJoinOp) emitPairs(rows []expr.Row) {
	if len(j.pairs) == 0 {
		return
	}
	need := 0
	for _, pr := range j.pairs {
		need += len(rows[pr[0]]) + len(j.buildRows[pr[1]])
	}
	slab := make([]expr.Value, 0, need)
	for _, pr := range j.pairs {
		start := len(slab)
		slab = append(slab, rows[pr[0]]...)
		slab = append(slab, j.buildRows[pr[1]]...)
		j.out = append(j.out, expr.Row(slab[start:len(slab):len(slab)]))
	}
	j.pairs = j.pairs[:0]
}

func concatRow(l, r expr.Row) expr.Row {
	out := make(expr.Row, 0, len(l)+len(r))
	out = append(out, l...)
	return append(out, r...)
}

// joinMatch evaluates pred over the concatenation of l and r, built in
// the caller's reusable *scratch row; only a match allocates its
// output row.
func joinMatch(pred expr.Expr, l, r expr.Row, scratch *expr.Row) (expr.Row, bool, error) {
	row := append(append((*scratch)[:0], l...), r...)
	*scratch = row
	keep, err := expr.EvalBool(pred, row)
	if err != nil || !keep {
		return nil, false, err
	}
	out := make(expr.Row, len(row))
	copy(out, row)
	return out, true, nil
}

func (j *hashJoinOp) keysEqual(l, r expr.Row) (bool, error) {
	for i := range j.leftKeys {
		lv, err := expr.Eval(j.leftKeys[i], l)
		if err != nil {
			return false, err
		}
		rv, err := expr.Eval(j.rightKeys[i], r)
		if err != nil {
			return false, err
		}
		if lv.IsNull() || rv.IsNull() {
			return false, nil
		}
		c, err := lv.Compare(rv)
		if err != nil || c != 0 {
			return false, err
		}
	}
	return true, nil
}

func (j *hashJoinOp) Close() error {
	j.buildRows, j.scratch = nil, nil
	j.table = chainTable{}
	j.next = nil
	j.rowBuckets = nil
	j.out = nil
	j.pending = nil
	return j.probe.close()
}

// --- nested-loop join ---------------------------------------------------

// nlJoinOp is the nested-loop join: it materializes the right (inner)
// child and, per left row, evaluates the predicate against every inner
// row in order. It runs only NLJoin/Join nodes the hash-join path
// cannot take (see ExecOptions.hashNL). The predicate is evaluated on
// one reused scratch row; only emitted rows allocate.
type nlJoinOp struct {
	node        *plan.Node
	left, right Operator
	cond        expr.Expr
	rightRows   []expr.Row
	current     expr.Row
	ri          int
	scratch     expr.Row
}

func newNLJoin(n *plan.Node, left, right Operator) (Operator, error) {
	var cond expr.Expr
	if n.Pred != nil {
		bound, err := expr.Bind(n.Pred, resolver(n))
		if err != nil {
			return nil, fmt.Errorf("executor: nl join bind: %w", err)
		}
		cond = bound
	}
	return &nlJoinOp{node: n, left: left, right: right, cond: cond}, nil
}

func (j *nlJoinOp) Open() error {
	rows, err := Collect(j.right)
	if err != nil {
		return err
	}
	j.rightRows = rows
	j.ri = 0
	j.current = nil
	return j.left.Open()
}

func (j *nlJoinOp) Next() (expr.Row, bool, error) {
	for {
		if j.current == nil {
			row, ok, err := j.left.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			j.current = row
			j.ri = 0
		}
		for j.ri < len(j.rightRows) {
			r := j.rightRows[j.ri]
			j.ri++
			out, keep, err := joinMatch(j.cond, j.current, r, &j.scratch)
			if err != nil {
				return nil, false, err
			}
			if keep {
				return out, true, nil
			}
		}
		j.current = nil
	}
}

func (j *nlJoinOp) Close() error {
	j.rightRows, j.scratch = nil, nil
	return j.left.Close()
}

// --- hash aggregate -----------------------------------------------------

// hashAggOp groups its input and folds each row into per-group
// accumulator lanes. The input is consumed a chunk at a time through a
// chunkFeed (row-operator chunks in the sequential engine, native
// columnar batches in the parallel one). Group identity is the binary
// expr.AppendKey encoding and groups are numbered densely in
// first-appearance order, so the output rows (and their order) are
// independent of the evaluation path.
type hashAggOp struct {
	node    *plan.Node
	feed    chunkFeed
	keys    []expr.Expr // bound group-by columns
	args    []expr.Expr // bound aggregate arguments (nil for COUNT(*))
	fns     []expr.AggFn
	inTypes []expr.Type

	lookup    map[string]int32 // AppendKey encoding -> dense group id
	groupVals []expr.Row       // per group id, in first-appearance order
	accs      []*accCol        // per aggregate: typed group-slot lanes
	pos       int

	// Vectorized absorption (vec true): group keys and aggregate
	// arguments are evaluated column-at-a-time per input chunk, each a
	// bare column or a compiled kernel; the accumulators then update
	// their group lanes straight from the vectors. Any chunk that does
	// not vectorize exactly is re-run through the row path with
	// identical results.
	vec      bool
	keyCols  []int
	keyKerns []*expr.Kernel
	argCols  []int
	argKerns []*expr.Kernel

	// Per-chunk scratch, operator-owned so steady-state absorption does
	// not allocate.
	keyVecs, argVecs   []*expr.Vec
	keyDense, argDense []bool // kernel outputs are dense over the selection
	gids               []int32
	keyBuf             []byte
}

func newHashAgg(n *plan.Node, child Operator, vec bool) (Operator, error) {
	return makeHashAgg(n, &opFeed{op: child}, vec)
}

// newHashAggBatch is newHashAgg consuming the parallel engine's
// columnar batches directly — no row adapter on the input.
func newHashAggBatch(n *plan.Node, src BatchOperator, vec bool) (Operator, error) {
	return makeHashAgg(n, &batchFeed{src: src}, vec)
}

func makeHashAgg(n *plan.Node, feed chunkFeed, vec bool) (Operator, error) {
	res := resolver(n.Children[0])
	keys := make([]expr.Expr, len(n.GroupBy))
	for i, g := range n.GroupBy {
		bound, err := expr.Bind(g, res)
		if err != nil {
			return nil, fmt.Errorf("executor: group-by bind %s: %w", g, err)
		}
		keys[i] = bound
	}
	args := make([]expr.Expr, len(n.Aggs))
	fns := make([]expr.AggFn, len(n.Aggs))
	for i, a := range n.Aggs {
		fns[i] = a.Fn
		if a.Arg != nil {
			bound, err := expr.Bind(a.Arg, res)
			if err != nil {
				return nil, fmt.Errorf("executor: aggregate bind %s: %w", a.Arg, err)
			}
			args[i] = bound
		}
	}
	op := &hashAggOp{
		node: n, feed: feed, keys: keys, args: args, fns: fns,
		inTypes: colTypes(n.Children[0]),
	}
	op.accs = make([]*accCol, len(fns))
	for i, fn := range fns {
		op.accs[i] = &accCol{fn: fn}
	}
	if vec {
		op.vec = true
		op.keyCols, op.keyKerns = classifyExprs(keys, op.inTypes, &op.vec)
		op.argCols, op.argKerns = classifyExprs(args, op.inTypes, &op.vec)
		if op.vec {
			op.keyVecs = make([]*expr.Vec, len(keys))
			op.keyDense = make([]bool, len(keys))
			op.argVecs = make([]*expr.Vec, len(args))
			op.argDense = make([]bool, len(args))
		}
	}
	return op, nil
}

// classifyExprs sorts each expression into bare-column or compiled-
// kernel evaluation; anything else clears vec (nil entries — COUNT(*)
// arguments — are fine and stay nil on both sides).
func classifyExprs(exprs []expr.Expr, types []expr.Type, vec *bool) ([]int, []*expr.Kernel) {
	cols := make([]int, len(exprs))
	kerns := make([]*expr.Kernel, len(exprs))
	for i, e := range exprs {
		cols[i] = -1
		if e == nil {
			continue
		}
		if c, ok := e.(*expr.Col); ok {
			cols[i] = c.Index
			continue
		}
		if k, ok := expr.Compile(e, types); ok {
			kerns[i] = k
			continue
		}
		*vec = false
	}
	return cols, kerns
}

func (a *hashAggOp) Open() error {
	if err := a.feed.open(); err != nil {
		return err
	}
	a.lookup = make(map[string]int32)
	a.groupVals = a.groupVals[:0]
	for _, acc := range a.accs {
		acc.reset()
	}
	a.pos = 0
	for {
		chunk, err := a.feed.nextChunk()
		if err != nil {
			return err
		}
		if chunk == nil {
			break
		}
		if chunk.Len() == 0 {
			continue
		}
		if err := a.absorbChunk(chunk); err != nil {
			return err
		}
	}
	if err := a.feed.close(); err != nil {
		return err
	}
	// A global aggregation over zero rows still yields one row.
	if len(a.keys) == 0 && len(a.groupVals) == 0 {
		a.newGroup("", nil)
	}
	return nil
}

// newGroup registers a group and grows every accumulator's lanes by one
// slot; the new dense group id is returned.
func (a *hashAggOp) newGroup(key string, vals expr.Row) int32 {
	gid := int32(len(a.groupVals))
	a.groupVals = append(a.groupVals, vals)
	a.lookup[key] = gid
	for _, acc := range a.accs {
		acc.grow()
	}
	return gid
}

// absorbChunk folds one input chunk into the groups, vectorized when
// possible and row by row otherwise.
func (a *hashAggOp) absorbChunk(chunk *Batch) error {
	if a.vec && a.absorbVecChunk(chunk) {
		return nil
	}
	for _, row := range chunk.Rows() {
		if err := a.absorbRow(row); err != nil {
			return err
		}
	}
	return nil
}

// absorbVecChunk evaluates all key/argument columns of the chunk at
// once, assigns every row its dense group id, and lets each accumulator
// update its typed group lanes straight from the argument vector — no
// per-row Value boxing. It reports false when a vector could not be
// resolved (a lane-impure or inexact column, a kernel error): the
// caller re-runs the chunk row by row, reproducing interpreter behavior
// exactly.
func (a *hashAggOp) absorbVecChunk(chunk *Batch) bool {
	d := chunk.Data()
	d.Bind(a.inTypes)
	sel := chunk.Sel()
	n := chunk.Len()
	for i := range a.keys {
		v, dense, ok := a.evalVec(d, sel, a.keyCols[i], a.keyKerns[i])
		if !ok {
			return false
		}
		a.keyVecs[i], a.keyDense[i] = v, dense
	}
	for i := range a.args {
		if a.args[i] == nil {
			continue
		}
		v, dense, ok := a.evalVec(d, sel, a.argCols[i], a.argKerns[i])
		if !ok {
			return false
		}
		a.argVecs[i], a.argDense[i] = v, dense
	}
	if cap(a.gids) < n {
		a.gids = make([]int32, n)
	}
	a.gids = a.gids[:n]
	for r := 0; r < n; r++ {
		a.keyBuf = a.keyBuf[:0]
		for i, v := range a.keyVecs {
			vi := r
			if !a.keyDense[i] && sel != nil {
				vi = int(sel[r])
			}
			a.keyBuf = v.AppendKeyAt(a.keyBuf, vi)
		}
		gid, ok := a.lookup[string(a.keyBuf)]
		if !ok {
			vals := make(expr.Row, len(a.keys))
			for i, v := range a.keyVecs {
				// Bare columns take the row's value as-is (exact NULL
				// type preservation); kernel NULLs materialize with the
				// operator's NullT, matching the interpreter.
				if a.keyCols[i] >= 0 {
					vals[i] = chunk.RowValue(r, a.keyCols[i])
				} else {
					vals[i] = v.Value(r)
				}
			}
			gid = a.newGroup(string(a.keyBuf), vals)
		}
		a.gids[r] = gid
	}
	for i, acc := range a.accs {
		if a.args[i] == nil {
			if len(acc.count) > 0 {
				for _, g := range a.gids {
					acc.count[g]++
				}
			}
			continue
		}
		acc.addVec(a.gids, a.argVecs[i], sel, a.argDense[i], n)
	}
	return true
}

// evalVec resolves one classified expression over the chunk. dense
// reports kernel outputs, which are indexed by selection position;
// column vectors are indexed by pre-selection row. Bare columns must be
// exact: an inexact vector canonicalizes payloads the row path feeds to
// the accumulators and key encoder verbatim.
func (a *hashAggOp) evalVec(d *expr.Batch, sel []int32, col int, kern *expr.Kernel) (*expr.Vec, bool, bool) {
	if col >= 0 {
		v, ok := d.ColVec(col)
		if !ok || !v.Exact {
			return nil, false, false
		}
		return v, false, true
	}
	v, err := kern.EvalVec(d, sel)
	if err != nil {
		return nil, false, false
	}
	return v, true, true
}

func (a *hashAggOp) absorbRow(row expr.Row) error {
	a.keyBuf = a.keyBuf[:0]
	vals := make(expr.Row, len(a.keys))
	for i, k := range a.keys {
		v, err := expr.Eval(k, row)
		if err != nil {
			return err
		}
		vals[i] = v
		a.keyBuf = expr.AppendKey(a.keyBuf, v)
	}
	gid, ok := a.lookup[string(a.keyBuf)]
	if !ok {
		gid = a.newGroup(string(a.keyBuf), vals)
	}
	for i, acc := range a.accs {
		if a.args[i] == nil {
			acc.addCountStar(gid)
			continue
		}
		v, err := expr.Eval(a.args[i], row)
		if err != nil {
			return err
		}
		acc.addVal(gid, v)
	}
	return nil
}

func (a *hashAggOp) Next() (expr.Row, bool, error) {
	if a.pos >= len(a.groupVals) {
		return nil, false, nil
	}
	gid := int32(a.pos)
	vals := a.groupVals[a.pos]
	a.pos++
	out := make(expr.Row, 0, len(vals)+len(a.accs))
	out = append(out, vals...)
	for _, acc := range a.accs {
		out = append(out, acc.result(gid))
	}
	return out, true, nil
}

func (a *hashAggOp) Close() error {
	a.lookup = nil
	a.groupVals = nil
	return nil
}

// accCol computes one aggregate across all groups: a struct-of-arrays
// accumulator whose lanes are indexed by dense group id, so vectorized
// absorption updates int64/float64 slots directly. Only the lanes the
// function needs are grown.
type accCol struct {
	fn     expr.AggFn
	count  []int64
	sumI   []int64
	sumF   []float64
	floaty []bool // SUM left int-only accumulation (result is a float)
	seen   []bool
	best   []expr.Value // MIN or MAX candidate per group
}

func (a *accCol) reset() {
	a.count = a.count[:0]
	a.sumI = a.sumI[:0]
	a.sumF = a.sumF[:0]
	a.floaty = a.floaty[:0]
	a.seen = a.seen[:0]
	a.best = a.best[:0]
}

func (a *accCol) grow() {
	switch a.fn {
	case expr.AggCount:
		a.count = append(a.count, 0)
	case expr.AggSum:
		a.count = append(a.count, 0)
		a.sumI = append(a.sumI, 0)
		a.sumF = append(a.sumF, 0)
		a.floaty = append(a.floaty, false)
	case expr.AggAvg:
		a.count = append(a.count, 0)
		a.sumF = append(a.sumF, 0)
	case expr.AggMin, expr.AggMax:
		a.seen = append(a.seen, false)
		a.best = append(a.best, expr.Value{})
	}
}

func (a *accCol) addCountStar(g int32) {
	if len(a.count) > 0 {
		a.count[g]++
	}
}

// addVal folds one value into group g, the row-path twin of addVec.
func (a *accCol) addVal(g int32, v expr.Value) {
	if v.IsNull() {
		return // SQL aggregates skip NULLs
	}
	switch a.fn {
	case expr.AggCount:
		a.count[g]++
	case expr.AggSum:
		a.count[g]++
		switch v.T {
		case expr.TInt, expr.TBool, expr.TDate:
			a.sumI[g] += v.Int()
			a.sumF[g] += float64(v.Int())
		default:
			a.floaty[g] = true
			a.sumF[g] += v.Float()
		}
	case expr.AggAvg:
		a.count[g]++
		switch v.T {
		case expr.TInt, expr.TBool, expr.TDate:
			a.sumF[g] += float64(v.Int())
		default:
			a.sumF[g] += v.Float()
		}
	case expr.AggMin:
		if !a.seen[g] {
			a.seen[g], a.best[g] = true, v
			return
		}
		if c, err := v.Compare(a.best[g]); err == nil && c < 0 {
			a.best[g] = v
		}
	case expr.AggMax:
		if !a.seen[g] {
			a.seen[g], a.best[g] = true, v
			return
		}
		if c, err := v.Compare(a.best[g]); err == nil && c > 0 {
			a.best[g] = v
		}
	}
}

// addVec folds one argument vector into the group lanes: gids[r] is the
// group of logical row r; column vectors are indexed through sel while
// dense kernel outputs are indexed by r directly.
func (a *accCol) addVec(gids []int32, v *expr.Vec, sel []int32, dense bool, n int) {
	mapped := !dense && sel != nil
	switch a.fn {
	case expr.AggCount:
		for r := 0; r < n; r++ {
			i := r
			if mapped {
				i = int(sel[r])
			}
			if v.IsNullAt(i) {
				continue
			}
			a.count[gids[r]]++
		}
	case expr.AggSum:
		switch v.T {
		case expr.TInt, expr.TDate:
			for r := 0; r < n; r++ {
				i := r
				if mapped {
					i = int(sel[r])
				}
				if v.IsNullAt(i) {
					continue
				}
				g := gids[r]
				a.count[g]++
				a.sumI[g] += v.I[i]
				a.sumF[g] += float64(v.I[i])
			}
		case expr.TBool:
			for r := 0; r < n; r++ {
				i := r
				if mapped {
					i = int(sel[r])
				}
				if v.IsNullAt(i) {
					continue
				}
				g := gids[r]
				var x int64
				if v.B.Get(i) {
					x = 1
				}
				a.count[g]++
				a.sumI[g] += x
				a.sumF[g] += float64(x)
			}
		case expr.TFloat:
			for r := 0; r < n; r++ {
				i := r
				if mapped {
					i = int(sel[r])
				}
				if v.IsNullAt(i) {
					continue
				}
				g := gids[r]
				a.count[g]++
				a.floaty[g] = true
				a.sumF[g] += v.F[i]
			}
		default: // strings: Float() is 0, the sum still goes float
			for r := 0; r < n; r++ {
				i := r
				if mapped {
					i = int(sel[r])
				}
				if v.IsNullAt(i) {
					continue
				}
				g := gids[r]
				a.count[g]++
				a.floaty[g] = true
			}
		}
	case expr.AggAvg:
		for r := 0; r < n; r++ {
			i := r
			if mapped {
				i = int(sel[r])
			}
			if v.IsNullAt(i) {
				continue
			}
			g := gids[r]
			a.count[g]++
			switch v.T {
			case expr.TInt, expr.TDate:
				a.sumF[g] += float64(v.I[i])
			case expr.TBool:
				if v.B.Get(i) {
					a.sumF[g]++
				}
			case expr.TFloat:
				a.sumF[g] += v.F[i]
			}
		}
	case expr.AggMin:
		a.mergeMinMax(gids, v, sel, dense, n, true)
	case expr.AggMax:
		a.mergeMinMax(gids, v, sel, dense, n, false)
	}
}

// mergeMinMax updates the per-group best value row by row. The typed
// fast paths mirror Value.Compare exactly — in particular the float
// comparison is strict < / >, so a NaN candidate never replaces the
// best and a NaN best is never replaced, matching the row path's
// per-row Compare behavior (a chunk-local reduce-then-merge would not).
func (a *accCol) mergeMinMax(gids []int32, v *expr.Vec, sel []int32, dense bool, n int, min bool) {
	mapped := !dense && sel != nil
	for r := 0; r < n; r++ {
		i := r
		if mapped {
			i = int(sel[r])
		}
		if v.IsNullAt(i) {
			continue
		}
		g := gids[r]
		if !a.seen[g] {
			a.seen[g], a.best[g] = true, v.Value(i)
			continue
		}
		b := &a.best[g]
		if b.T == v.T && !b.Null {
			switch v.T {
			case expr.TInt, expr.TDate:
				if x := v.I[i]; min && x < b.I || !min && x > b.I {
					*b = v.Value(i)
				}
				continue
			case expr.TFloat:
				if x := v.F[i]; min && x < b.F || !min && x > b.F {
					*b = v.Value(i)
				}
				continue
			case expr.TString:
				if x := v.S[i]; min && x < b.S || !min && x > b.S {
					*b = v.Value(i)
				}
				continue
			}
		}
		val := v.Value(i)
		if c, err := val.Compare(*b); err == nil && (min && c < 0 || !min && c > 0) {
			a.best[g] = val
		}
	}
}

func (a *accCol) result(g int32) expr.Value {
	switch a.fn {
	case expr.AggCount:
		return expr.NewInt(a.count[g])
	case expr.AggSum:
		if a.count[g] == 0 {
			return expr.TypedNull(expr.TFloat)
		}
		if !a.floaty[g] {
			return expr.NewInt(a.sumI[g])
		}
		return expr.NewFloat(a.sumF[g])
	case expr.AggAvg:
		if a.count[g] == 0 {
			return expr.TypedNull(expr.TFloat)
		}
		return expr.NewFloat(a.sumF[g] / float64(a.count[g]))
	case expr.AggMin, expr.AggMax:
		if !a.seen[g] {
			return expr.NullValue()
		}
		return a.best[g]
	}
	return expr.NullValue()
}

// --- sort / limit / union ----------------------------------------------

type sortOp struct {
	child Operator
	keys  []expr.Expr
	descs []bool
	rows  []expr.Row
	pos   int
}

func newSort(n *plan.Node, child Operator) (Operator, error) {
	res := resolver(n.Children[0])
	keys := make([]expr.Expr, len(n.SortKeys))
	descs := make([]bool, len(n.SortKeys))
	for i, k := range n.SortKeys {
		bound, err := expr.Bind(k.E, res)
		if err != nil {
			return nil, fmt.Errorf("executor: sort bind %s: %w", k.E, err)
		}
		keys[i] = bound
		descs[i] = k.Desc
	}
	return &sortOp{child: child, keys: keys, descs: descs}, nil
}

func (s *sortOp) Open() error {
	rows, err := Collect(s.child)
	if err != nil {
		return err
	}
	var sortErr error
	sort.SliceStable(rows, func(i, j int) bool {
		for k, key := range s.keys {
			vi, err1 := expr.Eval(key, rows[i])
			vj, err2 := expr.Eval(key, rows[j])
			if err1 != nil || err2 != nil {
				if sortErr == nil {
					sortErr = fmt.Errorf("executor: sort eval: %v %v", err1, err2)
				}
				return false
			}
			// NULLs sort first ascending, last descending.
			switch {
			case vi.IsNull() && vj.IsNull():
				continue
			case vi.IsNull():
				return !s.descs[k]
			case vj.IsNull():
				return s.descs[k]
			}
			c, err := vi.Compare(vj)
			if err != nil {
				if sortErr == nil {
					sortErr = err
				}
				return false
			}
			if c == 0 {
				continue
			}
			if s.descs[k] {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	if sortErr != nil {
		return sortErr
	}
	s.rows = rows
	s.pos = 0
	return nil
}

func (s *sortOp) Next() (expr.Row, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	r := s.rows[s.pos]
	s.pos++
	return r, true, nil
}

func (s *sortOp) Close() error {
	s.rows = nil
	return nil
}

type limitOp struct {
	child Operator
	n     int64
	seen  int64
}

func newLimit(n *plan.Node, child Operator) Operator {
	return &limitOp{child: child, n: n.LimitN}
}

func (l *limitOp) Open() error {
	l.seen = 0
	return l.child.Open()
}

func (l *limitOp) Next() (expr.Row, bool, error) {
	if l.seen >= l.n {
		return nil, false, nil
	}
	row, ok, err := l.child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	l.seen++
	return row, true, nil
}

func (l *limitOp) Close() error { return l.child.Close() }

type unionOp struct {
	children []Operator
	idx      int
}

func newUnion(children []Operator) Operator { return &unionOp{children: children} }

func (u *unionOp) Open() error {
	u.idx = 0
	for _, c := range u.children {
		if err := c.Open(); err != nil {
			return err
		}
	}
	return nil
}

func (u *unionOp) Next() (expr.Row, bool, error) {
	for u.idx < len(u.children) {
		row, ok, err := u.children[u.idx].Next()
		if err != nil {
			return nil, false, err
		}
		if ok {
			return row, true, nil
		}
		u.idx++
	}
	return nil, false, nil
}

func (u *unionOp) Close() error {
	for _, c := range u.children {
		if err := c.Close(); err != nil {
			return err
		}
	}
	return nil
}

// --- ship ---------------------------------------------------------------

// shipOp simulates moving the child's entire output between sites: it
// materializes the stream, serializes it into BatchSize-row wire frames
// (see internal/network's wire format), accounts rows and the encoded
// frame bytes in the cluster ledger (priced with the message cost
// model), and replays the decoded rows at the destination. The parallel
// engine frames the same stream identically, so both engines charge the
// ledger the same encoded bytes.
type shipOp struct {
	node  *plan.Node
	child Operator
	env   buildEnv
	rows  []expr.Row
	pos   int
}

func newShip(n *plan.Node, child Operator, env buildEnv) Operator {
	return &shipOp{node: n, child: child, env: env}
}

// widthSum is the schema-estimate size of a row slice — the quantity the
// pre-wire accounting used to bill, now only fed to the calibrator as
// the estimated side of the encoding ratio.
func widthSum(rows []expr.Row) int64 {
	var n int64
	for _, r := range rows {
		n += int64(r.Width())
	}
	return n
}

func (s *shipOp) Open() error {
	if err := s.env.ctx.Err(); err != nil {
		// Cancelled before this boundary: don't start materializing.
		return err
	}
	rows, err := Collect(s.child)
	if err != nil {
		return err
	}
	// Serialize the stream into wire frames; what the ledger bills is
	// the encoded size, and what the destination replays is the decoded
	// rows — an actual round trip through the wire format.
	enc := network.WireEncoder{Opt: s.env.opt.Wire}
	cal := s.env.c.Calibrator()
	var bytes, frames int64
	replay := make([]expr.Row, 0, len(rows))
	for start := 0; start < len(rows); start += BatchSize {
		end := start + BatchSize
		if end > len(rows) {
			end = len(rows)
		}
		frame := enc.Encode(rows[start:end])
		bytes += int64(len(frame))
		frames++
		if cal != nil {
			cal.ObserveEncoding(widthSum(rows[start:end]), int64(len(frame)))
		}
		dec, err := network.DecodeBatch(frame)
		if err != nil {
			return fmt.Errorf("executor: ship frame decode: %w", err)
		}
		replay = append(replay, dec...)
	}
	// The resilient shipping path records the transfer and sleeps the
	// wire time on success; under an installed fault plan it may retry
	// with backoff or fail with a typed *network.ShipError. The run
	// scope (when present) additionally charges the per-run ledger the
	// engine reads its RunStats from.
	if s.env.scope != nil {
		err = s.env.scope.ShipWhole(s.env.ctx, s.node.FromLoc, s.node.ToLoc, int64(len(rows)), bytes)
	} else {
		err = s.env.c.ShipWhole(s.env.ctx, s.node.FromLoc, s.node.ToLoc, int64(len(rows)), bytes)
	}
	if err != nil {
		return err
	}
	if a := s.env.obsv.AuditSink(); a != nil {
		rec := auditRecFor(s.node)
		rec.Rows, rec.Bytes, rec.Batches = int64(len(rows)), bytes, frames
		a.Record(rec)
	}
	if prof := s.env.obsv.Prof(); prof != nil {
		// One profiled batch per wire frame, matching the parallel engine.
		prof.Stats(s.node).Batches.Add(frames)
	}
	s.rows = replay
	s.pos = 0
	return nil
}

func (s *shipOp) Next() (expr.Row, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	r := s.rows[s.pos]
	s.pos++
	return r, true, nil
}

func (s *shipOp) Close() error {
	s.rows = nil
	return nil
}
