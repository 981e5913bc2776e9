package executor

import (
	"context"
	"fmt"
	"math"
	"testing"

	"cgdqp/internal/cluster"
	"cgdqp/internal/expr"
	"cgdqp/internal/feedback"
	"cgdqp/internal/network"
	"cgdqp/internal/obs"
	"cgdqp/internal/optimizer"
	"cgdqp/internal/plan"
	"cgdqp/internal/schema"
	"cgdqp/internal/tpch"
	"cgdqp/internal/workload"
)

// The hashed NL-join path must be indistinguishable from the nested
// loop it replaces: the same rows in the same order, the same RunStats
// and the same audit records, in both engines, with kernels on and off.

// sameValue reports bit-for-bit identity: type tag, NULL-ness and
// payload (floats by their bits, so -0.0 and NaN payloads count).
func sameValue(a, b expr.Value) bool {
	return a.T == b.T && a.Null == b.Null && a.I == b.I && a.S == b.S &&
		math.Float64bits(a.F) == math.Float64bits(b.F)
}

// firstRowDiff returns the index of the first row where two ordered
// results differ, or -1 when they are identical.
func firstRowDiff(a, b []expr.Row) int {
	for i := 0; i < len(a) || i < len(b); i++ {
		if i >= len(a) || i >= len(b) || len(a[i]) != len(b[i]) {
			return i
		}
		for c := range a[i] {
			if !sameValue(a[i][c], b[i][c]) {
				return i
			}
		}
	}
	return -1
}

// joinRun is the observable outcome of one execution.
type joinRun struct {
	rows  []expr.Row
	stats RunStats
	audit string
	err   error
}

func runJoinPlan(p *plan.Node, cl *cluster.Cluster, par bool, opt ExecOptions) joinRun {
	audit := obs.NewAuditLog()
	o := (&obs.Observer{}).WithAudit(audit)
	var rows []expr.Row
	var st *RunStats
	var err error
	if par {
		rows, st, err = RunParallelOpts(context.Background(), p, cl, o, opt)
	} else {
		rows, st, err = RunObservedOpts(context.Background(), p, cl, o, opt)
	}
	if err != nil {
		return joinRun{err: err}
	}
	return joinRun{rows: rows, stats: *st, audit: audit.String()}
}

// execConfigs is {seq, par} × {kernels, interpreter}.
var execConfigs = []struct {
	name      string
	par       bool
	noKernels bool
}{
	{"seq/kernels", false, false},
	{"seq/interp", false, true},
	{"par/kernels", true, false},
	{"par/interp", true, true},
}

// checkNLParity runs p once as the explicit nested-loop reference
// (sequential engine, interpreter) and hashed under every engine
// configuration, failing on any difference. It returns the reference
// row count.
func checkNLParity(t *testing.T, label string, p *plan.Node, cl *cluster.Cluster) int {
	t.Helper()
	want := runJoinPlan(p, cl, false, ExecOptions{NoKernels: true, nestedLoop: true})
	if want.err != nil {
		t.Fatalf("%s: nested-loop reference failed: %v", label, want.err)
	}
	for _, cfg := range execConfigs {
		got := runJoinPlan(p, cl, cfg.par, ExecOptions{NoKernels: cfg.noKernels})
		where := label + " " + cfg.name
		if got.err != nil {
			t.Fatalf("%s: hashed path failed: %v", where, got.err)
		}
		if i := firstRowDiff(got.rows, want.rows); i >= 0 {
			t.Fatalf("%s: ordered rows differ at row %d (%d hashed vs %d nested-loop): hashed %v, nested-loop %v",
				where, i, len(got.rows), len(want.rows), rowAt(got.rows, i), rowAt(want.rows, i))
		}
		if got.stats != want.stats {
			t.Fatalf("%s: RunStats differ: hashed %+v, nested-loop %+v", where, got.stats, want.stats)
		}
		if got.audit != want.audit {
			t.Fatalf("%s: audit differs:\nhashed:\n%s\nnested-loop:\n%s", where, got.audit, want.audit)
		}
	}
	return len(want.rows)
}

func rowAt(rows []expr.Row, i int) expr.Row {
	if i < len(rows) {
		return rows[i]
	}
	return nil
}

// nlNodes lists a plan's NLJoin/Join nodes in pre-order.
func nlNodes(n *plan.Node, out []*plan.Node) []*plan.Node {
	if n.Kind == plan.NLJoin || n.Kind == plan.Join {
		out = append(out, n)
	}
	for _, c := range n.Children {
		out = nlNodes(c, out)
	}
	return out
}

// TestNLJoinHashedParityTPCH: every NLJoin node the optimizer emits for
// the six golden TPC-H plans (CR) and the 24 ad-hoc plans of
// workload.QueryGen(42) (CR+A) executes, as a subplan, identically on
// the hash-join path and as an explicitly built nested loop.
//
// The nested-loop reference is quadratic (Q5's lineitem side alone is
// 60000 × 20 pairs), so under -race this test is skipped: the engines'
// concurrency is raced by the other tests, and the synthetic and fuzz
// parity cases below still run.
func TestNLJoinHashedParityTPCH(t *testing.T) {
	if raceDetector {
		t.Skip("quadratic nested-loop reference; runs without -race")
	}
	cat := tpch.NewCatalog(0.01)
	net := network.FiveRegionWAN(cat.Locations())
	cl := cluster.New(cat, net)
	if err := tpch.Generate(cat, cl); err != nil {
		t.Fatal(err)
	}
	type src struct {
		name string
		sql  string
		set  workload.SetName
	}
	var srcs []src
	for _, name := range tpch.QueryNames() {
		srcs = append(srcs, src{name, tpch.Queries[name], workload.SetCR})
	}
	for i, sql := range workload.NewQueryGen(42).Generate(24) {
		srcs = append(srcs, src{fmt.Sprintf("A%02d", i+1), sql, workload.SetCRA})
	}
	opts := map[workload.SetName]*optimizer.Optimizer{}
	hashed, total := map[workload.SetName]int{}, map[workload.SetName]int{}
	for _, s := range srcs {
		opt := opts[s.set]
		if opt == nil {
			opt = optimizer.New(cat, workload.TPCHSet(s.set), net, optimizer.Options{Compliant: true})
			opts[s.set] = opt
		}
		res, err := opt.OptimizeSQL(s.sql)
		if err != nil {
			continue // no compliant plan under this set
		}
		for i, n := range nlNodes(res.Plan, nil) {
			total[s.set]++
			if (ExecOptions{}).execKind(n) == plan.HashJoin {
				hashed[s.set]++
			}
			checkNLParity(t, fmt.Sprintf("%s NLJoin#%d %s", s.name, i, n.OpString()), n, cl)
		}
	}
	t.Logf("NLJoin nodes hashed/total: golden (CR) %d/%d, ad-hoc (CR+A) %d/%d",
		hashed[workload.SetCR], total[workload.SetCR], hashed[workload.SetCRA], total[workload.SetCRA])
	if hashed[workload.SetCR] == 0 || hashed[workload.SetCRA] == 0 {
		t.Fatal("no NLJoin node took the hash path: the parity check exercised nothing")
	}
}

// --- synthetic cases -------------------------------------------------------

// nlFixture is a two-table, two-site cluster for hand-built join plans.
type nlFixture struct {
	cat  *schema.Catalog
	cl   *cluster.Cluster
	l, r *schema.Table
}

func newNLFixture(t testing.TB, lcols, rcols []schema.Column, lrows, rrows []expr.Row) *nlFixture {
	t.Helper()
	cat := schema.NewCatalog()
	l := schema.NewTable("L", "db-l", "N", int64(len(lrows)), lcols...)
	r := schema.NewTable("R", "db-r", "E", int64(len(rrows)), rcols...)
	cat.MustAddTable(l)
	cat.MustAddTable(r)
	cl := cluster.New(cat, network.FiveRegionWAN(cat.Locations()))
	if err := cl.LoadFragment(l, 0, lrows); err != nil {
		t.Fatal(err)
	}
	if err := cl.LoadFragment(r, 0, rrows); err != nil {
		t.Fatal(err)
	}
	return &nlFixture{cat: cat, cl: cl, l: l, r: r}
}

// join builds NLJoin(scan L, scan R) over cond; shipR routes the inner
// side through a Ship so the parallel engine builds from decoded wire
// batches.
func (f *nlFixture) join(cond expr.Expr, shipR bool) *plan.Node {
	var right *plan.Node = plan.NewScan(f.r, "R", -1)
	if shipR {
		right = plan.NewShip(right, "E", "N")
	}
	j := plan.NewJoin(plan.NewScan(f.l, "L", -1), right, cond)
	j.Kind = plan.NLJoin
	return j
}

func col(tab, name string) *expr.Col { return expr.NewCol(tab, name) }

func eq(l, r expr.Expr) expr.Expr { return expr.NewCmp(expr.EQ, l, r) }

// TestNLJoinHashedParitySynthetic pins the cases where a hash table and
// a nested loop could part ways: NULL keys, mixed int/float and
// date/int key lanes (with -0.0 and NaN, which Compare orders equal to
// 0 and to every number), duplicate inner keys, empty sides, and a
// residual conjunct.
func TestNLJoinHashedParitySynthetic(t *testing.T) {
	nan := math.NaN()
	negZero := math.Copysign(0, -1)
	lcols := []schema.Column{
		{Name: "k", Type: expr.TInt}, {Name: "f", Type: expr.TFloat},
		{Name: "d", Type: expr.TDate}, {Name: "s", Type: expr.TString}, {Name: "v", Type: expr.TInt},
	}
	rcols := []schema.Column{
		{Name: "k", Type: expr.TInt}, {Name: "f", Type: expr.TFloat},
		{Name: "i", Type: expr.TInt}, {Name: "s", Type: expr.TString}, {Name: "v", Type: expr.TInt},
	}
	var lrows, rrows []expr.Row
	for i := 0; i < 40; i++ {
		k := expr.NewInt(int64(i % 9))
		if i%7 == 0 {
			k = expr.TypedNull(expr.TInt)
		}
		f := expr.NewFloat(float64(i%5) / 2)
		switch i % 11 {
		case 3:
			f = expr.NewFloat(negZero)
		case 8:
			f = expr.TypedNull(expr.TFloat)
		}
		lrows = append(lrows, expr.Row{k, f, expr.NewDate(int64(9000 + i%6)),
			expr.NewString(fmt.Sprintf("s%d", i%4)), expr.NewInt(int64(i))})
	}
	for i := 0; i < 30; i++ {
		k := expr.NewInt(int64(i % 6)) // duplicate inner keys
		if i%8 == 5 {
			k = expr.NullValue()
		}
		f := expr.NewFloat(float64(i % 4))
		switch i {
		case 7:
			f = expr.NewFloat(0)
		case 12:
			f = expr.NewFloat(1.5)
		}
		rrows = append(rrows, expr.Row{k, f, expr.NewInt(int64(9000 + i%8)),
			expr.NewString(fmt.Sprintf("s%d", i%5)), expr.NewInt(int64(40 - i))})
	}
	fx := newNLFixture(t, lcols, rcols, lrows, rrows)

	cases := []struct {
		name string
		cond expr.Expr
	}{
		{"int keys with NULLs and duplicates", eq(col("L", "k"), col("R", "k"))},
		{"int = float", eq(col("L", "k"), col("R", "f"))},
		{"float = float with -0.0", eq(col("L", "f"), col("R", "f"))},
		{"date = int", eq(col("L", "d"), col("R", "i"))},
		{"string keys", eq(col("R", "s"), col("L", "s"))},
		{"two keys", expr.NewAnd(eq(col("L", "k"), col("R", "k")), eq(col("L", "s"), col("R", "s")))},
		{"residual", expr.NewAnd(eq(col("L", "k"), col("R", "k")),
			expr.NewCmp(expr.LT, col("L", "v"), col("R", "v")))},
		{"residual first", expr.NewAnd(expr.NewCmp(expr.GT, col("L", "v"), col("R", "v")),
			eq(col("L", "k"), col("R", "f")))},
	}
	for _, c := range cases {
		for _, ship := range []bool{false, true} {
			p := fx.join(c.cond, ship)
			if (ExecOptions{}).execKind(p) != plan.HashJoin {
				t.Fatalf("%s: not routed to the hash path", c.name)
			}
			if n := checkNLParity(t, fmt.Sprintf("%s ship=%v", c.name, ship), p, fx.cl); n == 0 {
				t.Fatalf("%s: empty result exercises nothing", c.name)
			}
		}
	}

	// NaN keys on either side: NaN matches every number under Compare.
	nanL := append([]expr.Row(nil), lrows...)
	nanL[5] = expr.Row{expr.NewInt(1), expr.NewFloat(nan), expr.NewDate(9000), expr.NewString("s1"), expr.NewInt(5)}
	nanR := append([]expr.Row(nil), rrows...)
	nanR[9] = expr.Row{expr.NewInt(3), expr.NewFloat(nan), expr.NewInt(9001), expr.NewString("s4"), expr.NewInt(31)}
	for _, side := range []struct {
		name   string
		lr, rr []expr.Row
	}{{"probe NaN", nanL, rrows}, {"build NaN", lrows, nanR}, {"both NaN", nanL, nanR}} {
		f := newNLFixture(t, lcols, rcols, side.lr, side.rr)
		for _, ship := range []bool{false, true} {
			checkNLParity(t, fmt.Sprintf("%s ship=%v", side.name, ship), f.join(eq(col("L", "f"), col("R", "f")), ship), f.cl)
			checkNLParity(t, fmt.Sprintf("%s int=float ship=%v", side.name, ship), f.join(eq(col("L", "k"), col("R", "f")), ship), f.cl)
		}
	}

	// Empty outer and empty inner sides.
	empty := newNLFixture(t, lcols, rcols, nil, rrows)
	checkNLParity(t, "empty outer", empty.join(eq(col("L", "k"), col("R", "k")), true), empty.cl)
	empty = newNLFixture(t, lcols, rcols, lrows, nil)
	checkNLParity(t, "empty inner", empty.join(eq(col("L", "k"), col("R", "k")), true), empty.cl)
}

// TestNLJoinFallbackRule: NL joins without a column = column conjunct,
// or with a key pair whose lanes need the eqSlow recheck, stay nested
// loops.
func TestNLJoinFallbackRule(t *testing.T) {
	cols := []schema.Column{{Name: "k", Type: expr.TInt}, {Name: "s", Type: expr.TString}, {Name: "b", Type: expr.TBool}}
	fx := newNLFixture(t, cols, cols, nil, nil)
	for _, c := range []struct {
		name string
		cond expr.Expr
		hash bool
	}{
		{"equi", eq(col("L", "k"), col("R", "k")), true},
		{"reversed equi", eq(col("R", "k"), col("L", "k")), true},
		{"cross join", nil, false},
		{"inequality only", expr.NewCmp(expr.LT, col("L", "k"), col("R", "k")), false},
		{"same-side equality", eq(col("L", "k"), col("L", "k")), false},
		{"int = string (eqSlow)", eq(col("L", "k"), col("R", "s")), false},
		{"bool keys (eqSlow)", eq(col("L", "b"), col("R", "b")), false},
		{"equi plus eqSlow", expr.NewAnd(eq(col("L", "k"), col("R", "k")), eq(col("L", "s"), col("R", "k"))), false},
	} {
		p := fx.join(c.cond, false)
		if got := (ExecOptions{}).execKind(p) == plan.HashJoin; got != c.hash {
			t.Errorf("%s: hash path = %v, want %v", c.name, got, c.hash)
		}
		if (ExecOptions{nestedLoop: true}).execKind(p) != plan.NLJoin {
			t.Errorf("%s: nestedLoop reference not honored", c.name)
		}
	}
}

// TestNLJoinAllocsPerMatch: the nested loop evaluates its predicate on
// one reused scratch row, so a pass allocates for emitted rows only —
// not for every (outer, inner) pair.
func TestNLJoinAllocsPerMatch(t *testing.T) {
	cols := []schema.Column{{Name: "k", Type: expr.TInt}, {Name: "v", Type: expr.TInt}}
	var lrows, rrows []expr.Row
	for i := 0; i < 200; i++ {
		lrows = append(lrows, expr.Row{expr.NewInt(int64(i)), expr.NewInt(int64(i % 10))})
	}
	for i := 0; i < 50; i++ {
		rrows = append(rrows, expr.Row{expr.NewInt(int64(i)), expr.NewInt(int64(i % 10))})
	}
	fx := newNLFixture(t, cols, cols, lrows, rrows)
	// An inequality: no equi-key, so the nested loop runs. 200 × 50 =
	// 10000 pairs, 50 matches (L.k < 50 and L.v = R.v means L.k = R.k).
	p := fx.join(expr.NewAnd(expr.NewCmp(expr.LE, col("L", "k"), col("R", "k")),
		expr.NewCmp(expr.GE, col("L", "k"), col("R", "k"))), false)
	left := &scanOp{node: p.Children[0], c: fx.cl}
	right := &scanOp{node: p.Children[1], c: fx.cl}
	op, err := newNLJoin(p, left, right)
	if err != nil {
		t.Fatal(err)
	}
	matches := 0
	drain := func() {
		if err := op.Open(); err != nil {
			t.Fatal(err)
		}
		matches = 0
		for {
			_, ok, err := op.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			matches++
		}
		op.Close()
	}
	drain()
	if matches != 50 {
		t.Fatalf("matches = %d, want 50", matches)
	}
	const slack = 16 // Collect's result slice growth, the scratch row
	allocs := testing.AllocsPerRun(5, drain)
	if allocs > float64(matches+slack) {
		t.Fatalf("nested loop allocated %.0f times for %d matches over 10000 pairs (limit %d)",
			allocs, matches, matches+slack)
	}
}

// TestEmptyProbeBuildSideNotRecorded: behind an empty probe side a hash
// join opens and closes its build child without draining it, so the
// build side's profile reads Opens=1, Rows=0. That is not its
// cardinality; the feedback recorder must skip it (end of stream never
// reached) in both engines, while a drained build side is recorded.
func TestEmptyProbeBuildSideNotRecorded(t *testing.T) {
	cat, cl := carco(t)
	c := scanNode(t, cat, "Customer", "C")
	noC := plan.NewFilter(c, expr.NewCmp(expr.LT, expr.NewCol("C", "acctbal"), expr.NewConst(expr.NewFloat(-10))))
	o := scanNode(t, cat, "Orders", "O")
	build := plan.NewProject(o, []plan.NamedExpr{{E: expr.NewCol("O", "custkey")}, {E: expr.NewCol("O", "ordkey")}})
	build.Card = 200
	for _, kind := range []plan.Kind{plan.HashJoin, plan.NLJoin} {
		join := plan.NewJoin(noC, build, expr.NewCmp(expr.EQ, expr.NewCol("C", "custkey"), expr.NewCol("O", "custkey")))
		join.Kind = kind
		for _, par := range []bool{false, true} {
			label := fmt.Sprintf("%s par=%v", kind, par)
			prof := obs.NewCountingProfile()
			ob := (&obs.Observer{}).WithProfile(prof)
			var err error
			if par {
				_, _, err = RunParallelOpts(context.Background(), join, cl, ob, ExecOptions{})
			} else {
				_, _, err = RunObservedOpts(context.Background(), join, cl, ob, ExecOptions{})
			}
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			st := prof.Peek(build)
			if st == nil || st.Opens.Load() != 1 || st.Rows.Load() != 0 {
				t.Fatalf("%s: build side should be opened once and not drained, got %+v", label, st)
			}
			if st.Complete() {
				t.Fatalf("%s: undrained build side reports a complete stream", label)
			}
			store := feedback.NewStore(feedback.Options{EWMAAlpha: 1})
			qerrs := feedback.RecordExecution(store, join, prof)
			if _, ok := store.CardHint(build.SubplanDigest()); ok {
				t.Fatalf("%s: build side recorded as cardinality 0", label)
			}
			probeSeen := false
			for _, q := range qerrs {
				switch q.Op {
				case "Project":
					t.Fatalf("%s: slow-log q-errors carry the undrained build side: %+v", label, q)
				case "Filter":
					probeSeen = true // the drained probe side is an observation
				}
			}
			if !probeSeen {
				t.Fatalf("%s: drained probe side not recorded: %+v", label, qerrs)
			}
		}
	}
}

// --- fuzzing ----------------------------------------------------------------

// fuzzBytes hands out fuzz input bytes, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return int(c)
}

// fuzzKeyValue draws one key value for a lane of type t: NULLs (typed
// and untyped), small pools with duplicates, -0.0 and NaN for floats,
// and now and then a value of another type (a lane-impure row).
func fuzzKeyValue(b *fuzzBytes, t expr.Type) expr.Value {
	c := b.next()
	switch c % 16 {
	case 0:
		return expr.TypedNull(t)
	case 1:
		return expr.NullValue()
	case 2: // lane-impure: a neighbouring type
		switch t {
		case expr.TInt, expr.TDate:
			return expr.NewFloat(float64(c%3) + 0.5*float64(c%2))
		case expr.TFloat:
			return expr.NewInt(int64(c % 3))
		default:
			return expr.NewInt(int64(c % 2))
		}
	}
	v := c / 16
	switch t {
	case expr.TInt:
		return expr.NewInt(int64(v%5) - 1)
	case expr.TDate:
		return expr.NewDate(int64(v%5) - 1)
	case expr.TFloat:
		pool := []float64{0, math.Copysign(0, -1), math.NaN(), 1, 1.5, -1, 2, 3}
		return expr.NewFloat(pool[v%len(pool)])
	}
	return expr.NewString([]string{"", "a", "b", "ab", "-1"}[v%5])
}

// FuzzNLJoinParity generates small two-table inputs — mixed key lanes,
// NULL and NaN keys, duplicates, empty sides, an optional residual —
// and requires the hashed NL-join path to return the nested loop's
// ordered rows (with identical RunStats and audit) in every engine
// configuration whenever the nested loop itself returns no error.
func FuzzNLJoinParity(f *testing.F) {
	f.Add([]byte{0, 6, 6, 0, 32, 48, 64, 80, 96, 1, 2, 3, 33, 49, 65, 81, 97, 0})
	f.Add([]byte{1, 8, 5, 1, 16, 34, 35, 36, 52, 68, 84, 100, 116, 17, 18, 37, 53, 69})
	f.Add([]byte{2, 7, 7, 2, 35, 51, 67, 83, 99, 115, 131, 35, 51, 67, 83, 99, 115, 131})
	f.Add([]byte{3, 5, 9, 3, 16, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192})
	f.Add([]byte{4, 0, 6, 0, 32, 48, 64, 80, 96, 112})
	f.Add([]byte{5, 6, 0, 1, 32, 48, 64, 80, 96, 112})
	f.Add([]byte{1, 9, 9, 4, 34, 2, 18, 50, 66, 34, 82, 98, 130, 146, 162, 34, 50, 66, 82, 98})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		lanes := [][2]expr.Type{
			{expr.TInt, expr.TInt}, {expr.TInt, expr.TFloat}, {expr.TFloat, expr.TFloat},
			{expr.TDate, expr.TInt}, {expr.TString, expr.TString}, {expr.TFloat, expr.TInt},
		}
		kt := lanes[b.next()%len(lanes)]
		nl, nr := b.next()%12, b.next()%12
		shape := b.next()
		lcols := []schema.Column{{Name: "k", Type: kt[0]}, {Name: "v", Type: expr.TInt}}
		rcols := []schema.Column{{Name: "k", Type: kt[1]}, {Name: "v", Type: expr.TInt}}
		var lrows, rrows []expr.Row
		for i := 0; i < nl; i++ {
			lrows = append(lrows, expr.Row{fuzzKeyValue(&b, kt[0]), expr.NewInt(int64(b.next() % 4))})
		}
		for i := 0; i < nr; i++ {
			rrows = append(rrows, expr.Row{fuzzKeyValue(&b, kt[1]), expr.NewInt(int64(b.next() % 4))})
		}
		key := eq(col("L", "k"), col("R", "k"))
		var cond expr.Expr
		switch shape % 4 {
		case 0:
			cond = key
		case 1:
			cond = expr.NewAnd(key, expr.NewCmp(expr.LT, col("L", "v"), col("R", "v")))
		case 2:
			cond = expr.NewAnd(expr.NewCmp(expr.GE, col("L", "v"), col("R", "v")), key)
		default:
			cond = expr.NewAnd(key, eq(col("R", "v"), col("L", "v")))
		}
		fx := newNLFixture(t, lcols, rcols, lrows, rrows)
		p := fx.join(cond, shape/4%2 == 1)
		if (ExecOptions{}).execKind(p) != plan.HashJoin {
			return // nested loop on both sides: nothing to compare
		}
		want := runJoinPlan(p, fx.cl, false, ExecOptions{NoKernels: true, nestedLoop: true})
		if want.err != nil {
			return // the hashed path may skip pairs whose evaluation errs
		}
		for _, cfg := range execConfigs {
			got := runJoinPlan(p, fx.cl, cfg.par, ExecOptions{NoKernels: cfg.noKernels})
			if got.err != nil {
				t.Fatalf("%s: hashed path failed where the nested loop did not: %v\nL=%v\nR=%v", cfg.name, got.err, lrows, rrows)
			}
			if i := firstRowDiff(got.rows, want.rows); i >= 0 {
				t.Fatalf("%s: rows differ at %d:\nhashed      %v\nnested-loop %v\nL=%v\nR=%v\ncond=%v",
					cfg.name, i, got.rows, want.rows, lrows, rrows, cond)
			}
			if got.stats != want.stats || got.audit != want.audit {
				t.Fatalf("%s: stats/audit differ: %+v vs %+v", cfg.name, got.stats, want.stats)
			}
		}
	})
}
