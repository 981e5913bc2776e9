package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"sort"
	"sync"
	"syscall"
	"time"

	"cgdqp"
	"cgdqp/internal/expr"
	"cgdqp/internal/plan"
	"cgdqp/internal/tpch"
	"cgdqp/internal/workload"
)

// query is one request text of a workload's stream.
type query struct {
	name string
	sql  string
}

// querySet returns the six golden TPC-H queries followed by the first
// n ad-hoc queries of workload.QueryGen under the pool seed, taken as
// generated.
func querySet(poolSeed uint64, n int) []query {
	var qs []query
	for _, name := range tpch.QueryNames() {
		qs = append(qs, query{name: name, sql: tpch.Queries[name]})
	}
	for i, sql := range workload.NewQueryGen(poolSeed).Generate(n) {
		qs = append(qs, query{name: fmt.Sprintf("A%02d", i+1), sql: sql})
	}
	return qs
}

// installSet replaces every registered policy with the given set,
// rendered in surface syntax and installed through System.AddPolicy like
// an operator would.
func installSet(sys *cgdqp.System, set workload.SetName) error {
	for _, id := range sys.PolicyIDs() {
		sys.RemovePolicy(id)
	}
	pc := workload.TPCHSet(set)
	for _, db := range pc.Databases() {
		for _, e := range pc.ForDB(db) {
			if err := sys.AddPolicy(e.String()); err != nil {
				return fmt.Errorf("install %s: %w", set, err)
			}
		}
	}
	return nil
}

// benchIndexes are the secondary indexes serve-geo declares before
// loading (its in-memory reference declares the same ones, so both plan
// identically).
var benchIndexes = []struct {
	table string
	cols  []string
}{
	{"customer", []string{"custkey"}},
	{"orders", []string{"custkey", "orderdate"}},
	{"lineitem", []string{"orderkey"}},
}

// newTPCHSystem builds a System over the TPC-H catalog at sf with a
// policy set installed; data is not loaded.
func newTPCHSystem(opts cgdqp.Options, sf float64, set workload.SetName, indexes bool) (*cgdqp.System, error) {
	sys := cgdqp.NewSystemWith(opts)
	sys.Schema = tpch.NewCatalog(sf)
	if indexes {
		for _, ix := range benchIndexes {
			if err := sys.DefineIndex(ix.table, ix.cols...); err != nil {
				return nil, err
			}
		}
	}
	if err := installSet(sys, set); err != nil {
		return nil, err
	}
	return sys, nil
}

// loadTPCH opens the cluster and loads the generated TPC-H data.
func loadTPCH(sys *cgdqp.System) error {
	if err := sys.Open(); err != nil {
		return err
	}
	return tpch.Generate(sys.Schema, sys.Cluster())
}

// outcome is the observable result of one request: rows (as an
// order-insensitive fingerprint), a typed no-compliant-plan rejection,
// or any other error.
type outcome struct {
	kind string // "ok", "rejected", "error"
	rows int
	hash uint64
	err  string
}

func (o outcome) String() string {
	switch o.kind {
	case "ok":
		return fmt.Sprintf("%d rows #%016x", o.rows, o.hash)
	case "rejected":
		return "rejected (no compliant plan)"
	}
	return "error: " + o.err
}

// classify turns a request's rows and error into an outcome.
func classify(rows []expr.Row, err error) outcome {
	switch {
	case err == nil:
		n, h := fingerprint(rows)
		return outcome{kind: "ok", rows: n, hash: h}
	case errors.Is(err, cgdqp.ErrNoCompliantPlan):
		return outcome{kind: "rejected"}
	}
	return outcome{kind: "error", err: err.Error()}
}

// fingerprint hashes a row multiset: row order does not matter, and
// numbers compare at four decimals with integers and floats alike (the
// repository's own result-equivalence rule).
func fingerprint(rows []expr.Row) (int, uint64) {
	var sum uint64
	for _, r := range rows {
		h := uint64(14695981039346656037)
		for _, v := range r {
			h = mixValue(h, v)
		}
		sum += splitmix(h)
	}
	return len(rows), sum
}

func mixValue(h uint64, v expr.Value) uint64 {
	const prime = 1099511628211
	switch {
	case v.IsNull():
		return (h ^ 0x9e) * prime
	case v.T == expr.TInt || v.T == expr.TFloat:
		q := int64(math.Round(v.Float() * 1e4))
		return (h ^ splitmix(uint64(q))) * prime
	case v.T == expr.TString:
		for i := 0; i < len(v.S); i++ {
			h = (h ^ uint64(v.S[i])) * prime
		}
		return (h ^ 0xff) * prime
	}
	return (h ^ splitmix(uint64(v.I)^uint64(v.T)<<56)) * prime
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// checkKey addresses one (phase, query) cell of a workload: the phase is
// the policy set (plan-cold), 0 (exec-cpu), or the write phase
// (serve-geo).
type checkKey struct{ phase, q int }

// outcomes collects the distinct outcomes seen per cell, so answers are
// verified after the timed phase without keeping result rows.
type outcomes struct {
	mu   sync.Mutex
	seen map[checkKey]map[outcome]int
}

func newOutcomes() *outcomes { return &outcomes{seen: map[checkKey]map[outcome]int{}} }

func (o *outcomes) add(k checkKey, out outcome) {
	o.mu.Lock()
	m := o.seen[k]
	if m == nil {
		m = map[outcome]int{}
		o.seen[k] = m
	}
	m[out]++
	o.mu.Unlock()
}

// verdict accumulates failed requests and a few messages explaining them.
type verdict struct {
	attempted, failed int
	notes             []string
}

func (v *verdict) fail(n int, format string, args ...any) {
	v.failed += n
	if len(v.notes) < 12 {
		v.notes = append(v.notes, fmt.Sprintf(format, args...))
	}
}

// compare checks every recorded outcome of a cell against the reference:
// rows must match, a rejection is correct only where the reference
// rejects too, and any other error is a failure.
func (v *verdict) compare(k checkKey, qname string, seen map[outcome]int, ref outcome) {
	for out, n := range seen {
		if out != ref || out.kind == "error" {
			v.fail(n, "phase %d %s: got %s, reference %s", k.phase, qname, out, ref)
		}
	}
}

// compliance runs the Definition 1 checker on every plan a phase
// serves, once per plan and policy epoch (a plan-cache hit returns the
// same plan), failing the requests a violating plan served.
type compliance struct {
	sys     *cgdqp.System
	checked map[*plan.Node]uint64 // plan → policy epoch + 1 it passed under
}

func newCompliance(sys *cgdqp.System) *compliance {
	return &compliance{sys: sys, checked: map[*plan.Node]uint64{}}
}

func (c *compliance) check(v *verdict, name string, root *plan.Node) {
	epoch := c.sys.PolicyEpoch() + 1
	if c.checked[root] == epoch {
		return
	}
	if vs := c.sys.CheckCompliance(&cgdqp.Plan{Root: root}); len(vs) > 0 {
		v.fail(1, "%s: plan violates Definition 1: %s", name, vs[0])
		return
	}
	c.checked[root] = epoch
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the nearest-rank q-quantile of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// quantileHD is the Harrell–Davis estimate of the q-quantile of sorted
// values: a weighted mean of the order statistics with Beta((n+1)q,
// (n+1)(1-q)) weights. Unlike a single order statistic it does not jump
// when one request near the quantile is slowed (by a garbage collection,
// say), which matters where latencies climb steeply around it. Ranks
// more than eight standard deviations from q carry no weight and are
// skipped.
func quantileHD(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	a, b := float64(n+1)*q, float64(n+1)*(1-q)
	sd := math.Sqrt(q * (1 - q) / float64(n))
	lo := max(0, int(float64(n)*(q-8*sd)))
	hi := min(n, int(math.Ceil(float64(n)*(q+8*sd))))
	prev, sum := incBeta(a, b, float64(lo)/float64(n)), 0.0
	for i := lo; i < hi; i++ {
		cur := incBeta(a, b, float64(i+1)/float64(n))
		sum += (cur - prev) * sorted[i]
		prev = cur
	}
	return sum / (prev - incBeta(a, b, float64(lo)/float64(n)))
}

// incBeta is the regularized incomplete beta function I_x(a, b),
// evaluated by its continued fraction (Numerical Recipes' betacf).
func incBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m < 100000; m++ {
		aa := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-14 {
			break
		}
	}
	return h
}

// median is the lower median (nearest rank).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// newRand returns the workload's deterministic generator for a purpose
// (stream order, appended rows), derived from the seed.
func newRand(seed uint64, purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(int64(splitmix(seed)) ^ purpose))
}

// medianSetup runs build reps times, timing each, closes every result
// but the last, and returns that one with the median set-up seconds.
func medianSetup[T any](reps int, build func() (T, error), close func(T)) (T, float64, error) {
	var times []float64
	var last T
	for i := 0; i < reps; i++ {
		if i > 0 {
			close(last)
		}
		// Start every set-up from a collected heap returned to the OS,
		// so the previous one's garbage neither slows this one nor sets
		// the peak RSS.
		debug.FreeOSMemory()
		t0 := time.Now()
		s, err := build()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = s
	}
	return last, median(times), nil
}
