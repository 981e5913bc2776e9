package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cgdqp"
	"cgdqp/internal/optimizer"
	"cgdqp/internal/sqlparse"
)

// span is one recorded interval: a call into a layer's public function
// (or a phase the layer reports about itself, placed inside its call).
// Spans of one request share Req; Parent is the enclosing span (0 =
// request root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	origin time.Time
	ids    atomic.Int64
	reqs   atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) newID() int64  { return t.ids.Add(1) }
func (t *tracer) newReq() int64 { return t.reqs.Add(1) }

// record stores a closed span.
func (t *tracer) record(id, parent, req int64, name string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin))})
	t.mu.Unlock()
}

// child records a span reported by the layer itself (e.g. an optimizer
// phase duration from optimizer.Stats) laid out from start; it returns
// the span's end.
func (t *tracer) child(parent, req int64, name string, start time.Time, d time.Duration) time.Time {
	end := start.Add(d)
	t.record(t.newID(), parent, req, name, start, end)
	return end
}

// write stores the spans as JSON.
func (t *tracer) write(path, workload string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return json.NewEncoder(f).Encode(map[string]any{"workload": workload, "spans": t.spans})
}

// selfLayers are the layers whose self time every traced run reports;
// a span's layer is its name up to the first dot ("cgdqp" is the facade
// call that roots a request).
var selfLayers = []string{"cgdqp", "sqlparse", "optimizer", "executor", "sched", "cluster"}

// traceSummary is the per-layer split of a traced phase.
type traceSummary struct {
	requests  int
	spans     int
	self      map[string]time.Duration // by layer
	rootTotal time.Duration            // Σ request-root durations
	rootSelf  time.Duration            // Σ root self time (unattributed inside a request)
}

// summarize computes self times: a span's duration minus the part its
// children cover.
func (t *tracer) summarize() traceSummary {
	s := traceSummary{spans: len(t.spans), self: map[string]time.Duration{}}
	childCover := map[int64]int64{}
	byID := map[int64]*span{}
	for i := range t.spans {
		byID[t.spans[i].ID] = &t.spans[i]
	}
	for i := range t.spans {
		sp := &t.spans[i]
		if p, ok := byID[sp.Parent]; ok {
			lo, hi := max(sp.Start, p.Start), min(sp.End, p.End)
			if hi > lo {
				childCover[p.ID] += hi - lo
			}
		}
	}
	reqs := map[int64]bool{}
	for i := range t.spans {
		sp := &t.spans[i]
		self := time.Duration(sp.End - sp.Start - childCover[sp.ID])
		if self < 0 {
			self = 0
		}
		layer, _, _ := strings.Cut(sp.Name, ".")
		// Writes between serve-geo's phases root their own spans; they
		// are not requests.
		write := layer == "cluster" || layer == "policy"
		if sp.Parent == 0 && !write {
			s.rootTotal += time.Duration(sp.End - sp.Start)
			s.rootSelf += self
			reqs[sp.Req] = true
		}
		s.self[layer] += self
	}
	s.requests = len(reqs)
	return s
}

// traceMetrics reports self time per layer and request, the residual of
// the untraced mean latency that no layer span accounts for, the
// tracing overhead, and the optimizer/executor shares of the traced
// latency.
func traceMetrics(rep *report, s traceSummary, untracedMeanMS float64, requests int) {
	n := float64(requests)
	if n == 0 {
		n = 1
	}
	for _, l := range selfLayers {
		rep.layer("self."+l+"_ms", "ms", ms(s.self[l])/n)
	}
	tracedMean := ms(s.rootTotal) / n
	attributed := ms(s.rootTotal-s.rootSelf) / n
	rep.layer("trace.residual_ms", "ms", untracedMeanMS-attributed)
	overhead := 0.0
	if untracedMeanMS > 0 {
		overhead = 100 * (tracedMean/untracedMeanMS - 1)
	}
	rep.layer("trace.overhead_pct", "%", overhead)
	rep.layer("trace.spans_per_request", "count", float64(s.spans)/n)
	share := func(layers ...string) float64 {
		if s.rootTotal == 0 {
			return 0
		}
		var d time.Duration
		for _, l := range layers {
			d += s.self[l]
		}
		return 100 * float64(d) / float64(s.rootTotal)
	}
	rep.layer("share.optimizer_pct", "%", share("sqlparse", "optimizer"))
	rep.layer("share.executor_pct", "%", share("executor"))
}

// optTrace drives the optimizer the way System.Explain does — the SQL
// fast path when the plan cache knows the text, parse/bind plus
// Optimize otherwise — with spans around ParseAndBind, Optimize and
// OptimizeSQL, and the phases optimizer.Stats reports laid out inside.
type optTrace struct {
	tr  *tracer
	sys *cgdqp.System

	parse, normalize, explore, implement, site time.Duration
	fresh                                      int // optimizations that ran (not plan-cache hits)
	groups, exprs, eta, calls, hits            int64
	alloc                                      uint64
}

func (o *optTrace) optimize(sql string, req, parent int64) (*optimizer.Result, error) {
	opt := o.sys.Optimizer()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	defer func() {
		runtime.ReadMemStats(&m1)
		o.alloc += m1.TotalAlloc - m0.TotalAlloc
	}()
	if _, ok := opt.CachedDigest(sql); ok {
		id := o.tr.newID()
		t0 := time.Now()
		res, err := opt.OptimizeSQL(sql)
		t1 := time.Now()
		o.tr.record(id, parent, req, "optimizer.optimize_sql", t0, t1)
		if err == nil && !res.Stats.PlanCacheHit {
			// The fast path missed: OptimizeSQL parsed and bound the text
			// before optimizing; that is the part Stats does not time.
			p := t1.Sub(t0) - res.Stats.TotalTime
			o.parse += p
			o.phases(res, id, req, o.tr.child(id, req, "sqlparse.parse_bind", t0, p))
		}
		return res, err
	}
	t0 := time.Now()
	logical, err := sqlparse.ParseAndBind(sql, o.sys.Schema)
	t1 := time.Now()
	o.tr.record(o.tr.newID(), parent, req, "sqlparse.parse_bind", t0, t1)
	o.parse += t1.Sub(t0)
	if err != nil {
		return nil, err
	}
	id := o.tr.newID()
	res, err := opt.Optimize(logical)
	t2 := time.Now()
	o.tr.record(id, parent, req, "optimizer.optimize", t1, t2)
	if err == nil {
		o.phases(res, id, req, t1)
	}
	return res, err
}

// phases lays the optimizer's own phase timings out as child spans.
func (o *optTrace) phases(res *optimizer.Result, id, req int64, at time.Time) {
	st := res.Stats
	at = o.tr.child(id, req, "optimizer.normalize", at, st.NormalizeTime)
	o.normalize += st.NormalizeTime
	if st.PlanCacheHit {
		return
	}
	at = o.tr.child(id, req, "optimizer.explore", at, st.ExploreTime)
	at = o.tr.child(id, req, "optimizer.implement", at, st.ImplementTime)
	o.tr.child(id, req, "optimizer.site_select", at, st.SiteTime)
	o.explore += st.ExploreTime
	o.implement += st.ImplementTime
	o.site += st.SiteTime
	o.fresh++
	o.groups += int64(st.Groups)
	o.exprs += int64(st.Exprs)
	o.eta += st.Eta
	o.calls += st.ACalls
	o.hits += st.AHits
}

// metrics reports the optimizer and policy-evaluator layers per request.
func (o *optTrace) metrics(rep *report, requests int) {
	n := float64(max(requests, 1))
	fresh := float64(max(o.fresh, 1))
	rep.layer("sqlparse.parse_bind_ms", "ms", ms(o.parse)/n)
	rep.layer("optimizer.normalize_ms", "ms", ms(o.normalize)/n)
	rep.layer("optimizer.explore_ms", "ms", ms(o.explore)/n)
	rep.layer("optimizer.implement_ms", "ms", ms(o.implement)/n)
	rep.layer("optimizer.site_select_ms", "ms", ms(o.site)/n)
	rep.layer("optimizer.memo_groups", "count", float64(o.groups)/fresh)
	rep.layer("optimizer.memo_exprs", "count", float64(o.exprs)/fresh)
	rep.layer("optimizer.alloc_mb", "MB", float64(o.alloc)/(1<<20)/n)
	rep.layer("policy.eta", "count", float64(o.eta)/fresh)
	rep.layer("policy.eval_calls", "count", float64(o.calls)/fresh)
	ratio := 0.0
	if o.calls > 0 {
		ratio = float64(o.hits) / float64(o.calls)
	}
	rep.layer("policy.eval_hit_ratio", "ratio", ratio)
}

// planCacheRatio is hits ÷ lookups between two plan-cache snapshots.
func planCacheRatio(a, b cgdqp.PlanCacheStats) float64 {
	h, m := b.Hits-a.Hits, b.Misses-a.Misses
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// sortedKeys returns a map's int keys in order.
func sortedKeys[V any](m map[int]V) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}
