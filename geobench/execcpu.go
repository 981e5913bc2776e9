package main

import (
	"context"
	"runtime"
	"sync/atomic"
	"time"

	"cgdqp"
	"cgdqp/internal/executor"
	"cgdqp/internal/expr"
	"cgdqp/internal/feedback"
	"cgdqp/internal/obs"
	"cgdqp/internal/plan"
	"cgdqp/internal/workload"
)

// slowThreshold is the CLI's default slow-query threshold.
const slowThreshold = 100 * time.Millisecond

// lineCounter is the slow-query log's sink: it discards the JSON lines
// and counts them.
type lineCounter struct{ lines atomic.Int64 }

func (c *lineCounter) Write(p []byte) (int, error) {
	for _, b := range p {
		if b == '\n' {
			c.lines.Add(1)
		}
	}
	return len(p), nil
}

// runExecCPU is the exec-cpu workload: one closed-loop client calling
// System.Query on the sequential engine over in-memory SF data with wire
// delay 0, the plan cache warmed in set-up, the result cache off, and
// telemetry on as an operator runs it (metrics, audit, slow-query log
// at the CLI's 100 ms threshold). Each round is a seeded permutation of
// the golden and ad-hoc queries.
func runExecCPU(cfg *config) (*report, error) {
	qs := querySet(poolSeed, adhocPool)
	slow := &lineCounter{}
	build := func() (*cgdqp.System, error) {
		sys, err := newTPCHSystem(cgdqp.Options{
			Metrics: true, Audit: true,
			SlowQueryLog: slow, SlowQueryThreshold: slowThreshold,
		}, scaleFactor, workload.SetCRA, false)
		if err != nil {
			return nil, err
		}
		if err := loadTPCH(sys); err != nil {
			return nil, err
		}
		for _, q := range qs {
			// Warm the plan cache; illegal queries are rejected here and
			// on every later request alike.
			_, _ = sys.Explain(q.sql)
		}
		return sys, nil
	}
	const setups = 5
	sys, setupS, err := medianSetup(setups, build, func(*cgdqp.System) {})
	if err != nil {
		return nil, err
	}
	rep := &report{stamp: map[string]any{"setups": setups, "adhoc": adhocPool}}
	var v verdict
	ph, outs := execPhase(cfg, sys, qs, nil, &v)

	// The reference is an interpreter-mode System over the same data;
	// its answers are memoized per query, and the System itself is
	// dropped before the traced phase so it does not sit in that
	// phase's heap.
	var ref *cgdqp.System
	openRef := func() (*cgdqp.System, error) {
		if ref == nil {
			r, err := newTPCHSystem(cgdqp.Options{NoVectorKernels: true}, scaleFactor, workload.SetCRA, false)
			if err == nil {
				err = loadTPCH(r)
			}
			if err != nil {
				return nil, err
			}
			ref = r
		}
		return ref, nil
	}
	refOut := map[int]outcome{}
	verify := func(outs *outcomes, v *verdict) error {
		for k, seen := range outs.seen {
			o, ok := refOut[k.q]
			if !ok {
				r, err := openRef()
				if err != nil {
					return err
				}
				res, err := r.Query(qs[k.q].sql)
				var rows []expr.Row
				if err == nil {
					rows = res.Rows
				}
				o = classify(rows, err)
				refOut[k.q] = o
			}
			v.compare(k, qs[k.q].name, seen, o)
		}
		return nil
	}
	if err := verify(outs, &v); err != nil {
		return nil, err
	}
	v.attempted, ph.failed = ph.attempted, v.failed
	rep.e2e = e2eMetrics(setupS, ph)
	rep.verdict = v
	if !cfg.trace {
		return rep, nil
	}

	ref = nil
	sys, err = build()
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	xt := &execTrace{opt: optTrace{tr: tr, sys: sys}, slow: feedback.NewSlowQueryLog(slow, slowThreshold), runs: map[*plan.Node]int{}}
	pc0, audit0, lines0 := sys.PlanCacheStats(), sys.AuditLog().Len(), slow.lines.Load()
	var tv verdict
	tph, touts := execPhase(cfg, sys, qs, xt, &tv)
	pc1, audit1, lines1 := sys.PlanCacheStats(), sys.AuditLog().Len(), slow.lines.Load()
	if err := verify(touts, &tv); err != nil {
		return nil, err
	}
	rep.verdict.attempted += tph.attempted
	rep.verdict.failed += tv.failed
	rep.verdict.notes = append(rep.verdict.notes, tv.notes...)

	n := float64(tph.requests())
	xt.opt.metrics(rep, tph.requests())
	rep.layer("optimizer.plan_cache_hit_ratio", "ratio", planCacheRatio(pc0, pc1))
	if _, err := openRef(); err != nil {
		return nil, err
	}
	if err := xt.metrics(rep, tph, ref); err != nil {
		return nil, err
	}
	rep.layer("obs.audit_records_per_query", "count", float64(audit1-audit0)/n)
	rep.layer("feedback.slowlog_lines", "count", float64(lines1-lines0)/n)
	traceMetrics(rep, tr.summarize(), meanOf(ph.lats), tph.requests())
	if err := paperRows(rep, scaleFactor, 3); err != nil {
		return nil, err
	}
	return rep, tr.write(cfg.traceOut, cfg.workload)
}

// execPhase runs whole rounds until the phase has lasted cfg.seconds and
// holds minSamples requests; every executed plan is checked against
// Definition 1. With xt set, requests take the traced path.
func execPhase(cfg *config, sys *cgdqp.System, qs []query, xt *execTrace, v *verdict) (*phase, *outcomes) {
	ph := &phase{}
	outs, comp := newOutcomes(), newCompliance(sys)
	rng := newRand(cfg.seed, 2)
	timed(ph, func() {
		start := time.Now()
		for {
			for _, qi := range rng.Perm(len(qs)) {
				var rows []expr.Row
				var root *plan.Node
				var err error
				t0 := time.Now()
				if xt == nil {
					var res *cgdqp.Result
					if res, err = sys.Query(qs[qi].sql); err == nil {
						rows, root = res.Rows, res.Plan.Root
						ph.shipBytes += res.ShippedBytes
						ph.shipCost += res.ShipCost
						ph.estShip += res.Plan.EstShipCost
					}
				} else {
					var st *executor.RunStats
					var est float64
					if rows, st, root, est, err = xt.query(qs[qi].sql); err == nil {
						ph.shipBytes += st.ShippedBytes
						ph.shipCost += st.ShipCost
						ph.estShip += est
					}
				}
				ph.lats = append(ph.lats, ms(time.Since(t0)))
				ph.verify(func() {
					outs.add(checkKey{0, qi}, classify(rows, err))
					if root != nil {
						comp.check(v, qs[qi].name, root)
					}
				})
			}
			ph.mem.window()
			if time.Since(start) >= time.Duration(cfg.seconds)*time.Second && len(ph.lats) >= minSamples {
				break
			}
		}
	})
	ph.attempted = len(ph.lats)
	return ph, outs
}

// execTrace replays System.Query's path with spans: the optimizer as in
// optTrace, then executor.RunObservedOpts with the ExecOptions and the
// observer System.Query uses — its metrics and audit sinks plus a fresh
// PlanProfile, which the slow-query log makes System.Query install —
// followed by the same feedback and slow-log bookkeeping.
type execTrace struct {
	opt  optTrace
	slow *feedback.SlowQueryLog

	run, cpu  time.Duration
	alloc     uint64
	rowsOut   int64
	shipBytes int64
	shipCost  float64
	runs      map[*plan.Node]int // executions per plan, for the codec measurement
}

func (x *execTrace) query(sql string) ([]expr.Row, *executor.RunStats, *plan.Node, float64, error) {
	tr, sys := x.opt.tr, x.opt.sys
	req, rootID := tr.newReq(), tr.newID()
	t0 := time.Now()
	defer func() { tr.record(rootID, 0, req, "cgdqp.Query", t0, time.Now()) }()
	countQuery := func(status string) {
		sys.Metrics().Counter("cgdqp_queries_total", "status", status).Inc()
	}
	res, err := x.opt.optimize(sql, req, rootID)
	if err != nil {
		countQuery("error")
		return nil, nil, nil, 0, err
	}
	prof := obs.NewPlanProfile()
	runObs := (&obs.Observer{Metrics: sys.Metrics(), Audit: sys.AuditLog()}).WithProfile(prof)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	id, t1 := tr.newID(), time.Now()
	rows, stats, err := executor.RunObservedOpts(context.Background(), res.Plan, sys.Cluster(), runObs, executor.ExecOptions{})
	t2 := time.Now()
	tr.record(id, rootID, req, "executor.run", t1, t2)
	x.cpu += cpuTime() - c0
	runtime.ReadMemStats(&m1)
	x.alloc += m1.TotalAlloc - m0.TotalAlloc
	x.run += t2.Sub(t1)
	if err != nil {
		countQuery("error")
		return nil, nil, nil, 0, err
	}
	x.runs[res.Plan]++
	x.rowsOut += stats.RowsOut
	x.shipBytes += stats.ShippedBytes
	x.shipCost += stats.ShipCost
	qerrs := feedback.RecordExecution(nil, res.Plan, prof)
	countQuery("ok")
	x.slow.Maybe(time.Since(t0), feedback.QueryRecord{
		SQLDigest:  feedback.SQLDigest(sql),
		PlanDigest: feedback.ShortDigest(res.Plan.Digest()),
		RowsOut:    stats.RowsOut,
		ShipBytes:  stats.ShippedBytes,
		ShipCostMS: stats.ShipCost,
		Retries:    stats.Retries,
		Cache:      feedback.CacheOff,
		Engine:     "seq",
		QErrors:    qerrs,
	})
	return rows, stats, res.Plan, res.ShipCost, nil
}

// metrics reports the executor and network layers per request; the
// codec cost of each executed plan is measured on ref's cluster.
func (x *execTrace) metrics(rep *report, ph *phase, ref *cgdqp.System) error {
	n := float64(max(ph.requests(), 1))
	var cc codecCost
	for root, runs := range x.runs {
		c, err := shipCodec(root, ref.Cluster())
		if err != nil {
			return err
		}
		cc.add(c, runs)
	}
	rep.layer("executor.run_ms", "ms", ms(x.run)/n)
	rep.layer("executor.cpu_ms", "ms", ms(x.cpu)/n)
	rep.layer("executor.alloc_mb", "MB", float64(x.alloc)/(1<<20)/n)
	rep.layer("executor.rows_out", "count", float64(x.rowsOut)/n)
	rep.layer("network.frames", "count", float64(cc.frames)/n)
	rep.layer("network.encode_ms", "ms", ms(cc.enc)/n)
	rep.layer("network.decode_ms", "ms", ms(cc.dec)/n)
	rep.layer("network.ship_bytes", "B", float64(x.shipBytes)/n)
	rep.layer("network.ship_cost_ms", "ms", x.shipCost/n)
	rep.layer("network.wire_sleep_ms", "ms", x.shipCost*x.opt.sys.Cluster().WireDelay()/n)
	return nil
}
