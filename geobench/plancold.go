package main

import (
	"runtime"
	"time"

	"cgdqp"
	"cgdqp/internal/plan"
	"cgdqp/internal/workload"
)

// minSamples is the fewest requests a timed phase ends with, so the p90
// latency has at least ten samples beyond it.
const minSamples = 100

// planColdAdhoc is the number of pool queries plan-cold optimizes under
// each set. With nine, a round's four Q5 and four Q8 optimizations (8 of
// 60 requests) straddle the 90th percentile, so the p90 reads their
// cold optimization time, the figure Fig 6 is about. With the whole
// pool it falls on the steep stretch below them, where the seeded order
// decides which light requests a heavy optimization's garbage
// collection slows, and it moved 15–28% between seeds.
const planColdAdhoc = 9

// runPlanCold is the plan-cold workload: one closed-loop client, no data.
// Each round installs the policy sets T, C, CR and CR+A in turn through
// RemovePolicy/AddPolicy (every change moves the policy epoch, so every
// plan misses the plan cache) and calls System.Explain on the golden and
// ad-hoc queries under each, in a seeded order.
func runPlanCold(cfg *config) (*report, error) {
	qs := querySet(poolSeed, planColdAdhoc)
	build := func() (*cgdqp.System, error) {
		sys, err := newTPCHSystem(cgdqp.Options{}, scaleFactor, workload.SetCRA, false)
		if err != nil {
			return nil, err
		}
		sys.Optimizer()
		return sys, nil
	}
	// A set-up takes well under a millisecond, too little to time one at
	// a time steadily: they are timed in batches, one interval per batch,
	// and the median batch mean is reported.
	const batches, perBatch = 15, 20
	const setups = batches * perBatch
	var sys *cgdqp.System
	var err error
	var means []float64
	for b := 0; b < batches; b++ {
		runtime.GC()
		t0 := time.Now()
		for i := 0; i < perBatch; i++ {
			if sys, err = build(); err != nil {
				return nil, err
			}
		}
		means = append(means, time.Since(t0).Seconds()/perBatch)
	}
	setupS := median(means)
	rep := &report{stamp: map[string]any{"setups": setups, "adhoc": planColdAdhoc}}
	var v verdict
	ph, outs, err := planColdPhase(cfg, sys, qs, nil, &v)
	if err != nil {
		return nil, err
	}
	if err := verifyPlanCold(cfg, qs, outs, &v); err != nil {
		return nil, err
	}
	v.attempted, ph.failed = ph.attempted, v.failed
	rep.e2e = e2eMetrics(setupS, ph)
	rep.verdict = v
	if !cfg.trace {
		return rep, nil
	}

	sys, err = build()
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	ot := &optTrace{tr: tr, sys: sys}
	pc0 := sys.PlanCacheStats()
	var tv verdict
	tph, touts, err := planColdPhase(cfg, sys, qs, ot, &tv)
	if err != nil {
		return nil, err
	}
	pc1 := sys.PlanCacheStats()
	if err := verifyPlanCold(cfg, qs, touts, &tv); err != nil {
		return nil, err
	}
	rep.verdict.attempted += tph.attempted
	rep.verdict.failed += tv.failed
	rep.verdict.notes = append(rep.verdict.notes, tv.notes...)

	ot.metrics(rep, tph.requests())
	rep.layer("optimizer.plan_cache_hit_ratio", "ratio", planCacheRatio(pc0, pc1))
	traceMetrics(rep, tr.summarize(), meanOf(ph.lats), tph.requests())
	if err := paperRows(rep, scaleFactor, 3); err != nil {
		return nil, err
	}
	return rep, tr.write(cfg.traceOut, cfg.workload)
}

// planColdPhase runs whole rounds until the phase has lasted cfg.seconds
// and holds minSamples requests. Every plan is checked against
// Definition 1 under the set it was made for. With ot set, requests go
// through the traced optimizer path instead of System.Explain.
func planColdPhase(cfg *config, sys *cgdqp.System, qs []query, ot *optTrace, v *verdict) (*phase, *outcomes, error) {
	ph := &phase{}
	outs, comp := newOutcomes(), newCompliance(sys)
	rng := newRand(cfg.seed, 1)
	var err error
	timed(ph, func() {
		start := time.Now()
		for err == nil {
			for si, set := range workload.SetNames() {
				if err = installSet(sys, set); err != nil {
					return
				}
				for _, qi := range rng.Perm(len(qs)) {
					var root *plan.Node
					var est float64
					var qerr error
					t0 := time.Now()
					if ot == nil {
						p, e := sys.Explain(qs[qi].sql)
						if e == nil {
							root, est = p.Root, p.EstShipCost
						}
						qerr = e
					} else {
						req, id := ot.tr.newReq(), ot.tr.newID()
						res, e := ot.optimize(qs[qi].sql, req, id)
						if e == nil {
							root, est = res.Plan, res.ShipCost
						}
						qerr = e
						ot.tr.record(id, 0, req, "cgdqp.Explain", t0, time.Now())
					}
					ph.lats = append(ph.lats, ms(time.Since(t0)))
					ph.estShip += est
					ph.verify(func() {
						outs.add(checkKey{si, qi}, classify(nil, qerr))
						if root != nil {
							comp.check(v, string(set)+"/"+qs[qi].name, root)
						}
					})
				}
			}
			ph.mem.window()
			if time.Since(start) >= time.Duration(cfg.seconds)*time.Second && len(ph.lats) >= minSamples {
				break
			}
		}
	})
	ph.attempted = len(ph.lats)
	return ph, outs, err
}

// verifyPlanCold compares every outcome with the legality a fresh,
// uncached System records under the same policy set.
func verifyPlanCold(cfg *config, qs []query, outs *outcomes, v *verdict) error {
	for si, set := range workload.SetNames() {
		ref, err := newTPCHSystem(cgdqp.Options{PlanCacheSize: -1}, scaleFactor, set, false)
		if err != nil {
			return err
		}
		for qi, q := range qs {
			k := checkKey{si, qi}
			if seen := outs.seen[k]; seen != nil {
				_, err := ref.Explain(q.sql)
				v.compare(k, q.name, seen, classify(nil, err))
			}
		}
	}
	return nil
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
