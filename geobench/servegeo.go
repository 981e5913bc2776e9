package main

import (
	"context"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cgdqp"
	"cgdqp/internal/expr"
	"cgdqp/internal/plan"
	"cgdqp/internal/rescache"
	"cgdqp/internal/schema"
	"cgdqp/internal/store"
	"cgdqp/internal/tpch"
	"cgdqp/internal/workload"
)

// serve-geo's fixed settings, recorded in the run stamp.
const (
	serveClients = 2
	servePhases  = 5
	wireScale    = 0.25    // simulated WAN time slept per modeled ms
	poolBytes    = 6 << 20 // about half the on-disk table bytes at SF 0.01
	// resCacheBytes holds every served result of up to ~120 KB (both
	// plan variants of each, across the revoke) but none of the six
	// ad-hoc results of 0.6–3 MB, so those execute on every request.
	resCacheBytes = 512 << 10
	serveAdhoc    = 12  // pool queries served: each phase's reference replay costs one execution of each
	appendOrders  = 200 // orders per append, with 1–7 lineitems each
	// zipfS and zipfRoundSize shape the read mix (see zipfRound). The
	// skew is an assumption, not taken from a measured query log.
	zipfS         = 1.1
	zipfRoundSize = 60
	// roundSeconds sizes a phase: the clients share
	// seconds ÷ (servePhases × roundSeconds) rounds per phase (at least
	// one), about --seconds of work in all at the rate the benchmark was
	// sized on.
	roundSeconds = 4.0
)

// revokedPolicy is the CR+A grant serve-geo revokes and re-grants: it
// lets supplier columns leave L2, so revoking it re-plans the queries
// that ship supplier rows (new plans key new cache entries) and rejects
// Q2, while cached results whose plans stay compliant pass the
// provenance recheck; re-granting it makes the original plans, and
// their cached results, valid again.
const revokedPolicy = "ship suppkey, name, nationkey, acctbal from db-2.supplier to L1, L3, L4, L5"

// write is one phase-boundary write: an append of orders and lineitem
// rows, or a revoke or re-grant of revokedPolicy.
type write struct {
	kind     string // "append", "revoke", "grant"
	orders   []expr.Row
	lineitem []expr.Row
}

// serveWrites are the writes between the phases, in order: append,
// revoke, grant, append, and so on.
func serveWrites(seed uint64, sf float64) []write {
	rng := newRand(seed, 7)
	cat := tpch.NewCatalog(sf)
	next := rowCount(cat, "orders") + 1
	var ws []write
	for i := 0; i < servePhases-1; i++ {
		kind := []string{"append", "revoke", "grant"}[i%3]
		w := write{kind: kind}
		if kind == "append" {
			w.orders, w.lineitem = appendRows(rng, cat, next)
			next += appendOrders
		}
		ws = append(ws, w)
	}
	return ws
}

// serveSUT is the system under test with its server.
type serveSUT struct {
	sys *cgdqp.System
	srv *cgdqp.Server
	dir string
}

func (s *serveSUT) close() {
	s.srv.Close()
	_ = s.sys.Close()
	_ = os.RemoveAll(s.dir)
}

// runServeGeo is the serve-geo workload: two closed-loop clients calling
// Server.Do (System.Serve, MaxConcurrent 2: the parallel engine plus the
// scheduler) with a Zipf-shaped mix of the golden and ad-hoc queries.
// Data lives in the persistent store (fsync on, a buffer pool about half
// the table bytes, secondary indexes declared before load), the result
// cache is on but smaller than the working set, and wire delay is on over FiveRegionWAN at
// wireScale. Between phases, with in-flight requests drained, the
// benchmark appends orders+lineitem rows or revokes / re-grants a policy.
func runServeGeo(cfg *config) (*report, error) {
	qs := querySet(poolSeed, serveAdhoc)
	writes := serveWrites(cfg.seed, scaleFactor)
	build := func() (*serveSUT, error) {
		root := filepath.Join(".bench_build", "data")
		if err := os.MkdirAll(root, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(root, "serve-geo-")
		if err != nil {
			return nil, err
		}
		sys, err := newTPCHSystem(cgdqp.Options{
			DataDir: dir, BufferPoolBytes: poolBytes, Fsync: true,
			ResultCacheBytes: resCacheBytes,
		}, scaleFactor, workload.SetCRA, true)
		if err == nil {
			err = loadTPCH(sys)
		}
		if err != nil {
			_ = os.RemoveAll(dir)
			return nil, err
		}
		sys.Cluster().SetWireDelay(wireScale)
		sut := &serveSUT{sys: sys, srv: sys.Serve(cgdqp.ServeOptions{MaxConcurrent: serveClients}), dir: dir}
		// Warm the plan and result caches: every query once, split
		// over the clients (rejections are expected and ignored).
		var wg sync.WaitGroup
		for c := 0; c < serveClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for qi := c; qi < len(qs); qi += serveClients {
					_, _ = sut.srv.Do(context.Background(), qs[qi].sql)
				}
			}(c)
		}
		wg.Wait()
		return sut, nil
	}
	const setups = 2
	sut, setupS, err := medianSetup(setups, build, (*serveSUT).close)
	if err != nil {
		return nil, err
	}
	rep := &report{stamp: map[string]any{
		"wire_scale": wireScale, "pool_bytes": poolBytes, "data_dir_bytes": dirBytes(sut.dir, ""),
		"fsync": true, "clients": serveClients, "phases": servePhases, "setups": setups, "adhoc": serveAdhoc,
		"rescache_bytes": resCacheBytes, "zipf_s": zipfS,
		"requests_per_phase": serveRounds(cfg.seconds) * len(zipfRound(len(qs))),
	}}
	ph, run, err := servePhase(cfg, sut, qs, writes, nil)
	rep.stamp["rescache_bytes_end"] = run.rc1.Bytes
	rep.stamp["rescache_entries_end"] = run.rc1.Entries
	if n := float64(ph.requests()); n > 0 {
		rep.stamp["executed_share"] = float64(run.executed) / n
		rep.stamp["cache_hit_share"] = float64(run.hits) / n
		rep.stamp["rejected_share"] = float64(run.rejected) / n
		rep.stamp["executed_latency_share"] = run.execMS / (meanOf(ph.lats) * n)
	}
	sut.close()
	if err != nil {
		return nil, err
	}
	if !planUsesIndex(run.plans) {
		return nil, fmt.Errorf("no plan uses a secondary index; the store's index paths are not exercised")
	}

	ref, err := newServeRef(cfg, qs, writes)
	if err != nil {
		return nil, err
	}
	var v verdict
	if err := ref.verify(run, &v, nil); err != nil {
		return nil, err
	}
	v.attempted, ph.failed = ph.attempted, v.failed
	rep.e2e = e2eMetrics(setupS, ph)
	rep.verdict = v
	if !cfg.trace {
		return rep, nil
	}

	ref = nil // not part of the traced phase's heap
	if sut, err = build(); err != nil {
		return nil, err
	}
	defer sut.close()
	tr := newTracer()
	tph, trun, err := servePhase(cfg, sut, qs, writes, tr)
	if err != nil {
		return nil, err
	}
	ref, err = newServeRef(cfg, qs, writes)
	if err != nil {
		return nil, err
	}
	var tv verdict
	var cc codecCost
	if err := ref.verify(trun, &tv, &cc); err != nil {
		return nil, err
	}
	rep.verdict.attempted += tph.attempted
	rep.verdict.failed += tv.failed
	rep.verdict.notes = append(rep.verdict.notes, tv.notes...)

	userBytes, err := ref.userBytes()
	if err != nil {
		return nil, err
	}
	trun.metrics(rep, tph, cc, float64(dirBytes(sut.dir, ""))/float64(userBytes))
	traceMetrics(rep, tr.summarize(), meanOf(ph.lats), tph.requests())
	if err := paperRows(rep, scaleFactor, 3); err != nil {
		return nil, err
	}
	return rep, tr.write(cfg.traceOut, cfg.workload)
}

// serveRun is what a serve-geo phase records besides latencies.
type serveRun struct {
	outs  *outcomes
	plans map[int]map[int]*plan.Node // phase → query → plan served in it
	execs map[checkKey]int           // executions (not cache hits) per cell

	// Request dispositions: executed (ran the plan), served from the
	// result cache or an identical in-flight execution, or failed
	// (rejections: serve-geo's queries fail no other way at a correct
	// commit); execMS is the executed requests' summed latency.
	executed, hits, rejected int
	execMS                   float64

	// Traced-run counters.
	queueWait, service, execService time.Duration
	rowsOut                         int64
	loads                           int
	loadTime                        time.Duration
	walBytes                        int64
	pc0, pc1                        cgdqp.PlanCacheStats
	ownLookups                      int64 // plan-cache lookups of the phase-end plan capture
	sc0, sc1                        cgdqp.ServeCounters
	rc0, rc1                        rescache.Stats
	st0, st1                        store.PoolStats
}

// servePhase runs servePhases phases of serveRounds rounds, applying
// writes[i] after phase i with the clients drained.
// With tr set, every Do, load and policy change is recorded as a span.
func servePhase(cfg *config, sut *serveSUT, qs []query, writes []write, tr *tracer) (*phase, *serveRun, error) {
	ph := &phase{}
	run := &serveRun{outs: newOutcomes(), plans: map[int]map[int]*plan.Node{}, execs: map[checkKey]int{}}
	sys := sut.sys
	run.pc0, run.sc0, run.rc0, run.st0 = sys.PlanCacheStats(), sut.srv.Counters(), sys.ResultCacheStats(), sys.Cluster().StoreStats()
	var err error
	timed(ph, func() {
		for p := 0; p < servePhases && err == nil; p++ {
			stream := phaseStream(newRand(cfg.seed, int64(100+p)), len(qs), serveRounds(cfg.seconds))
			var next atomic.Int64
			clients := make([]*phase, serveClients)
			seen := make([]map[int]bool, serveClients)
			var wg sync.WaitGroup
			for c := range clients {
				clients[c], seen[c] = &phase{}, map[int]bool{}
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					serveClient(sut, qs, p, stream, &next, clients[c], seen[c], run, tr)
				}(c)
			}
			wg.Wait()
			ph.mem.window()
			for c, cp := range clients {
				ph.lats = append(ph.lats, cp.lats...)
				ph.shipBytes += cp.shipBytes
				ph.shipCost += cp.shipCost
				ph.estShip += cp.estShip
				for qi := range seen[c] {
					if run.plans[p] == nil {
						run.plans[p] = map[int]*plan.Node{}
					}
					run.plans[p][qi] = nil
				}
			}
			// Capture the plans this phase served (plan-cache hits while
			// the clients are drained) for the Definition 1 check.
			before := sys.PlanCacheStats()
			for qi := range run.plans[p] {
				if pl, e := sys.Explain(qs[qi].sql); e == nil {
					run.plans[p][qi] = pl.Root
				}
			}
			after := sys.PlanCacheStats()
			run.ownLookups += (after.Hits - before.Hits) + (after.Misses - before.Misses)
			if p < len(writes) && p < servePhases-1 {
				err = applyWrite(sut, writes[p], run, tr)
			}
		}
	})
	run.pc1, run.sc1, run.rc1, run.st1 = sys.PlanCacheStats(), sut.srv.Counters(), sys.ResultCacheStats(), sys.Cluster().StoreStats()
	ph.attempted = len(ph.lats)
	return ph, run, err
}

// zipfRound is one round of serve-geo's reads over n queries (the golden
// queries first): query k appears round(zipfRoundSize·w/Σw) times, at
// least once, with w = (k+1)^−zipfS.
func zipfRound(n int) []int {
	w := make([]float64, n)
	sum := 0.0
	for k := range w {
		w[k] = math.Pow(float64(k+1), -zipfS)
		sum += w[k]
	}
	var round []int
	for k := range w {
		for c := max(1, int(math.Round(zipfRoundSize*w[k]/sum))); c > 0; c-- {
			round = append(round, k)
		}
	}
	return round
}

// serveRounds is the number of rounds per phase.
func serveRounds(seconds int) int {
	return max(1, int(math.Round(float64(seconds)/(servePhases*roundSeconds))))
}

// phaseStream is a phase's reads: rounds whole rounds, each in a fresh
// seeded order, so every run serves the same mix of queries and the
// seed decides only their order. The clients take requests from the one
// stream as they become free: with one round per phase, a query sent
// once per round is never requested while its own execution is in
// flight, so how many executions identical in-flight requests share
// (sched's coalescing) does not vary with the order.
func phaseStream(rng *rand.Rand, n, rounds int) []int {
	round := zipfRound(n)
	var stream []int
	for r := 0; r < rounds; r++ {
		for _, i := range rng.Perm(len(round)) {
			stream = append(stream, round[i])
		}
	}
	return stream
}

// serveClient is one closed-loop client of a phase: it sends the
// stream's next request until the stream is done.
func serveClient(sut *serveSUT, qs []query, p int, stream []int, next *atomic.Int64, cp *phase, seen map[int]bool, run *serveRun, tr *tracer) {
	ctx := context.Background()
	var queueWait, service, execService time.Duration
	var rowsOut int64
	var hits, rejected int
	var execMS float64
	execs := map[int]int{}
	for {
		i := int(next.Add(1) - 1)
		if i >= len(stream) {
			break
		}
		qi := stream[i]
		t0 := time.Now()
		resp, err := sut.srv.Do(ctx, qs[qi].sql)
		t1 := time.Now()
		cp.lats = append(cp.lats, ms(t1.Sub(t0)))
		seen[qi] = true
		var rows []expr.Row
		if err != nil {
			rejected++
		} else {
			rows = resp.Rows
			cp.estShip += resp.EstShipCost
			queueWait += resp.QueueWait
			service += resp.Total - resp.QueueWait
			if resp.CacheHit {
				hits++
			} else {
				execMS += ms(t1.Sub(t0))
				cp.shipBytes += resp.Stats.ShippedBytes
				cp.shipCost += resp.Stats.ShipCost
				rowsOut += resp.Stats.RowsOut
				execService += resp.Total - resp.QueueWait
				execs[qi]++
			}
		}
		if tr != nil {
			req, id := tr.newReq(), tr.newID()
			tr.record(id, 0, req, "sched.Do", t0, t1)
			if err == nil {
				at := tr.child(id, req, "sched.queue_wait", t0, resp.QueueWait)
				tr.child(id, req, "sched.service", at, resp.Total-resp.QueueWait)
			}
		}
		run.outs.add(checkKey{p, qi}, classify(rows, err))
	}
	for _, n := range execs {
		run.executed += n
	}
	run.outs.mu.Lock()
	run.queueWait += queueWait
	run.service += service
	run.execService += execService
	run.rowsOut += rowsOut
	run.hits += hits
	run.rejected += rejected
	run.execMS += execMS
	for qi, n := range execs {
		run.execs[checkKey{p, qi}] += n
	}
	run.outs.mu.Unlock()
}

// applyWrite performs one phase-boundary write on the system under test.
func applyWrite(sut *serveSUT, w write, run *serveRun, tr *tracer) error {
	sys := sut.sys
	span := func(name string, f func() error) error {
		t0 := time.Now()
		err := f()
		if tr != nil {
			tr.record(tr.newID(), 0, tr.newReq(), name, t0, time.Now())
		}
		return err
	}
	switch w.kind {
	case "append":
		for _, l := range []struct {
			table string
			rows  []expr.Row
		}{{"orders", w.orders}, {"lineitem", w.lineitem}} {
			wal0 := dirBytes(sut.dir, "wal.log")
			t0 := time.Now()
			if err := span("cluster.load_fragment", func() error { return sys.LoadFragment(l.table, 0, l.rows) }); err != nil {
				return err
			}
			run.loadTime += time.Since(t0)
			run.loads++
			if grown := dirBytes(sut.dir, "wal.log") - wal0; grown > 0 {
				run.walBytes += grown
			}
		}
		return nil
	case "revoke":
		return span("policy.revoke", func() error { return revoke(sys) })
	}
	return span("policy.grant", func() error { return sys.AddPolicy(revokedPolicy) })
}

// revoke removes revokedPolicy, found by its surface syntax.
func revoke(sys *cgdqp.System) error {
	for _, db := range sys.Policies.Databases() {
		for _, e := range sys.Policies.ForDB(db) {
			if e.String() == revokedPolicy {
				sys.RemovePolicy(e.ID)
				return nil
			}
		}
	}
	return fmt.Errorf("policy %q is not registered", revokedPolicy)
}

// planUsesIndex reports whether some served plan reads through a
// secondary index.
func planUsesIndex(plans map[int]map[int]*plan.Node) bool {
	for _, m := range plans {
		for _, root := range m {
			if root != nil && strings.Contains(root.Format(true), "Index") {
				return true
			}
		}
	}
	return false
}

// serveRef is serve-geo's reference: an in-memory, uncached System with
// the same catalog, indexes and policies that replays the same writes
// phase by phase.
type serveRef struct {
	cfg    *config
	qs     []query
	writes []write
	sys    *cgdqp.System
}

func newServeRef(cfg *config, qs []query, writes []write) (*serveRef, error) {
	sys, err := newTPCHSystem(cgdqp.Options{BufferPoolBytes: poolBytes}, scaleFactor, workload.SetCRA, true)
	if err != nil {
		return nil, err
	}
	if err := loadTPCH(sys); err != nil {
		return nil, err
	}
	return &serveRef{cfg: cfg, qs: qs, writes: writes, sys: sys}, nil
}

// verify replays the phases: per phase it checks every recorded outcome
// against the reference's answer at the same data and policies, checks
// the served plans against Definition 1, and (with cc set) measures the
// wire codec on the executed plans.
func (r *serveRef) verify(run *serveRun, v *verdict, cc *codecCost) error {
	rows := map[int]outcome{} // per query, valid until the next append
	for p := 0; p < servePhases; p++ {
		if p > 0 {
			w := r.writes[p-1]
			switch w.kind {
			case "append":
				if err := r.sys.LoadFragment("orders", 0, w.orders); err != nil {
					return err
				}
				if err := r.sys.LoadFragment("lineitem", 0, w.lineitem); err != nil {
					return err
				}
				rows = map[int]outcome{}
			case "revoke":
				if err := revoke(r.sys); err != nil {
					return err
				}
			case "grant":
				if err := r.sys.AddPolicy(revokedPolicy); err != nil {
					return err
				}
			}
		}
		for _, qi := range sortedKeys(run.plans[p]) {
			k := checkKey{p, qi}
			sql := r.qs[qi].sql
			ref := outcome{kind: "rejected"}
			legal, err := r.sys.Legal(sql)
			switch {
			case err != nil:
				ref = classify(nil, err)
			case legal:
				o, ok := rows[qi]
				if !ok {
					res, err := r.sys.Query(sql)
					var rs []expr.Row
					if err == nil {
						rs = res.Rows
					}
					o = classify(rs, err)
					rows[qi] = o
				}
				ref = o
			}
			v.compare(k, r.qs[qi].name, run.outs.seen[k], ref)
			root := run.plans[p][qi]
			if root == nil {
				continue
			}
			if vs := r.sys.CheckCompliance(&cgdqp.Plan{Root: root}); len(vs) > 0 {
				v.fail(countOf(run.outs.seen[k]), "phase %d %s: plan violates Definition 1: %s", p, r.qs[qi].name, vs[0])
			}
			if cc != nil && run.execs[k] > 0 {
				c, err := shipCodec(root, r.sys.Cluster())
				if err != nil {
					return err
				}
				cc.add(c, run.execs[k])
			}
		}
	}
	return nil
}

// userBytes is the width of every row the reference holds (after all
// appends): the data a user loaded, before any storage overhead.
func (r *serveRef) userBytes() (int64, error) {
	var n int64
	for _, t := range r.sys.Schema.Tables() {
		rows, err := r.sys.Cluster().AllRows(t)
		if err != nil {
			return 0, err
		}
		for _, row := range rows {
			n += int64(row.Width())
		}
	}
	return max(n, 1), nil
}

func countOf(m map[outcome]int) int {
	n := 0
	for _, c := range m {
		n += c
	}
	return n
}

// metrics reports serve-geo's per-layer split. The optimizer and the
// executor run inside Server.Do, so only what the Response, the server's
// counters and the caches expose is attributed: executor.run_ms is the
// service time of requests that executed (including wire sleep the
// parallel engine overlaps), and executor CPU and allocation are not
// separable between two concurrent clients (reported as 0).
func (r *serveRun) metrics(rep *report, ph *phase, cc codecCost, diskRatio float64) {
	n := float64(max(ph.requests(), 1))
	pcHits := r.pc1.Hits - r.pc0.Hits
	pcLookups := pcHits + r.pc1.Misses - r.pc0.Misses - r.ownLookups
	pcHits -= r.ownLookups // the phase-end capture only hits
	ratio := func(a, b int64) float64 {
		if b <= 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	rep.layer("optimizer.plan_cache_hit_ratio", "ratio", ratio(pcHits, pcLookups))
	rep.layer("executor.run_ms", "ms", ms(r.execService)/n)
	rep.layer("executor.rows_out", "count", float64(r.rowsOut)/n)
	rep.layer("network.frames", "count", float64(cc.frames)/n)
	rep.layer("network.encode_ms", "ms", ms(cc.enc)/n)
	rep.layer("network.decode_ms", "ms", ms(cc.dec)/n)
	rep.layer("network.ship_bytes", "B", float64(ph.shipBytes)/n)
	rep.layer("network.ship_cost_ms", "ms", ph.shipCost/n)
	rep.layer("network.wire_sleep_ms", "ms", ph.shipCost*wireScale/n)
	rep.layer("sched.queue_wait_ms", "ms", ms(r.queueWait)/n)
	rep.layer("sched.service_ms", "ms", ms(r.service)/n)
	done := r.sc1.Completed - r.sc0.Completed
	rep.layer("sched.coalesced_ratio", "ratio", ratio(r.sc1.Coalesced-r.sc0.Coalesced, done))
	rep.layer("sched.executed_ratio", "ratio", ratio(r.sc1.Executed-r.sc0.Executed, done))
	hits, misses := r.rc1.Hits-r.rc0.Hits, r.rc1.Misses-r.rc0.Misses
	rep.layer("rescache.hit_ratio", "ratio", ratio(hits, hits+misses))
	rep.layer("rescache.invalidated_data", "count", float64(r.rc1.InvalidatedData-r.rc0.InvalidatedData))
	rep.layer("rescache.invalidated_policy", "count", float64(r.rc1.InvalidatedPolicy-r.rc0.InvalidatedPolicy))
	rep.layer("rescache.rechecked", "count", float64(r.rc1.Rechecked-r.rc0.Rechecked))
	rep.layer("rescache.evictions", "count", float64(r.rc1.Evictions-r.rc0.Evictions))
	ph0, pm := r.st1.Hits-r.st0.Hits, r.st1.Misses-r.st0.Misses
	rep.layer("store.pool_hit_ratio", "ratio", ratio(ph0, ph0+pm))
	rep.layer("store.pool_misses", "count", float64(pm))
	rep.layer("store.evictions", "count", float64(r.st1.Evictions-r.st0.Evictions))
	rep.layer("store.writebacks", "count", float64(r.st1.Writebacks-r.st0.Writebacks))
	rep.layer("store.disk_bytes_per_user_byte", "ratio", diskRatio)
	if r.loads > 0 {
		rep.layer("store.wal_bytes_per_write", "B", float64(r.walBytes)/float64(r.loads))
		rep.layer("cluster.load_ms", "ms", ms(r.loadTime)/float64(r.loads))
	}
}

// dirBytes sums the sizes of the files under dir whose name ends in
// suffix ("" = every file).
func dirBytes(dir, suffix string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(d.Name(), suffix) {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

func rowCount(cat *schema.Catalog, table string) int64 {
	t, _ := cat.Table(table)
	return t.RowCount()
}

// appendRows generates appendOrders new orders with keys from next on,
// and 1–7 lineitems each, shaped like the TPC-H generator's rows.
func appendRows(rng *rand.Rand, cat *schema.Catalog, next int64) (orders, lineitem []expr.Row) {
	customers, parts, suppliers := rowCount(cat, "customer"), rowCount(cat, "part"), rowCount(cat, "supplier")
	ot, _ := cat.Table("orders")
	lt, _ := cat.Table("lineitem")
	dateLo := expr.MustDate("1992-01-01").Int()
	dateHi := expr.MustDate("1998-08-02").Int()
	pick := func(xs ...string) expr.Value { return expr.NewString(xs[rng.Intn(len(xs))]) }
	for k := next; k < next+appendOrders; k++ {
		od := dateLo + rng.Int63n(dateHi-dateLo+1)
		orders = append(orders, rowFor(ot, func(col string) expr.Value {
			switch col {
			case "orderkey":
				return expr.NewInt(k)
			case "custkey":
				return expr.NewInt(1 + rng.Int63n(customers))
			case "orderstatus":
				return pick("O", "F", "P")
			case "totalprice":
				return expr.NewFloat(1000 + rng.Float64()*449000)
			case "orderdate":
				return expr.NewDate(od)
			case "orderpriority":
				return pick("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW")
			case "clerk":
				return expr.NewString(fmt.Sprintf("Clerk#%09d", 1+rng.Intn(1000)))
			case "shippriority":
				return expr.NewInt(0)
			}
			return expr.NewString("appended order")
		}))
		lines := 1 + rng.Int63n(7)
		for ln := int64(1); ln <= lines; ln++ {
			qty := 1 + rng.Int63n(50)
			ship := od + 1 + rng.Int63n(121)
			lineitem = append(lineitem, rowFor(lt, func(col string) expr.Value {
				switch col {
				case "orderkey":
					return expr.NewInt(k)
				case "partkey":
					return expr.NewInt(1 + rng.Int63n(parts))
				case "suppkey":
					return expr.NewInt(1 + rng.Int63n(suppliers))
				case "linenumber":
					return expr.NewInt(ln)
				case "quantity":
					return expr.NewInt(qty)
				case "extendedprice":
					return expr.NewFloat(float64(qty) * (900 + rng.Float64()*200))
				case "discount":
					return expr.NewFloat(float64(rng.Intn(11)) / 100)
				case "tax":
					return expr.NewFloat(float64(rng.Intn(9)) / 100)
				case "returnflag":
					return pick("R", "A", "N")
				case "linestatus":
					return pick("O", "F")
				case "shipdate":
					return expr.NewDate(ship)
				case "commitdate":
					return expr.NewDate(ship + rng.Int63n(61) - 30)
				case "receiptdate":
					return expr.NewDate(ship + 1 + rng.Int63n(30))
				case "shipinstruct":
					return pick("DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN")
				case "shipmode":
					return pick("REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB")
				}
				return expr.NewString("appended lineitem")
			}))
		}
	}
	return orders, lineitem
}

// rowFor builds a row in the table's column order.
func rowFor(t *schema.Table, val func(col string) expr.Value) expr.Row {
	row := make(expr.Row, len(t.Columns))
	for i, c := range t.Columns {
		row[i] = val(c.Name)
	}
	return row
}
