package cgdqp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cgdqp/internal/executor"
	"cgdqp/internal/feedback"
	"cgdqp/internal/obs"
	"cgdqp/internal/plan"
	"cgdqp/internal/tpch"
	"cgdqp/internal/workload"
)

// newGoldenSystem builds a loaded TPC-H system under the CR policy set
// (the golden plans' set), logging every query to slow.
func newGoldenSystem(t *testing.T, slow *bytes.Buffer) *System {
	t.Helper()
	sys := NewSystemWith(Options{SlowQueryLog: slow})
	sys.Schema = tpch.NewCatalog(0.002)
	pc := workload.TPCHSet(workload.SetCR)
	for _, db := range pc.Databases() {
		for _, e := range pc.ForDB(db) {
			sys.MustAddPolicy(e.String())
		}
	}
	if err := tpch.Generate(sys.Schema, sys.Cluster()); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestCountingProfileMatchesTimed: the counting profile the feedback
// loop and the slow-query log install records exactly what the timed
// EXPLAIN ANALYZE profile records — rows, batches, opens and ends of
// stream on every node of every golden query, in both engines — without
// reading the clock, and yields the same slow-log q-errors.
func TestCountingProfileMatchesTimed(t *testing.T) {
	var slow bytes.Buffer
	sys := newGoldenSystem(t, &slow)
	for _, name := range tpch.QueryNames() {
		sql := tpch.Queries[name]
		p, err := sys.Explain(sql)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var seqQErrs []feedback.OpQError
		for _, par := range []bool{false, true} {
			label := fmt.Sprintf("%s par=%v", name, par)
			run := func(prof *obs.PlanProfile) {
				o := (&obs.Observer{}).WithProfile(prof)
				var err error
				if par {
					_, _, err = executor.RunParallelOpts(context.Background(), p.Root, sys.Cluster(), o, executor.ExecOptions{})
				} else {
					_, _, err = executor.RunObservedOpts(context.Background(), p.Root, sys.Cluster(), o, executor.ExecOptions{})
				}
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
			counting, timed := obs.NewCountingProfile(), obs.NewPlanProfile()
			run(counting)
			run(timed)
			if counting.Timed() || !timed.Timed() {
				t.Fatal("profile kinds mixed up")
			}
			var walk func(n *plan.Node)
			walk = func(n *plan.Node) {
				c, tm := counting.Peek(n), timed.Peek(n)
				switch {
				case (c == nil) != (tm == nil):
					t.Fatalf("%s: %s profiled by one profile only", label, n.OpString())
				case c != nil:
					if c.Rows.Load() != tm.Rows.Load() || c.Batches.Load() != tm.Batches.Load() ||
						c.Opens.Load() != tm.Opens.Load() || c.EOS.Load() != tm.EOS.Load() {
						t.Fatalf("%s: %s counting rows=%d batches=%d opens=%d eos=%d, timed rows=%d batches=%d opens=%d eos=%d",
							label, n.OpString(), c.Rows.Load(), c.Batches.Load(), c.Opens.Load(), c.EOS.Load(),
							tm.Rows.Load(), tm.Batches.Load(), tm.Opens.Load(), tm.EOS.Load())
					}
					if c.Time() != 0 {
						t.Fatalf("%s: %s counting profile read the clock (%v)", label, n.OpString(), c.Time())
					}
				}
				for _, ch := range n.Children {
					walk(ch)
				}
			}
			walk(p.Root)
			if timed.Peek(p.Root).Time() == 0 {
				t.Fatalf("%s: timed profile recorded no time", label)
			}
			cq := feedback.RecordExecution(nil, p.Root, counting)
			tq := feedback.RecordExecution(nil, p.Root, timed)
			if len(cq) == 0 || !reflect.DeepEqual(cq, tq) {
				t.Fatalf("%s: q-errors differ:\ncounting %+v\ntimed    %+v", label, cq, tq)
			}
			if !par {
				seqQErrs = tq
			}
		}

		// The slow log (which System.Query profiles with a counting
		// profile) reports the q-errors a timed profile yields.
		slow.Reset()
		if _, err := sys.Query(sql); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var rec feedback.QueryRecord
		if err := json.Unmarshal(bytes.TrimSpace(slow.Bytes()), &rec); err != nil {
			t.Fatalf("%s: slow-log line: %v\n%s", name, err, slow.String())
		}
		if !reflect.DeepEqual(rec.QErrors, seqQErrs) {
			t.Fatalf("%s: slow-log q-errors changed:\nlogged %+v\ntimed  %+v", name, rec.QErrors, seqQErrs)
		}

		// EXPLAIN ANALYZE keeps the timed profile.
		_, annotated, err := sys.ExplainAnalyze(sql)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(annotated, "time=") {
			t.Fatalf("%s: EXPLAIN ANALYZE lost time=:\n%s", name, annotated)
		}
	}
}
