package main

import (
	"context"
	"time"

	"cgdqp/internal/cluster"
	"cgdqp/internal/executor"
	"cgdqp/internal/expr"
	"cgdqp/internal/network"
	"cgdqp/internal/plan"
)

// codecCost is the wire-codec work of one plan's shipments.
type codecCost struct {
	frames   int64
	enc, dec time.Duration
}

func (c *codecCost) add(o codecCost, times int) {
	c.frames += o.frames * int64(times)
	c.enc += o.enc * time.Duration(times)
	c.dec += o.dec * time.Duration(times)
}

// shipCodec times network.EncodeBatch and network.DecodeBatchCols, in
// executor.BatchSize-row frames, on the rows each SHIP of the plan
// moves. The rows come from running the SHIP's input subtree on cl (a
// reference cluster holding the same data), so the measurement touches
// neither the system under test nor its timed phase. Each timing is the
// median of three passes.
func shipCodec(root *plan.Node, cl *cluster.Cluster) (codecCost, error) {
	var cc codecCost
	var err error
	root.Walk(func(n *plan.Node) bool {
		if err != nil {
			return false
		}
		if n.Kind == plan.Ship && len(n.Children) == 1 {
			var rows []expr.Row
			rows, _, err = executor.RunObservedOpts(context.Background(), n.Children[0], cl, nil, executor.ExecOptions{})
			if err == nil {
				var c codecCost
				c, err = codecPasses(rows)
				cc.add(c, 1)
			}
		}
		return true
	})
	return cc, err
}

func codecPasses(rows []expr.Row) (codecCost, error) {
	var encs, decs []float64
	var frames int64
	for pass := 0; pass < 3; pass++ {
		var enc, dec time.Duration
		frames = 0
		var b expr.Batch
		for start := 0; start < len(rows); start += executor.BatchSize {
			end := min(start+executor.BatchSize, len(rows))
			t0 := time.Now()
			frame := network.EncodeBatch(rows[start:end], network.WireOptions{})
			t1 := time.Now()
			if err := network.DecodeBatchCols(frame, &b); err != nil {
				return codecCost{}, err
			}
			dec += time.Since(t1)
			enc += t1.Sub(t0)
			frames++
		}
		encs, decs = append(encs, float64(enc)), append(decs, float64(dec))
	}
	return codecCost{frames: frames, enc: time.Duration(median(encs)), dec: time.Duration(median(decs))}, nil
}
