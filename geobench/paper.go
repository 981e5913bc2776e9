package main

import (
	"math"

	"cgdqp/internal/network"
	"cgdqp/internal/optimizer"
	"cgdqp/internal/tpch"
	"cgdqp/internal/workload"
)

// paperRows reports the paper-shaped cells: per golden query and TPC-H
// policy set, the compliant optimizer's cold optimization time over the
// traditional one's (Figure 6b) and the compliant optimizer's η, the
// policy expressions it considered (Figure 7). Each timing is the median
// of reps runs on fresh optimizers; the aggregate
// optimizer.compliant_over_traditional is the geometric mean of the
// cells.
func paperRows(rep *report, sf float64, reps int) error {
	cat := tpch.NewCatalog(sf)
	net := network.FiveRegionWAN(cat.Locations())
	logSum, cells := 0.0, 0
	for _, set := range workload.SetNames() {
		pc := workload.TPCHSet(set)
		for _, q := range tpch.QueryNames() {
			var times [2][]float64
			var eta int64
			for r := 0; r < reps; r++ {
				for i, compliant := range []bool{true, false} {
					opt := optimizer.New(cat, pc, net, optimizer.Options{Compliant: compliant})
					res, err := opt.OptimizeSQL(tpch.Queries[q])
					if err != nil {
						return err
					}
					times[i] = append(times[i], ms(res.Stats.TotalTime))
					if compliant {
						eta = res.Stats.Eta
					}
				}
			}
			ratio := median(times[0]) / median(times[1])
			rep.layer(paperName("fig6b", q, set), "ratio", ratio)
			rep.layer(paperName("fig7.eta", q, set), "count", float64(eta))
			logSum += math.Log(ratio)
			cells++
		}
	}
	rep.layer("optimizer.compliant_over_traditional", "ratio", math.Exp(logSum/float64(cells)))
	return nil
}
