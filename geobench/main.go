// Command geobench is the repository's end-to-end benchmark: SQL in,
// rows out, through the public entry points (System.Explain,
// System.Query, System.Serve → Server.Do), on three seeded workloads
// over the TPC-H deployment of the paper's evaluation.
//
//	go run . --workload exec-cpu --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last stdout line is a JSON object carrying the
// end-to-end metrics; with --trace 1 the run additionally repeats the
// timed phase with spans recorded around every call into a layer and
// reports the per-layer split instead. Every answer is checked against
// references computed outside the timed phase. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// The fixture every workload shares, recorded in the run stamp.
const (
	scaleFactor = 0.01 // TPC-H SF
	poolSeed    = 42   // workload.QueryGen seed of the ad-hoc pool
	adhocPool   = 24   // ad-hoc queries in the pool
)

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	traceOut string
}

// metric is one named, unit-carrying number of a report.
type metric struct {
	name  string
	unit  string
	value float64
}

// report is what a workload run produces.
type report struct {
	e2e     []metric
	layers  map[string]float64
	verdict verdict
	stamp   map[string]any
}

// layer sets a per-layer metric; the name must be one of perLayer.
func (r *report) layer(name, unit string, v float64) {
	for _, d := range perLayer {
		if d.name == name {
			if d.unit != unit {
				panic(fmt.Sprintf("geobench: layer metric %s has unit %s, not %s", name, d.unit, unit))
			}
			if r.layers == nil {
				r.layers = map[string]float64{}
			}
			r.layers[name] = v
			return
		}
	}
	panic("geobench: undeclared layer metric " + name)
}

// e2eMetrics turns a timed phase into the end-to-end metrics.
func e2eMetrics(setupS float64, ph *phase) []metric {
	n := float64(ph.requests())
	sorted := append([]float64(nil), ph.lats...)
	sort.Float64s(sorted)
	failRatio := 0.0
	if ph.attempted > 0 {
		failRatio = float64(ph.failed) / float64(ph.attempted)
	}
	return []metric{
		{"setup_s", "s", setupS},
		{"latency_p50_ms", "ms", quantileHD(sorted, 0.50)},
		{"latency_p90_ms", "ms", quantileHD(sorted, 0.90)},
		{"throughput_qps", "1/s", n / ph.wall.Seconds()},
		{"fail_ratio", "ratio", failRatio},
		{"ship_bytes_per_query", "B", float64(ph.shipBytes) / n},
		{"ship_cost_ms_per_query", "sim_ms", ph.shipCost / n},
		{"est_ship_cost_ms_per_query", "sim_ms", ph.estShip / n},
		{"cpu_ms_per_query", "ms", ms(ph.cpu) / n},
		{"alloc_mb_per_query", "MB", float64(ph.alloc) / (1 << 20) / n},
		{"peak_mem_mb", "MB", ph.peakMem},
	}
}

// contractE2E are the end-to-end metrics listed in BENCHMARK.json (the
// others are printed but can be 0 by design: fail_ratio is carried by
// "failed"/"attempted", and plan-cold ships nothing).
var contractE2E = map[string]bool{
	"setup_s": true, "latency_p50_ms": true, "latency_p90_ms": true,
	"throughput_qps": true, "est_ship_cost_ms_per_query": true,
	"cpu_ms_per_query": true, "alloc_mb_per_query": true, "peak_mem_mb": true,
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "plan-cold, exec-cpu or serve-geo")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed (stream order, appended rows)")
	flag.IntVar(&cfg.seconds, "seconds", 20, "minimum length of the timed phase")
	trace := flag.Int("trace", 0, "1 = also run a traced phase and report the per-layer split")
	flag.Parse()
	cfg.trace = *trace == 1
	cfg.traceOut = filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	if cfg.seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("--seconds must be at least 1 and --trace 0 or 1")
	}

	var run func(*config) (*report, error)
	switch cfg.workload {
	case "plan-cold":
		run = runPlanCold
	case "exec-cpu":
		run = runExecCPU
	case "serve-geo":
		run = runServeGeo
	default:
		fatalf("unknown --workload %q (plan-cold, exec-cpu, serve-geo)", cfg.workload)
	}
	rep, err := run(&cfg)
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	rep.stamp = stamp(&cfg, rep.stamp)
	emit(os.Stdout, &cfg, rep)
	if rep.verdict.failed > 0 {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "geobench: "+format+"\n", args...)
	os.Exit(2)
}

// emit writes the human-readable table, the run stamp and, last, the
// one-line JSON result.
func emit(w io.Writer, cfg *config, rep *report) {
	fmt.Fprintf(w, "== %s seed=%d trace=%v\n", cfg.workload, cfg.seed, cfg.trace)
	for _, m := range rep.e2e {
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", m.name, m.value, m.unit)
	}
	if cfg.trace {
		fmt.Fprintln(w, "  -- per layer (traced run)")
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-40s %14.4f %s\n", d.name, rep.layers[d.name], d.unit)
		}
	}
	for _, n := range rep.verdict.notes {
		fmt.Fprintln(w, "  FAIL", n)
	}
	st, _ := json.Marshal(rep.stamp)
	fmt.Fprintf(w, "stamp %s\n", st)

	ms := map[string]map[string]any{}
	if cfg.trace {
		for _, d := range perLayer {
			ms[d.name] = map[string]any{"value": rep.layers[d.name], "unit": d.unit}
		}
	} else {
		for _, m := range rep.e2e {
			if contractE2E[m.name] {
				ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
			}
		}
	}
	out, _ := json.Marshal(map[string]any{
		"correct":   rep.verdict.failed == 0,
		"attempted": rep.verdict.attempted,
		"failed":    rep.verdict.failed,
		"metrics":   ms,
	})
	fmt.Fprintln(w, string(out))
}

// stamp records the machine, toolchain, code version and run settings.
func stamp(cfg *config, extra map[string]any) map[string]any {
	s := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"sf":         scaleFactor,
		"pool_seed":  poolSeed,
		"adhoc_pool": adhocPool,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     gitCommit(),
		"max_rss_mb": maxRSSMB(),
	}
	for k, v := range extra {
		s[k] = v
	}
	return s
}

// gitCommit reads HEAD without invoking git ("none" outside a checkout).
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", strings.TrimPrefix(ref, "ref: "))); err == nil {
		return strings.TrimSpace(string(b))
	}
	return "unknown"
}

// phase accumulates one timed phase's requests.
type phase struct {
	lats      []float64 // per-request latency, ms
	attempted int
	failed    int // filled in by verification
	shipBytes int64
	shipCost  float64
	estShip   float64
	wall      time.Duration
	cpu       time.Duration
	alloc     uint64
	peakMem   float64 // MB
	mem       *memSampler

	// Verification done inside the phase, subtracted from it.
	exWall, exCPU time.Duration
	exAlloc       uint64
}

func (p *phase) requests() int { return len(p.lats) }

// timed runs body as the timed phase, capturing wall time, process CPU,
// allocation and peak RSS around it, less what verify charged.
func timed(ph *phase, body func()) {
	var m0, m1 runtime.MemStats
	debug.FreeOSMemory()
	runtime.ReadMemStats(&m0)
	ph.mem = sampleMemory()
	c0, t0 := cpuTime(), time.Now()
	body()
	ph.wall, ph.cpu = time.Since(t0)-ph.exWall, cpuTime()-c0-ph.exCPU
	ph.peakMem = ph.mem.end()
	runtime.ReadMemStats(&m1)
	ph.alloc = m1.TotalAlloc - m0.TotalAlloc - ph.exAlloc
}

// memSampler samples the memory the Go runtime holds from the OS
// (mapped minus released) every 10 ms during the timed phase, keeping
// the peak of each window (a workload closes one per round or write
// phase). Their median is steadier than a single peak, which depends on
// where garbage collections happen to fall; unlike the process's peak
// RSS it leaves set-up out.
type memSampler struct {
	mu    sync.Mutex
	cur   uint64
	peaks []float64
	stop  chan struct{}
	done  chan struct{}
}

func sampleMemory() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			m.read()
			select {
			case <-m.stop:
				return
			case <-t.C:
			}
		}
	}()
	return m
}

func (m *memSampler) read() {
	samples := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	metrics.Read(samples)
	v := samples[0].Value.Uint64() - samples[1].Value.Uint64()
	m.mu.Lock()
	m.cur = max(m.cur, v)
	m.mu.Unlock()
}

// window closes the current window.
func (m *memSampler) window() {
	m.read()
	m.mu.Lock()
	m.peaks = append(m.peaks, float64(m.cur)/(1<<20))
	m.cur = 0
	m.mu.Unlock()
}

// end stops sampling and returns the median window peak in MB.
func (m *memSampler) end() float64 {
	close(m.stop)
	<-m.done
	if m.cur > 0 || len(m.peaks) == 0 {
		m.window()
	}
	return median(m.peaks)
}

// verify runs a check of a single-client phase between two requests and
// takes its wall time, CPU and allocation out of the phase's totals.
func (p *phase) verify(check func()) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, t0 := cpuTime(), time.Now()
	check()
	p.exWall += time.Since(t0)
	p.exCPU += cpuTime() - c0
	runtime.ReadMemStats(&m1)
	p.exAlloc += m1.TotalAlloc - m0.TotalAlloc
}
