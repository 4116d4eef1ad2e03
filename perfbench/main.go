// Command perfbench is the repository's benchmark. It starts fresh mctopd
// daemons, drives them with a seeded closed-loop request sequence for a
// fixed time, checks every answer, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload warm-hit --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// no tracing anywhere. With --trace 1 the same sequence runs against the
// daemons again and is then replayed in-process through the daemon's
// library stack with a span around every call into a layer; the result
// carries the per-layer metrics derived from those spans and from the
// daemons' /v1/stats counters. --workload all runs every workload untraced
// and prints a table. See README.md for the workloads and the metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/registry"
)

type workload struct {
	name  string
	conns int
	plan  func(seed uint64) *plan
	fleet bool // an origin daemon plus an edge daemon; requests go to the edge
	// setups is how many times a run sets its daemons up (and, in
	// edge-fleet, restarts the edge); setup_s is the median. Cheap set-ups
	// repeat more, to steady the median.
	setups int
}

var workloads = []workload{
	{name: "warm-hit", conns: 2, plan: warmHitPlan, setups: 5},
	{name: "churn", conns: 2, plan: churnPlan, setups: 3},
	{name: "cold-infer", conns: 1, plan: coldInferPlan, setups: 15},
	{name: "edge-fleet", conns: 1, plan: edgeFleetPlan, fleet: true, setups: 3},
}

// edgeCache is the edge daemon's LRU bound in edge-fleet: far smaller than
// the key set, so repeat touches fall through to the spool.
const edgeCache = 32

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	problems  []string
}

func main() {
	name := flag.String("workload", "", "warm-hit, churn, cold-infer, edge-fleet, or all (untraced, with a table)")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed generates the same requests")
	seconds := flag.Int("seconds", 10, "length of the timed window")
	traced := flag.Int("trace", 0, "1: measure the per-layer metrics in a traced run instead of the end-to-end ones")
	bin := flag.String("mctopd", filepath.Join(".bench_build", "mctopd"), "mctopd binary to run")
	spinner := flag.Bool("spin", false, "run as one of the benchmark's own idle-priority CPU spinners (see spin.go)")
	flag.Parse()
	if *spinner {
		spin()
	}

	var todo []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fail("unknown --workload %q", *name)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fail("%v", err)
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fail("%v", err)
	}
	if err := startSpinners(); err != nil {
		os.RemoveAll(dir)
		fail("%v", err)
	}
	e := &env{ctx: context.Background(), bin: *bin, dir: dir, seed: *seed, window: time.Duration(*seconds) * time.Second}
	ok := true
	for _, w := range todo {
		var res *result
		if *traced == 1 {
			res, err = e.trace(w)
		} else {
			res, err = e.measure(w)
		}
		if err != nil {
			os.RemoveAll(dir)
			fail("%s: %v", w.name, err)
		}
		for _, p := range res.problems {
			fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", w.name, p)
		}
		if *name == "all" {
			printTable(w.name, res)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fail("%v", err)
		}
		fmt.Println(string(line))
		ok = ok && res.Correct
	}
	stopSpinners()
	if err := os.RemoveAll(dir); err != nil {
		fail("%v", err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fail(format string, args ...any) {
	stopSpinners()
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

func printTable(name string, res *result) {
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("%s: correct=%v attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
	for _, k := range keys {
		fmt.Printf("  %-24s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}

// env is one benchmark invocation.
type env struct {
	ctx    context.Context
	bin    string
	dir    string // scratch: daemon logs and spool directories
	seed   uint64
	window time.Duration
}

// deployment is the daemons of one set-up. serve receives the workload's
// requests; in edge-fleet it is the edge and origin the origin.
type deployment struct {
	serve, origin *daemon
	spoolDir      string
}

func (d *deployment) daemons() []*daemon {
	if d.origin != nil {
		return []*daemon{d.origin, d.serve}
	}
	return []*daemon{d.serve}
}

func (d *deployment) stop() {
	for _, x := range d.daemons() {
		x.stop()
	}
}

func (e *env) logPath(name string, n int) string {
	return filepath.Join(e.dir, fmt.Sprintf("%s-%d.log", name, n))
}

func (e *env) edgeArgs(d *deployment) []string {
	return []string{"-cache", fmt.Sprint(edgeCache), "-spool-dir", d.spoolDir, "-upstream", d.origin.base}
}

// deploy starts the workload's daemons and prewarms them; the time from
// the first exec to the end of the prewarm is the set-up time.
func (e *env) deploy(w workload, p *plan, n int) (*deployment, time.Duration, error) {
	begin := time.Now()
	d, _, err := startDaemon(e.bin, e.logPath("mctopd", n))
	if err != nil {
		return nil, 0, err
	}
	dep := &deployment{serve: d}
	if err := sendAll(e.ctx, d.base, p.prewarm); err != nil {
		dep.stop()
		return nil, 0, fmt.Errorf("prewarm: %w", err)
	}
	if w.fleet {
		dep.origin = d
		dep.spoolDir = filepath.Join(e.dir, fmt.Sprintf("spool-%d", n))
		edge, _, err := startDaemon(e.bin, e.logPath("edge", n), e.edgeArgs(dep)...)
		if err != nil {
			d.stop()
			return nil, 0, err
		}
		dep.serve = edge
		if err := sendAll(e.ctx, edge.base, p.edgePrewarm); err != nil {
			dep.stop()
			return nil, 0, fmt.Errorf("edge prewarm: %w", err)
		}
	}
	return dep, time.Since(begin), nil
}

// restartEdge stops the edge (it flushes its spool) and starts a new one
// over the same spool, returning the new edge's exec-to-ready time.
func (e *env) restartEdge(dep *deployment, n int) (time.Duration, error) {
	dep.serve.stop()
	edge, ready, err := startDaemon(e.bin, e.logPath("edge-restart", n), e.edgeArgs(dep)...)
	if err != nil {
		dep.serve = nil
		return 0, err
	}
	dep.serve = edge
	return ready, nil
}

// snapshot is the state of every daemon of a deployment at one instant.
type snapshot struct {
	proc  []procSample
	stats []registry.Stats
}

func (e *env) sample(dep *deployment) (snapshot, error) {
	var s snapshot
	for _, d := range dep.daemons() {
		p, err := d.proc()
		if err != nil {
			return s, err
		}
		st, err := d.stats(e.ctx)
		if err != nil {
			return s, err
		}
		s.proc = append(s.proc, p)
		s.stats = append(s.stats, st)
	}
	return s, nil
}

// windowResult is what one timed window recorded.
type windowResult struct {
	out           []outcome
	before, after snapshot
	// steal is the machine's steal time (the time the host kept its
	// virtual CPUs from running) over the window, which lasted elapsed.
	steal, elapsed time.Duration
}

// stealPct is the share of the machine's CPU time the host took away
// during the window.
func (r *windowResult) stealPct() float64 {
	return 100 * float64(r.steal) / float64(r.elapsed) / float64(runtime.NumCPU())
}

// timed runs the timed closed loop against a deployment, with /proc and
// /v1/stats snapshots on both sides.
func (e *env) timed(w workload, p *plan, dep *deployment, col *collector) (*windowResult, error) {
	r := &windowResult{}
	var err error
	if r.before, err = e.sample(dep); err != nil {
		return nil, err
	}
	steal, err := stealTime()
	if err != nil {
		return nil, err
	}
	begin := time.Now()
	l := &loop{base: dep.serve.base, seq: p.seq, cycle: p.cycle, conns: w.conns, window: e.window, onBody: col.observe}
	r.out = l.run(e.ctx)
	r.elapsed = time.Since(begin)
	if r.steal, err = stealTime(); err != nil {
		return nil, err
	}
	r.steal -= steal
	if r.after, err = e.sample(dep); err != nil {
		return nil, err
	}
	return r, nil
}

// measure is the untraced run: the end-to-end metrics.
func (e *env) measure(w workload) (*result, error) {
	p := w.plan(e.seed)
	probe := startProber()
	var (
		dep    *deployment
		setups []float64
	)
	for i := 0; i < w.setups; i++ {
		if dep != nil {
			dep.stop()
		}
		d, t, err := e.deploy(w, p, i)
		if err != nil {
			return nil, err
		}
		dep, setups = d, append(setups, t.Seconds())
	}
	defer func() { dep.stop() }()

	refSetup := probe.finish()
	col := newCollector(p.seq)
	probe = startProber()
	win, err := e.timed(w, p, dep, col)
	refWindow := probe.finish()
	if err != nil {
		return nil, err
	}
	setup := median(setups)
	if w.fleet {
		var restarts []float64
		for i := 0; i < w.setups; i++ {
			t, err := e.restartEdge(dep, i)
			if err != nil {
				return nil, err
			}
			restarts = append(restarts, t.Seconds())
		}
		setup += median(restarts)
	}
	if err := e.check(w, dep, p.seq[:len(win.out)], col, win.before, win.after, true); err != nil {
		return nil, err
	}

	var (
		hwm int64
		cpu time.Duration
		lat []float64
	)
	for i, s := range win.after.proc {
		hwm += s.hwmKB
		cpu += s.cpu - win.before.proc[i].cpu
	}
	from, to := win.out[0].start, win.out[0].end
	for _, o := range win.out {
		from, to = min(from, o.start), max(to, o.end)
		if o.status == 200 {
			lat = append(lat, float64(o.latency())/float64(time.Millisecond))
		}
	}
	sort.Float64s(lat)
	n := float64(len(lat))
	rps, p50, p90 := n/(to-from).Seconds(), quantile(lat, 0.5), quantile(lat, 0.9)
	cpuPerOp := float64(cpu) / float64(time.Microsecond) / n
	// Every time figure is scaled to the reference speed (see calibrate),
	// as measured next to the set-ups and next to the window.
	slowSetup, slowdown := refSetup/refNominal, refWindow/refNominal
	fmt.Fprintf(os.Stderr, "perfbench: %s: reference computation %.0f us at set-up, %.0f us at the window (nominal %.0f); the host stole %.1f%% of the CPU time in the window; unscaled: setup_s %.4g throughput_rps %.5g latency_p50_ms %.4g latency_p90_ms %.4g daemon_cpu_us_per_op %.4g\n",
		w.name, refSetup, refWindow, refNominal, win.stealPct(), setup, rps, p50, p90, cpuPerOp)
	res := &result{
		Attempted: len(win.out),
		Failed:    col.failed,
		problems:  col.problems,
		Metrics: map[string]metric{
			"setup_s":              {setup / slowSetup, "s"},
			"throughput_rps":       {rps * slowdown, "1/s"},
			"latency_p50_ms":       {p50 / slowdown, "ms"},
			"latency_p90_ms":       {p90 / slowdown, "ms"},
			"daemon_cpu_us_per_op": {cpuPerOp / slowdown, "us"},
			"daemon_peak_rss_mb":   {float64(hwm) / 1024, "MB"},
		},
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// check verifies the answers of a timed run after the window has closed;
// every failed check counts the answers it covers as failed. restarted
// says the edge of edge-fleet has been restarted over its spool since.
func (e *env) check(w workload, dep *deployment, executed []*request, col *collector, before, after snapshot, restarted bool) error {
	last := len(after.stats) - 1
	switch w.name {
	case "warm-hit", "churn":
		ref, err := newStack(nil, tiers{cache: 256})
		if err != nil {
			return err
		}
		defer ref.close()
		for _, r := range distinct(executed) {
			want, err := ref.serve(e.ctx, r)
			if err != nil {
				return fmt.Errorf("reference %s %s: %w", r.method, r.path, err)
			}
			col.expect(r, want)
		}
		if w.name == "warm-hit" {
			if m := after.stats[0].Misses - before.stats[0].Misses; m != 0 {
				col.fail(int(m), "%d registry misses in a window that should only hit", m)
			}
		}
		if n := after.stats[0].Inferences - before.stats[0].Inferences; n != 0 {
			col.fail(int(n), "the daemon ran %d inferences in a window over warm topologies", n)
		}
	case "cold-infer":
		return e.checkCold(executed, col)
	case "edge-fleet":
		for _, r := range distinct(executed) {
			status, want, err := do(e.ctx, dep.origin.base, r)
			if err != nil || status != 200 {
				return fmt.Errorf("origin %s %s: status %d, %v", r.method, r.path, status, err)
			}
			col.expect(r, want)
		}
		if n := after.stats[last].Inferences - before.stats[last].Inferences; n != 0 {
			col.fail(int(n), "the edge ran %d inferences; it must run none", n)
		}
		// Half the window's placements are first touches, each fetched from
		// the origin once; the other half are repeats, read from the spool
		// (or, rarely, still in the edge's LRU: it is 8 shards of 4
		// entries, and a quiet shard keeps its entries longer).
		repeats := 0
		for _, r := range executed {
			if r.Kind == "place" {
				repeats++
			}
		}
		repeats /= 2
		hits := func(s snapshot, t string) int64 { return tier(s.stats[last], t).Kinds["placement"].Hits }
		delta := func(t string) int64 { return hits(after, t) - hits(before, t) }
		if n := delta("remote"); n != int64(repeats) {
			col.fail(repeats, "the edge fetched %d placements from its origin; the window touched %d for the first time", n, repeats)
		}
		if n := delta("spool") + delta("lru"); n != int64(repeats) {
			col.fail(repeats, "the edge served %d placements from its spool or LRU; the window repeated %d", n, repeats)
		}
		if restarted {
			return e.checkRestartedEdge(dep, executed, col)
		}
	}
	return nil
}

// checkRestartedEdge asks the edge, restarted over its spool, for the
// distinct requests of the window again: the answers must equal the
// window's, and the edge must not infer.
func (e *env) checkRestartedEdge(dep *deployment, executed []*request, col *collector) error {
	before, err := dep.serve.stats(e.ctx)
	if err != nil {
		return err
	}
	rs := distinct(executed)
	for _, r := range rs {
		status, body, err := do(e.ctx, dep.serve.base, r)
		if err != nil {
			return err
		}
		if status != 200 {
			col.fail(1, "restarted edge: %s %s: status %d", r.method, r.path, status)
			continue
		}
		col.expect(r, body)
	}
	after, err := dep.serve.stats(e.ctx)
	if err != nil {
		return err
	}
	if n := after.Inferences - before.Inferences; n != 0 {
		col.fail(int(n), "the restarted edge ran %d inferences; it must serve from its spool", n)
	}
	return nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile interpolates linearly between the closest ranks of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}
