package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/registry"
	"repro/internal/taskmap"
	"repro/internal/topo"
)

// trace is the traced run: the per-layer metrics. It sets the daemons up
// once, runs the timed window against them with a span around each HTTP
// round trip (and /v1/stats snapshots on both sides), then replays the
// requests that window executed in-process twice — untraced, then traced —
// through a fresh library stack each time.
func (e *env) trace(w workload) (*result, error) {
	p := w.plan(e.seed)
	dep, _, err := e.deploy(w, p, 0)
	if err != nil {
		return nil, err
	}
	defer func() { dep.stop() }()
	col := newCollector(p.seq)
	win, err := e.timed(w, p, dep, col)
	if err != nil {
		return nil, err
	}
	out, before, after := win.out, win.before, win.after
	executed := p.seq[:len(out)]
	if err := e.check(w, dep, executed, col, before, after, false); err != nil {
		return nil, err
	}

	untraced, _, err := e.replay(w, p, dep, executed, nil, nil)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	traced, s, err := e.replay(w, p, dep, executed, rec, col)
	if err != nil {
		return nil, err
	}
	decodeAll(e.ctx, rec, executed, col)

	m := layerMetrics(rec.spans, out, before.stats[len(before.stats)-1], after.stats[len(after.stats)-1], s)
	m["bench.untraced_rps"] = metric{untraced, "1/s"}
	m["bench.steal_pct"] = metric{win.stealPct(), "%"}
	m["bench.trace_overhead_pct"] = metric{(untraced - traced) / untraced * 100, "%"}

	// The HTTP round trips join the in-process spans in the dump, on the
	// window's own clock.
	spans := rec.spans
	for i, o := range out {
		spans = append(spans, span{ID: len(spans) + 1, Req: i, Name: "mctopd.http", Start: int64(o.start), End: int64(o.end)})
	}
	dump := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", w.name, e.seed))
	if err := os.MkdirAll(filepath.Dir(dump), 0o755); err != nil {
		return nil, err
	}
	if err := writeSpans(dump, spans); err != nil {
		return nil, err
	}
	return &result{Correct: col.failed == 0, Attempted: len(out), Failed: col.failed, Metrics: m, problems: col.problems}, nil
}

// replay serves the executed requests in-process, one at a time, through a
// fresh stack configured like the daemon that served them (prewarmed the
// same way), and returns the requests per second it sustained. With col,
// every distinct answer is checked against the daemons' answers.
func (e *env) replay(w workload, p *plan, dep *deployment, executed []*request, rec *recorder, col *collector) (float64, *stack, error) {
	cfg := tiers{cache: 256}
	if w.fleet {
		dir, err := os.MkdirTemp(e.dir, "replay-spool-")
		if err != nil {
			return 0, nil, err
		}
		cfg = tiers{cache: edgeCache, spoolDir: dir, upstream: dep.origin.base}
	}
	s, err := newStack(rec, cfg)
	if err != nil {
		return 0, nil, err
	}
	defer s.close()
	// The in-process edge of edge-fleet has the warm daemon as its origin,
	// so only the edge's own prewarm is replayed.
	prewarm := p.prewarm
	if w.fleet {
		prewarm = p.edgePrewarm
	}
	rec.pause(true)
	for _, r := range prewarm {
		if _, err := s.serve(e.ctx, r); err != nil {
			return 0, nil, fmt.Errorf("in-process prewarm %s %s: %w", r.method, r.path, err)
		}
	}
	rec.pause(false)
	first := make(map[string][]byte)
	begin := time.Now()
	for i, r := range executed {
		ctx, end := rec.start(withRequest(e.ctx, i), "request")
		body, err := s.serve(ctx, r)
		end("")
		if err != nil {
			return 0, nil, fmt.Errorf("in-process %s %s: %w", r.method, r.path, err)
		}
		if _, ok := first[r.key]; !ok {
			first[r.key] = body
		}
	}
	rps := float64(len(executed)) / time.Since(begin).Seconds()
	if col != nil {
		for _, r := range distinct(executed) {
			col.expect(r, first[r.key])
		}
	}
	return rps, s, nil
}

// layerMetrics derives the per-layer metrics: timings from the traced
// replay's spans, counts from the serving daemon's /v1/stats deltas and
// the HTTP window's outcomes. A layer the workload does not reach reports
// 0. Every ratio is given with its base.
func layerMetrics(spans []span, out []outcome, before, after registry.Stats, s *stack) map[string]metric {
	self := selfTimes(spans)
	durs := map[string][]float64{}
	// served is, per request, the time its registry call and its
	// rendering took in-process; the rest of the round trip is mctopd's
	// own (HTTP, validation, logging, scheduling).
	served := map[int]time.Duration{}
	var registrySelf []float64
	for _, sp := range spans {
		durs[sp.Name] = append(durs[sp.Name], float64(sp.dur()))
		registry := strings.HasPrefix(sp.Name, "registry.")
		if registry || sp.Name == "render" || sp.Name == "topo.Encode" {
			served[sp.Req] += sp.dur()
		}
		if registry {
			registrySelf = append(registrySelf, float64(self[sp.ID]))
		}
	}
	p50 := func(xs []float64, unit time.Duration) float64 { return median(xs) / float64(unit) }
	us, ms := time.Microsecond, time.Millisecond

	var rt, handlerSelf []float64
	var bytes, shed int
	for i, o := range out {
		bytes += o.bytes
		if o.status == 503 {
			shed++
		}
		if o.status == 200 {
			rt = append(rt, float64(o.latency()))
			if d, ok := served[i]; ok {
				handlerSelf = append(handlerSelf, float64(o.latency()-d))
			}
		}
	}

	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	lookups := hits + misses
	computes := (after.Inferences - before.Inferences) + (after.Placements - before.Placements) + (after.Mappings - before.Mappings)
	delta := func(name string, f func(registry.StoreStats) int64) float64 {
		return float64(f(tier(after, name)) - f(tier(before, name)))
	}
	fetchOK := delta("remote", func(t registry.StoreStats) int64 { return t.Hits })
	fetches := fetchOK + delta("remote", func(t registry.StoreStats) int64 { return t.Misses })
	cost, serial := s.mappingCosts()

	m := map[string]metric{
		"mctopd.requests":          {float64(len(out)), "count"},
		"mctopd.round_trip_us_p50": {p50(rt, us), "us"},
		"mctopd.self_us_p50":       {p50(handlerSelf, us), "us"},
		"mctopd.resp_bytes_mean":   {float64(bytes) / max(float64(len(out)), 1), "bytes"},
		"mctopd.shed_503":          {float64(shed), "count"},

		"registry.lookup_us_p50": {p50(registrySelf, us), "us"},
		"registry.lookups":       {float64(lookups), "count"},
		"registry.hit_ratio":     {ratio(float64(hits), float64(lookups)), "ratio"},
		"registry.inferences":    {float64(after.Inferences - before.Inferences), "count"},
		"registry.coalesced":     {float64(max(misses-computes, 0)), "count"},
		"registry.evictions":     {float64(after.Evictions - before.Evictions), "count"},
		"registry.puts":          {delta("lru", func(t registry.StoreStats) int64 { return t.Puts }), "count"},

		"sim.platform_us": {p50(durs["sim.ByName"], us), "us"},

		"place.builds":       {float64(after.Placements - before.Placements), "count"},
		"place.build_us_p50": {p50(durs["place.NewFrom"], us), "us"},

		"taskmap.maps":       {float64(after.Mappings - before.Mappings), "count"},
		"taskmap.map_us_p50": {p50(durs["taskmap.Map"], us), "us"},
		"taskmap.priced":     {float64(len(s.mappings)), "count"},
		"taskmap.cost_ratio": {ratio(cost, serial), "ratio"},

		"mctopalg.infer_ms_p50":    {p50(durs["mctopalg.InferContext"], ms), "ms"},
		"mctopalg.inferences":      {float64(s.infer.n), "count"},
		"mctopalg.pairs_measured":  {float64(s.infer.pairs), "count"},
		"mctopalg.pairs_total":     {float64(s.infer.pairsTotal), "count"},
		"mctopalg.filled_ratio":    {ratio(float64(s.infer.filled), float64(s.infer.pairsTotal)), "ratio"},
		"mctopalg.fallback_blocks": {float64(s.infer.fallback), "count"},
		"mctopalg.retries":         {float64(s.infer.retries), "count"},
		"mctopalg.sim_cycles":      {float64(s.infer.cycles), "cycles"},

		"plugins.enrich_ms_p50": {p50(durs["plugins.Enrich"], ms), "ms"},

		"topo.encode_us_p50":  {p50(durs["topo.Encode"], us), "us"},
		"topo.decode_us_p50":  {p50(durs["topo.Decode"], us), "us"},
		"topo.index_build_us": {p50(durs["topo.index"], us), "us"},

		"spool.get_us_p50":      {p50(durs["spool.Get"], us), "us"},
		"spool.hits":            {delta("spool", func(t registry.StoreStats) int64 { return t.Hits }), "count"},
		"spool.writes":          {delta("spool", func(t registry.StoreStats) int64 { return t.Puts }), "count"},
		"spool.quarantined":     {delta("spool", func(t registry.StoreStats) int64 { return t.Quarantined }), "count"},
		"remote.fetch_us_p50":   {p50(durs["remote.Get"], us), "us"},
		"remote.fetches":        {fetches, "count"},
		"remote.fetch_ok_ratio": {ratio(fetchOK, fetches), "ratio"},
	}
	return m
}

func ratio(num, base float64) float64 {
	if base == 0 {
		return 0
	}
	return num / base
}

// mapped is one mapping the traced replay computed, kept to price it
// against serial execution once the replay is over.
type mapped struct {
	t *topo.Topology
	d *graph.TaskDAG
	m *taskmap.Mapping
}

// mappingCosts sums, over the mappings the traced replay computed, the
// mapping's estimated cost and the estimated cost of running the same DAG
// serially on the mapping's first candidate context (context 0).
func (s *stack) mappingCosts() (cost, serial float64) {
	for _, x := range s.mappings {
		c, err := taskmap.Estimate(x.t, x.d, x.m.Assignment())
		if err != nil {
			continue
		}
		sc, err := taskmap.Estimate(x.t, x.d, make([]int, len(x.d.Nodes)))
		if err != nil {
			continue
		}
		cost += float64(c)
		serial += float64(sc)
	}
	return cost, serial
}
