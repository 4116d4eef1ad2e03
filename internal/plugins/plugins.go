// Package plugins implements the four enrichment plugins of Section 4 of
// the MCTOP paper: memory latency, memory bandwidth, cache latency/size and
// power. Each plugin measures the machine through the optional prober
// interfaces of internal/machine and returns an enriched topology spec;
// "essentially, libmctop gives the best-case bandwidth and latency of a
// multi-core — these characteristics in the absence of contention."
//
// Plugins are pure functions from (machine, topology) to an updated spec:
// the topology itself is immutable, so enrichment rebuilds it.
package plugins

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/topo"
)

// Plugin measures one aspect of the machine and records it into the spec.
// Custom plugins can be added by implementing this interface ("developers
// can write their own plugins to further enrich MCTOP").
type Plugin interface {
	Name() string
	// Run measures m and mutates spec in place. t is the already inferred
	// base topology (for structure queries). Run returns an error only for
	// real failures; machines lacking the needed prober are skipped with
	// ErrUnsupported.
	Run(m machine.Machine, t *topo.Topology, spec *topo.Spec) error
}

// ErrUnsupported is returned by plugins whose prober the machine lacks
// (e.g. power on non-Intel platforms).
type ErrUnsupported struct{ PluginName string }

func (e ErrUnsupported) Error() string {
	return fmt.Sprintf("plugins: machine does not support %s measurements", e.PluginName)
}

// All returns the paper's four essential plugins in their natural order.
func All() []Plugin {
	return []Plugin{MemLatency{}, MemBandwidth{}, Cache{}, Power{}}
}

// The three measurement-heavy plugins run fork-per-probe under
// EnrichForked; Power stays sequential (its probes are closed-form model
// reads, not timed measurements).
var (
	_ ForkedPlugin = MemLatency{}
	_ ForkedPlugin = MemBandwidth{}
	_ ForkedPlugin = Cache{}
)

// enrich runs each plugin (All() if ps is nil) through run, skipping
// unsupported ones, and rebuilds the topology from the enriched spec — the
// loop both Enrich and EnrichForked share.
func enrich(t *topo.Topology, ps []Plugin, run func(Plugin, *topo.Spec) error) (*topo.Topology, error) {
	if ps == nil {
		ps = All()
	}
	spec := t.Spec()
	for _, p := range ps {
		err := run(p, &spec)
		if err == nil {
			continue
		}
		if _, skip := err.(ErrUnsupported); skip {
			continue
		}
		return nil, fmt.Errorf("plugins: %s: %w", p.Name(), err)
	}
	return topo.FromSpec(spec)
}

// Enrich runs the given plugins (All() if nil) over a topology and returns
// the enriched, rebuilt topology. Unsupported plugins are skipped. Probes
// run sequentially through the parent machine's single noise stream — the
// behavior description files were generated with.
func Enrich(m machine.Machine, t *topo.Topology, ps []Plugin) (*topo.Topology, error) {
	return enrich(t, ps, func(p Plugin, spec *topo.Spec) error {
		return p.Run(m, t, spec)
	})
}

// ForkedPlugin is the optional extension implemented by plugins whose
// probes can run on independent machine forks (the same pattern as
// MCTOP-ALG's parallel measurement phase: workers only decide when a probe
// runs, never what it observes).
type ForkedPlugin interface {
	Plugin
	// RunForked is Run with every probe measured on its own fork, fanned
	// out over the given worker count (<= 0 means GOMAXPROCS).
	RunForked(fk machine.Forker, m machine.Machine, t *topo.Topology, spec *topo.Spec, workers int) error
}

// Probe-stream tags: each forked probe observes the noise stream derived
// from (seed, tag+plugin, probe index). The base is far above any real
// context id, so probe streams never collide with MCTOP-ALG's per-pair
// measurement streams (which use ForkPair(x, y) with context ids).
const (
	probeTagMemLat = 1<<20 + iota
	probeTagMemBW
	probeTagCache
)

// EnrichForked is Enrich with the probes of fork-capable plugins measured
// on independent forks over a bounded worker pool. For a fixed machine seed
// the result is deterministic and byte-identical for every worker count —
// each probe's noise stream is a pure function of (seed, plugin, probe) and
// each result lands in its probe's own slot — but it differs from Enrich's
// (equally valid) measurements by the noise amplitude, because Enrich's
// probes share the parent machine's one sequential stream. Description
// files and golden fixtures are generated with Enrich; opt in to
// EnrichForked where enrichment latency matters more than byte-stability
// against those fixtures. Machines without machine.Forker fall back to
// Enrich, as do plugins without RunForked.
func EnrichForked(m machine.Machine, t *topo.Topology, ps []Plugin, workers int) (*topo.Topology, error) {
	fk, ok := m.(machine.Forker)
	if !ok {
		return Enrich(m, t, ps)
	}
	return enrich(t, ps, func(p Plugin, spec *topo.Spec) error {
		if fp, ok := p.(ForkedPlugin); ok {
			return fp.RunForked(fk, m, t, spec, workers)
		}
		return p.Run(m, t, spec)
	})
}

// forEachProbe runs probe i, for every i in [0, n), on its own fork
// ForkPair(tag, i) over the shared fork pool (machine.RunForks); the first
// error fails the whole run and stops scheduling further probes. Every
// forked plugin probes memory, so the fork's prober comes checked.
func forEachProbe(fk machine.Forker, tag, n, workers int, probe func(fm machine.Machine, prober machine.MemoryProber, i int) error) error {
	return machine.RunForks(context.Background(), workers, n, func() func(int) error {
		return func(i int) error {
			fm, err := fk.ForkPair(tag, i)
			if err != nil {
				return err
			}
			prober, ok := fm.(machine.MemoryProber)
			if !ok {
				return fmt.Errorf("fork of %s does not support memory probes", fm.Name())
			}
			return probe(fm, prober, i)
		}
	})
}

// repCtx returns a representative hardware context of each socket (its
// first context).
func repCtx(t *topo.Topology) []int {
	reps := make([]int, t.NumSockets())
	for i, s := range t.Sockets() {
		reps[i] = s.Contexts[0].ID
	}
	return reps
}

// dvfsWait spins until consecutive calibrated loops take the same time —
// plugins need warm cores for exactly the same reason MCTOP-ALG does
// (Section 3.5).
func dvfsWait(m machine.Machine, t machine.Thread) {
	const unit = 1_000_000
	const maxIters = 64
	prev := m.SpinSolo(t, unit)
	stable := 0
	for i := 0; i < maxIters; i++ {
		cur := m.SpinSolo(t, unit)
		diff := cur - prev
		if diff < 0 {
			diff = -diff
		}
		if diff*100 <= prev {
			stable++
			if stable >= 2 {
				return
			}
		} else {
			stable = 0
		}
		prev = cur
	}
}

// MemLatency measures the load latency from every socket to every node
// using a randomly connected linked list of cache lines, "resulting in
// cache misses for almost every iteration" (Section 4).
type MemLatency struct {
	// Probes is the number of dependent loads per (socket, node) sample
	// (default 512).
	Probes int
}

// Name implements Plugin.
func (MemLatency) Name() string { return "mem-latency" }

// Run implements Plugin.
func (p MemLatency) Run(m machine.Machine, t *topo.Topology, spec *topo.Spec) error {
	prober, ok := m.(machine.MemoryProber)
	if !ok {
		return ErrUnsupported{p.Name()}
	}
	probes := p.Probes
	if probes <= 0 {
		probes = 512
	}
	reps := repCtx(t)
	lat := make([][]int64, t.NumSockets())
	th, err := m.NewThread(reps[0])
	if err != nil {
		return err
	}
	for s := range reps {
		if err := th.Pin(reps[s]); err != nil {
			return err
		}
		dvfsWait(m, th)
		lat[s] = make([]int64, t.NumNodes())
		for n := 0; n < t.NumNodes(); n++ {
			lat[s][n] = medianOfChunks(16, func(chunk int) int64 {
				return prober.MemRandomAccess(th, n, chunk)
			}, probes)
		}
	}
	spec.MemLat = lat
	return nil
}

// RunForked implements ForkedPlugin: one fork per (socket, node) probe.
func (p MemLatency) RunForked(fk machine.Forker, m machine.Machine, t *topo.Topology, spec *topo.Spec, workers int) error {
	if _, ok := m.(machine.MemoryProber); !ok {
		return ErrUnsupported{p.Name()}
	}
	probes := p.Probes
	if probes <= 0 {
		probes = 512
	}
	reps := repCtx(t)
	nN := t.NumNodes()
	lat := make([][]int64, len(reps))
	for s := range lat {
		lat[s] = make([]int64, nN)
	}
	err := forEachProbe(fk, probeTagMemLat, len(reps)*nN, workers, func(fm machine.Machine, prober machine.MemoryProber, i int) error {
		s, n := i/nN, i%nN
		th, err := fm.NewThread(reps[s])
		if err != nil {
			return err
		}
		dvfsWait(fm, th)
		lat[s][n] = medianOfChunks(16, func(chunk int) int64 {
			return prober.MemRandomAccess(th, n, chunk)
		}, probes)
		return nil
	})
	if err != nil {
		return err
	}
	spec.MemLat = lat
	return nil
}

// medianOfChunks splits total accesses into nChunks batches, computes the
// per-access average of each batch, and returns the median — robust against
// the occasional spurious spike (an interrupt or background process) that
// would otherwise inflate a plain mean.
func medianOfChunks(nChunks int, batch func(chunk int) int64, total int) int64 {
	per := total / nChunks
	if per < 1 {
		per = 1
	}
	avgs := make([]int64, 0, nChunks)
	for i := 0; i < nChunks; i++ {
		avgs = append(avgs, batch(per)/int64(per))
	}
	return stats.Median(avgs)
}

// MemBandwidth measures the achievable bandwidth from every socket to every
// node by streaming sequentially with an increasing number of cores until
// the aggregate stops improving (Section 4), and records the single-core
// streaming bandwidth used by the RR_SCALE policy.
type MemBandwidth struct{}

// Name implements Plugin.
func (MemBandwidth) Name() string { return "mem-bandwidth" }

// streamCtxs returns one context per core of the socket, in core order —
// the streaming team of the bandwidth saturation sweep.
func streamCtxs(t *topo.Topology, sock *topo.Socket) []int {
	var ctxs []int
	for _, core := range t.SocketGetCores(sock) {
		ctxs = append(ctxs, core.Contexts[0].ID)
	}
	return ctxs
}

// saturatedBW streams from node with an increasing number of cores until
// the aggregate stops improving (Section 4).
func saturatedBW(prober machine.MemoryProber, ctxs []int, node int) float64 {
	best := 0.0
	for k := 1; k <= len(ctxs); k++ {
		cur := prober.StreamBandwidth(ctxs[:k], node)
		if cur <= best*1.005 { // saturated
			break
		}
		best = cur
	}
	return best
}

// fillSocketBW derives the interconnect bandwidths: the bandwidth from
// socket A to socket B's local node is limited by the link(s) between
// them — this fills the cross-socket graph's GB/s labels (Figures 1b, 2b)
// and feeds the reduction-tree planner.
func fillSocketBW(t *topo.Topology, bw [][]float64, spec *topo.Spec) {
	nS := t.NumSockets()
	sbw := make([][]float64, nS)
	for a := 0; a < nS; a++ {
		sbw[a] = make([]float64, nS)
		for b := 0; b < nS; b++ {
			if a == b {
				continue
			}
			sbw[a][b] = bw[a][t.Socket(b).Local.ID]
		}
	}
	spec.SocketBW = sbw
}

// Run implements Plugin.
func (p MemBandwidth) Run(m machine.Machine, t *topo.Topology, spec *topo.Spec) error {
	prober, ok := m.(machine.MemoryProber)
	if !ok {
		return ErrUnsupported{p.Name()}
	}
	bw := make([][]float64, t.NumSockets())
	for s, sock := range t.Sockets() {
		bw[s] = make([]float64, t.NumNodes())
		ctxs := streamCtxs(t, sock)
		for n := 0; n < t.NumNodes(); n++ {
			bw[s][n] = saturatedBW(prober, ctxs, n)
		}
		if s == 0 && len(ctxs) > 0 {
			spec.StreamCoreBW = prober.StreamBandwidth(ctxs[:1], t.Sockets()[0].Local.ID)
		}
	}
	spec.MemBW = bw
	fillSocketBW(t, bw, spec)
	return nil
}

// RunForked implements ForkedPlugin: one fork per (socket, node) sweep. The
// simulator's streaming model is noise-free, so forked and sequential
// bandwidth measurements agree exactly; forking still buys the wall-clock
// fan-out on large machines (Westmere: 8 sockets × 8 nodes).
func (p MemBandwidth) RunForked(fk machine.Forker, m machine.Machine, t *topo.Topology, spec *topo.Spec, workers int) error {
	if _, ok := m.(machine.MemoryProber); !ok {
		return ErrUnsupported{p.Name()}
	}
	nN := t.NumNodes()
	sockets := t.Sockets()
	local0 := sockets[0].Local.ID
	bw := make([][]float64, len(sockets))
	for s := range bw {
		bw[s] = make([]float64, nN)
	}
	var coreBW float64 // single-core streaming BW, only from the (0, local0) probe
	err := forEachProbe(fk, probeTagMemBW, len(sockets)*nN, workers, func(_ machine.Machine, prober machine.MemoryProber, i int) error {
		s, n := i/nN, i%nN
		ctxs := streamCtxs(t, sockets[s])
		bw[s][n] = saturatedBW(prober, ctxs, n)
		if s == 0 && n == local0 && len(ctxs) > 0 {
			coreBW = prober.StreamBandwidth(ctxs[:1], local0)
		}
		return nil
	})
	if err != nil {
		return err
	}
	spec.StreamCoreBW = coreBW
	spec.MemBW = bw
	fillSocketBW(t, bw, spec)
	return nil
}

// Cache estimates the latency and size of the cache hierarchy by timing
// dependent loads over growing working sets and detecting the latency
// steps; it also "loads and includes the cache sizes from the operating
// system" (Section 4).
type Cache struct {
	// Loads per working-set sample (default 256).
	Loads int
}

// Name implements Plugin.
func (Cache) Name() string { return "cache" }

// cacheSweepSizes returns the working-set sweep: 4 KB to 128 MB in x2
// steps.
func cacheSweepSizes() []int64 {
	var sizes []int64
	for ws := int64(4 << 10); ws <= 128<<20; ws *= 2 {
		sizes = append(sizes, ws)
	}
	return sizes
}

// cacheInfoFromSweep detects the latency plateaus of a working-set sweep: a
// step is a >= 1.5x jump between consecutive samples. The plateau latencies
// are the cache latencies; the last working set before a jump estimates the
// level's size. The OS knows the exact sizes; they are preferred when
// available.
func cacheInfoFromSweep(sizes, lats []int64, prober machine.MemoryProber) *topo.CacheInfo {
	var stepIdx []int
	for i := 1; i < len(lats); i++ {
		if float64(lats[i]) >= 1.5*float64(lats[i-1]) {
			stepIdx = append(stepIdx, i)
		}
	}
	ci := &topo.CacheInfo{}
	// Latencies: first plateau = L1; then after each step.
	ci.LatL1 = lats[0]
	if len(stepIdx) > 0 {
		ci.LatL2 = lats[stepIdx[0]]
		ci.SizeL1 = sizes[stepIdx[0]-1]
	}
	if len(stepIdx) > 1 {
		ci.LatLLC = lats[stepIdx[1]]
		ci.SizeL2 = sizes[stepIdx[1]-1]
	}
	if len(stepIdx) > 2 {
		ci.SizeLLC = sizes[stepIdx[2]-1]
	}
	if l1, l2, llc := prober.CacheSizes(); l1 > 0 {
		ci.SizeL1, ci.SizeL2, ci.SizeLLC = l1, l2, llc
	}
	return ci
}

// Run implements Plugin.
func (p Cache) Run(m machine.Machine, t *topo.Topology, spec *topo.Spec) error {
	prober, ok := m.(machine.MemoryProber)
	if !ok {
		return ErrUnsupported{p.Name()}
	}
	loads := p.Loads
	if loads <= 0 {
		loads = 256
	}
	th, err := m.NewThread(0)
	if err != nil {
		return err
	}
	dvfsWait(m, th)
	sizes := cacheSweepSizes()
	lats := make([]int64, len(sizes))
	for i, ws := range sizes {
		ws := ws
		lats[i] = medianOfChunks(16, func(chunk int) int64 {
			return prober.CacheWorkingSetLoads(th, ws, chunk)
		}, loads)
	}
	spec.Cache = cacheInfoFromSweep(sizes, lats, prober)
	return nil
}

// RunForked implements ForkedPlugin: one fork per working-set size.
func (p Cache) RunForked(fk machine.Forker, m machine.Machine, t *topo.Topology, spec *topo.Spec, workers int) error {
	prober, ok := m.(machine.MemoryProber)
	if !ok {
		return ErrUnsupported{p.Name()}
	}
	loads := p.Loads
	if loads <= 0 {
		loads = 256
	}
	sizes := cacheSweepSizes()
	lats := make([]int64, len(sizes))
	err := forEachProbe(fk, probeTagCache, len(sizes), workers, func(fm machine.Machine, fprober machine.MemoryProber, i int) error {
		th, err := fm.NewThread(0)
		if err != nil {
			return err
		}
		dvfsWait(fm, th)
		lats[i] = medianOfChunks(16, func(chunk int) int64 {
			return fprober.CacheWorkingSetLoads(th, sizes[i], chunk)
		}, loads)
		return nil
	})
	if err != nil {
		return err
	}
	// Step detection runs on the merged sweep; the OS-reported sizes come
	// from the parent prober (they are static data, not a measurement).
	spec.Cache = cacheInfoFromSweep(sizes, lats, prober)
	return nil
}

// Power gathers RAPL-style power measurements (Section 4): idle power, full
// power, the power of a core's first and second hardware context, and the
// per-socket model used to estimate the power of a placement before
// executing it (Figure 7, POWER policy).
type Power struct{}

// Name implements Plugin.
func (Power) Name() string { return "power" }

// Run implements Plugin.
func (p Power) Run(m machine.Machine, t *topo.Topology, spec *topo.Spec) error {
	prober, ok := m.(machine.PowerProber)
	if !ok || !prober.PowerAvailable() {
		return ErrUnsupported{p.Name()}
	}
	core0 := t.Cores()[0]
	ctx0 := core0.Contexts[0].ID
	// Distinct-core context on the same socket.
	var ctx1 = -1
	for _, core := range t.Cores() {
		if core != core0 && core.Socket == core0.Socket {
			ctx1 = core.Contexts[0].ID
			break
		}
	}
	_, p1 := prober.PowerEstimate([]int{ctx0}, false)
	info := &topo.PowerInfo{Idle: prober.PowerIdle()}
	if ctx1 >= 0 {
		_, p12 := prober.PowerEstimate([]int{ctx0, ctx1}, false)
		info.PerFirstCtx = p12 - p1
		info.PerSocketBase = p1 - info.PerFirstCtx
	} else {
		info.PerSocketBase = p1
	}
	info.FirstCtx = info.PerFirstCtx
	if len(core0.Contexts) > 1 {
		sib := core0.Contexts[1].ID
		_, pSib := prober.PowerEstimate([]int{ctx0, sib}, false)
		info.PerExtraCtx = pSib - p1
		info.SecondCtx = info.PerExtraCtx
	}
	_, pDram := prober.PowerEstimate([]int{ctx0}, true)
	info.DRAM = pDram - p1
	var all []int
	for _, c := range t.Contexts() {
		all = append(all, c.ID)
	}
	sort.Ints(all)
	_, info.Full = prober.PowerEstimate(all, false)
	spec.Power = info
	return nil
}
