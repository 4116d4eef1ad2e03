package main

import (
	"encoding/json"
	"fmt"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/place"
	"repro/internal/sim"
)

// The request generator. Every request a daemon receives is built here from
// the workload seed, so the same seed gives the same inputs byte for byte.
// A sequence is made of whole cycles that each hold the workload's full
// mix, and a run executes whole cycles only: whatever the seed or the
// machine's speed, every run sends the same proportion of every request
// kind, and a run never goes past the end of its generated list (it is
// count-bounded as well as clock-bounded).

// reps is the per-pair repetition count every request asks for — the value
// the golden fixtures in internal/topo/testdata were inferred with.
const reps = 51

// request is one generated call. The structured fields drive the
// in-process replay; method, path and body are the wire form the daemons
// receive.
type request struct {
	Kind     string // "topology", "place", "batch" or "map"
	Platform string
	Seed     uint64
	Sampling bool
	Format   string // topology only: "" (JSON) or "mctop"
	Policy   string
	Threads  int
	Batch    []placeKey
	DAG      *graph.TaskDAG
	Refine   int

	method, path string
	body         []byte
	key          string // identity: equal keys must get equal answers
}

type placeKey struct {
	Policy  string `json:"policy"`
	Threads int    `json:"threads"`
}

// plan is what a workload generates from its seed.
type plan struct {
	prewarm []*request // sent in order before the timed window (part of setup)
	// edgePrewarm is sent to the edge of edge-fleet after prewarm has
	// warmed the origin (part of setup).
	edgePrewarm []*request
	seq         []*request // the timed window's requests, whole cycles
	cycle       int        // requests per cycle
}

// rng is splitmix64: small, seedable and identical on every platform.
type rng struct{ s uint64 }

func (r *rng) u64() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.u64() % uint64(n)) }

// perm returns a seeded permutation of 0..n-1.
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

func (r *rng) shuffle(xs []*request) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// MCTOP-ALG at 51 repetitions per pair cannot cluster the latencies of a
// few percent of noise seeds (the error the paper's §3.5 tells the user to
// retry). Every inference a workload requests at a seed other than 42 (the
// golden fixtures' seed) therefore takes its seed from inferSeeds, the
// first checkedSeeds values of a fixed stream, each of which was checked
// to infer at reps 51 on every platform the workloads name. A change that
// makes one of them fail shows up as failed requests.
const checkedSeeds = 96

var inferSeeds = func() []uint64 {
	r := &rng{s: 0x5EED}
	out := make([]uint64, checkedSeeds)
	for i := range out {
		out[i] = 1000 + r.u64()%(1<<40)
	}
	return out
}()

// pickSeeds returns n distinct seeds of inferSeeds in a seeded order.
func pickSeeds(r *rng, n int) []uint64 {
	var out []uint64
	for _, i := range r.perm(len(inferSeeds))[:n] {
		out = append(out, inferSeeds[i])
	}
	return out
}

var golden = []string{"Ivy", "Westmere", "Haswell", "Opteron", "SPARC"}

// contexts and policies describe a platform without inferring it.
func contexts(platform string) int {
	p, err := sim.ByName(platform)
	if err != nil {
		panic(err) // the generator only names valid platforms
	}
	return p.NumContexts()
}

// policies lists the builtin policies that succeed on the platform: POWER
// needs power measurements, which only some machines have.
func policies(platform string) []string {
	p, err := sim.ByName(platform)
	if err != nil {
		panic(err)
	}
	var out []string
	for _, pol := range place.Policies() {
		if pol == place.PowerPolicy && !p.Power.Available() {
			continue
		}
		out = append(out, pol.String())
	}
	return out
}

func topologyReq(platform string, seed uint64, sampling bool, format string) *request {
	return (&request{Kind: "topology", Platform: platform, Seed: seed, Sampling: sampling, Format: format}).wire()
}

func placeReq(platform string, seed uint64, sampling bool, k placeKey) *request {
	return (&request{Kind: "place", Platform: platform, Seed: seed, Sampling: sampling, Policy: k.Policy, Threads: k.Threads}).wire()
}

func batchReq(platform string, seed uint64, sampling bool, ks []placeKey) *request {
	return (&request{Kind: "batch", Platform: platform, Seed: seed, Sampling: sampling, Batch: ks}).wire()
}

func mapReq(platform string, seed uint64, d *graph.TaskDAG, refine int) *request {
	return (&request{Kind: "map", Platform: platform, Seed: seed, DAG: d, Refine: refine}).wire()
}

// wire fills in the HTTP form of the request, the one the daemon parses.
func (r *request) wire() *request {
	q := url.Values{}
	q.Set("platform", r.Platform)
	q.Set("seed", strconv.FormatUint(r.Seed, 10))
	q.Set("reps", strconv.Itoa(reps))
	if r.Sampling {
		q.Set("sampling", "1")
	}
	var body any
	switch r.Kind {
	case "topology":
		if r.Format != "" {
			q.Set("format", r.Format)
		}
		r.method, r.path = "GET", "/v1/topology?"+q.Encode()
	case "place":
		q.Set("policy", r.Policy)
		q.Set("threads", strconv.Itoa(r.Threads))
		r.method, r.path = "GET", "/v1/place?"+q.Encode()
	case "batch":
		b := map[string]any{"platform": r.Platform, "seed": r.Seed, "reps": reps, "requests": r.Batch}
		if r.Sampling {
			b["sampling"] = true
		}
		r.method, r.path, body = "POST", "/v1/place/batch", b
	case "map":
		r.method, r.path = "POST", "/v1/map"
		body = map[string]any{"platform": r.Platform, "seed": r.Seed, "reps": reps, "refine": r.Refine, "dag": r.DAG}
	default:
		panic("unknown request kind " + r.Kind)
	}
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			panic(err)
		}
		r.body = b
	}
	r.key = r.method + " " + r.path + " " + string(r.body)
	return r
}

// Request weights. Every workload sends each request kind it exercises
// equally often: internal/loadgen's default mix (topology:place 1:1)
// extended to the kinds that mix leaves out. No trace of production
// traffic exists for this service, so the weights are a choice, not a
// measurement; they decide which render path the end-to-end figures
// mostly time.

// maxRequests bounds a warm sequence. At the fastest rate measured on a
// 2-core machine (~5k requests/s) it lasts well past a 60 s window.
const maxRequests = 400000

// warmHitPlan: a small, fixed key set over the golden five plus one
// sampled 256-context generated platform, prewarmed so that every timed
// request is an LRU hit. Per platform and builtin policy a cycle sends one
// topology, one place, one place/batch and one map request.
func warmHitPlan(seed uint64) *plan {
	r := &rng{s: seed}
	p := &plan{}
	// Two mappings per golden platform, one greedy and one refined.
	var maps []*request
	for _, platform := range golden {
		for i, refine := range []int{0, 64} {
			d := graph.GenTaskDAG(graph.DAGParams{Layers: 4, Width: 4}, r.u64())
			d.Name = fmt.Sprintf("warm-%s-%d", platform, i)
			maps = append(maps, mapReq(platform, 42, d, refine))
		}
	}
	p.prewarm = append(p.prewarm, maps...)
	var cycle []*request
	for pi, platform := range append(append([]string{}, golden...), "gen:circulant:s8:c16:t2") {
		sampling := strings.HasPrefix(platform, "gen:")
		// Thread counts are stratified: every seed spreads them evenly over
		// 1..contexts (placement answers grow with the thread count), in a
		// seeded assignment to policies.
		n, pols := contexts(platform), policies(platform)
		strata := r.perm(len(pols))
		var keys []placeKey
		for i, pol := range pols {
			lo := strata[i] * n / len(pols)
			keys = append(keys, placeKey{Policy: pol, Threads: 1 + lo + r.intn(max(1, n/len(pols)))})
		}
		topoR := topologyReq(platform, 42, sampling, "")
		batch := batchReq(platform, 42, sampling, keys)
		p.prewarm = append(p.prewarm, topoR, batch)
		for i, k := range keys {
			// /v1/map has no sampling switch: a map on the generated
			// platform would infer its exhaustive twin, so maps stay on
			// the golden five.
			m := maps[(pi*len(keys)+i)%len(maps)]
			cycle = append(cycle, topoR, batch, placeReq(platform, 42, sampling, k), m)
		}
	}
	r.shuffle(cycle)
	p.cycle = len(cycle)
	for len(p.seq) < maxRequests {
		p.seq = append(p.seq, cycle...)
	}
	return p
}

// churnTopologies lists the warm topologies of churn: the golden five at
// five seeds. Few enough that each is looked up every few requests, so
// the LRU never evicts one and churn infers nothing; many enough that the
// placement key space outlasts the window.
func churnTopologies(r *rng) []topoID {
	var out []topoID
	for _, s := range pickSeeds(r, 5) {
		for _, platform := range golden {
			out = append(out, topoID{platform, s})
		}
	}
	return out
}

type topoID struct {
	platform string
	seed     uint64
}

// churnPlan: warm topologies, but every placement key and every mapping in
// the window is new, so the registry computes and puts on every request
// and the LRU (default size) evicts. A cycle sends two topology requests
// (hits, round robin over the topologies, so that each stays in the LRU
// and churn infers nothing), two placements and two mappings, one greedy
// and one refined.
func churnPlan(seed uint64) *plan {
	r := &rng{s: seed ^ 0xC4}
	topos := churnTopologies(r)
	p := &plan{cycle: 6}
	// Every (topology, policy, threads) triple, in a seeded order: the
	// window draws placement keys from the front, so none repeats.
	var places, topoReqs []*request
	for _, t := range topos {
		topoR := topologyReq(t.platform, t.seed, false, "")
		topoReqs = append(topoReqs, topoR)
		for _, pol := range policies(t.platform) {
			for th := 1; th <= contexts(t.platform); th++ {
				places = append(places, placeReq(t.platform, t.seed, false, placeKey{pol, th}))
			}
		}
	}
	p.prewarm = topoReqs
	r.shuffle(places)
	for c := 0; c+1 < len(places); c += 2 {
		cycle := []*request{places[c], places[c+1], topoReqs[c%len(topoReqs)], topoReqs[(c+1)%len(topoReqs)]}
		for _, refine := range []int{0, 64} {
			t := topos[r.intn(len(topos))]
			d := graph.GenTaskDAG(graph.DAGParams{Layers: 4, Width: 4}, r.u64())
			d.Name = fmt.Sprintf("churn-%d-%d", c, refine)
			cycle = append(cycle, mapReq(t.platform, t.seed, d, refine))
		}
		r.shuffle(cycle)
		p.seq = append(p.seq, cycle...)
	}
	return p
}

// coldInferPlatforms is one cold-infer cycle. Haswell appears twice so the
// median request sits inside a platform class rather than on the edge
// between two; the 1024-context generated platform is inferred with the
// sampled measurement mode, the golden five exhaustively.
var coldInferPlatforms = []string{"Ivy", "Opteron", "Haswell", "Haswell", "Westmere", "SPARC", "gen:circulant:s16:c16:t4"}

// coldInferPlan: every request names a (platform, seed) pair never seen
// before, so every request runs a full inference. The keys are a fixed
// list — cycle c infers the c-th seeds of inferSeeds — and the workload
// seed orders each cycle: inference cost depends on the noise seed, and a
// run-dependent choice of keys would add that dependence to every figure.
// The first cycle asks for seed 42 on the golden five, whose description
// files must match the golden fixtures byte for byte.
func coldInferPlan(seed uint64) *plan {
	r := &rng{s: seed ^ 0xC0}
	p := &plan{cycle: len(coldInferPlatforms)}
	used := map[string]int{}
	for c := 0; ; c++ {
		var cycle []*request
		for _, platform := range coldInferPlatforms {
			gen := strings.HasPrefix(platform, "gen:")
			s := uint64(42)
			if gen || c > 0 || used[platform] > 0 {
				if used[platform] >= len(inferSeeds) {
					return p // the list is count-bounded by the seeds at hand
				}
				s = inferSeeds[used[platform]]
			}
			used[platform]++
			cycle = append(cycle, topologyReq(platform, s, gen, "mctop"))
		}
		r.shuffle(cycle)
		p.seq = append(p.seq, cycle...)
	}
}

// edgeTopologies are the origin's warm topologies in edge-fleet.
var edgeTopologies = []string{"Ivy", "Opteron", "Haswell", "Westmere"}

// edgeLag is how many cycles after its first touch a placement is touched
// again in edge-fleet: far enough that the key has left the edge's small
// LRU and its write-behind spool file has long been written, so the repeat
// is served from the edge's spool.
const edgeLag = 64

// edgeFleetPlan: the origin holds every placement of ten warm topologies.
// Cycle c touches placement c+edgeLag, which the edge has never seen (a
// remote fetch), placement c, which it first touched edgeLag cycles
// earlier (a spool read), and two topology description files. The edge's
// prewarm is the first edgeLag placements, so every cycle of the window
// has the same mix.
func edgeFleetPlan(seed uint64) *plan {
	r := &rng{s: seed ^ 0xED}
	p := &plan{cycle: 4}
	var places, topos []*request
	for i, ts := range pickSeeds(r, 3) {
		for _, platform := range edgeTopologies {
			if i > 0 && platform == "Westmere" {
				continue // the slowest to infer: one seed is enough
			}
			topo := topologyReq(platform, ts, false, "mctop")
			p.prewarm = append(p.prewarm, topo)
			topos = append(topos, topo)
			var keys []placeKey
			for _, pol := range policies(platform) {
				for th := 1; th <= contexts(platform); th++ {
					keys = append(keys, placeKey{pol, th})
					places = append(places, placeReq(platform, ts, false, placeKey{pol, th}))
				}
			}
			for len(keys) > 0 {
				n := min(len(keys), 1024)
				p.prewarm = append(p.prewarm, batchReq(platform, ts, false, keys[:n]))
				keys = keys[n:]
			}
		}
	}
	r.shuffle(places)
	p.edgePrewarm = places[:edgeLag]
	for c := 0; c+edgeLag < len(places); c++ {
		p.seq = append(p.seq, places[c+edgeLag], places[c], topos[(2*c)%len(topos)], topos[(2*c+1)%len(topos)])
	}
	return p
}
