package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/mctopalg"
	"repro/internal/place"
	"repro/internal/plugins"
	"repro/internal/registry"
	"repro/internal/remote"
	"repro/internal/sim"
	"repro/internal/spool"
	"repro/internal/taskmap"
	"repro/internal/topo"
)

// stack is the daemon's library stack built in this process: the same
// registry, tier chain and inference pipeline mctopd assembles, with a span
// around every call into a layer. It answers a generated request with the
// bytes mctopd would send, which makes it both the reference for output
// checks and the traced replay.
type stack struct {
	reg *registry.Registry
	rec *recorder // nil: untraced
	// cur is the open registry span of the request being served; the
	// placement observer, which gets no context, parents its span there.
	// Requests are served one at a time.
	cur   spanRef
	infer inferCounts
	// mappings are the mappings computed while recording, priced against
	// serial execution after the replay (taskmap.cost_ratio).
	mappings []mapped
}

// inferCounts totals what the inferences of one replay did.
type inferCounts struct {
	n, pairs, pairsTotal, filled, fallback, retries, cycles int64
}

// tiers configures the optional tiers of a stack, as mctopd's -spool-dir
// and -upstream flags do.
type tiers struct {
	cache    int
	spoolDir string
	upstream string
}

func newStack(rec *recorder, cfg tiers) (*stack, error) {
	s := &stack{rec: rec}
	opts := registry.Options{MaxEntries: cfg.cache, InferCtx: s.inferPlatform, MapFn: s.mapDAG}
	if cfg.spoolDir != "" || cfg.upstream != "" {
		chain := []registry.Store{registry.NewLRU(cfg.cache, 0)}
		if cfg.spoolDir != "" {
			sp, err := spool.New(cfg.spoolDir)
			if err != nil {
				return nil, err
			}
			chain = append(chain, tracedSpool{sp, rec})
		}
		if cfg.upstream != "" {
			chain = append(chain, tracedRemote{remote.New(cfg.upstream), rec})
		}
		opts.Store = registry.NewTiered(chain...)
	}
	s.reg = registry.New(opts)
	if rec != nil {
		s.reg.Instrument(&registry.Observer{OnPlacement: func(d time.Duration, _ error) {
			rec.add(s.cur, "place.NewFrom", d)
		}})
	}
	return s, nil
}

func (s *stack) close() error { return s.reg.Close() }

// inferPlatform is the facade's simulate → infer → enrich pipeline, a span
// per layer, plus a first query that builds the topology's index.
func (s *stack) inferPlatform(ctx context.Context, platform string, seed uint64, opt mctopalg.Options) (*topo.Topology, error) {
	_, end := s.rec.start(ctx, "sim.ByName")
	p, err := sim.ByName(platform)
	end("")
	if err != nil {
		return nil, err
	}
	m, err := machine.NewSim(p, seed)
	if err != nil {
		return nil, err
	}
	_, end = s.rec.start(ctx, "mctopalg.InferContext")
	res, err := mctopalg.InferContext(ctx, m, opt)
	end("")
	if err != nil {
		return nil, err
	}
	_, end = s.rec.start(ctx, "plugins.Enrich")
	t, err := plugins.Enrich(m, res.Topology, nil)
	end("")
	if err != nil {
		return nil, err
	}
	_, end = s.rec.start(ctx, "topo.index")
	t.MaxLatency()
	end("")
	if !s.rec.active() {
		return t, nil
	}
	n := int64(p.NumContexts())
	s.infer.n++
	s.infer.pairs += int64(res.Pairs)
	s.infer.pairsTotal += n * (n - 1) / 2
	s.infer.filled += int64(res.FilledPairs)
	s.infer.fallback += int64(res.FallbackBlocks)
	s.infer.retries += int64(res.Retries)
	s.infer.cycles += res.Cycles
	return t, nil
}

func (s *stack) mapDAG(ctx context.Context, t *topo.Topology, d *graph.TaskDAG, opt taskmap.Options) (*taskmap.Mapping, error) {
	ctx, end := s.rec.start(ctx, "taskmap.Map")
	m, err := taskmap.Map(ctx, t, d, opt)
	end("")
	if err == nil && s.rec.active() {
		s.mappings = append(s.mappings, mapped{t, d, m})
	}
	return m, err
}

// tracedSpool and tracedRemote put a span around the tier's Get; a miss is
// recorded under the name with a ".miss" suffix.
type tracedSpool struct {
	*spool.Spool
	rec *recorder
}

func (t tracedSpool) Get(kind registry.Kind, key string) (any, bool) {
	return t.GetContext(context.Background(), kind, key)
}

func (t tracedSpool) GetContext(ctx context.Context, kind registry.Kind, key string) (any, bool) {
	ctx, end := t.rec.start(ctx, "spool.Get")
	v, ok := t.Spool.GetContext(ctx, kind, key)
	end(missSuffix(ok))
	return v, ok
}

type tracedRemote struct {
	*remote.Remote
	rec *recorder
}

func (t tracedRemote) Get(kind registry.Kind, key string) (any, bool) {
	return t.GetContext(context.Background(), kind, key)
}

func (t tracedRemote) GetContext(ctx context.Context, kind registry.Kind, key string) (any, bool) {
	ctx, end := t.rec.start(ctx, "remote.Get")
	v, ok := t.Remote.GetContext(ctx, kind, key)
	end(missSuffix(ok))
	return v, ok
}

func missSuffix(ok bool) string {
	if ok {
		return ""
	}
	return ".miss"
}

// serve answers r the way mctopd's handler does — validate the platform,
// resolve through the registry, render — and returns the body.
func (s *stack) serve(ctx context.Context, r *request) ([]byte, error) {
	_, end := s.rec.start(ctx, "sim.ByName")
	_, err := sim.ByName(r.Platform)
	end("")
	if err != nil {
		return nil, err
	}
	opt := mctopalg.Options{Reps: reps}
	opt.Sampling.Enabled = r.Sampling
	rctx, end := s.rec.start(ctx, "registry."+r.Kind)
	s.cur = refOf(rctx)
	var resp any
	switch r.Kind {
	case "topology":
		var t *topo.Topology
		t, _, err = s.reg.LookupTopologyContext(rctx, r.Platform, r.Seed, opt)
		end("")
		if err != nil {
			return nil, err
		}
		if r.Format == "mctop" {
			_, end := s.rec.start(ctx, "topo.Encode")
			defer end("")
			var buf bytes.Buffer
			spec := t.Spec()
			err := topo.Encode(&buf, &spec)
			return buf.Bytes(), err
		}
		resp = topologyResponse{
			Platform: r.Platform, Seed: r.Seed,
			Contexts: t.NumHWContexts(), Cores: t.NumCores(), Sockets: t.NumSockets(),
			Nodes: t.NumNodes(), SMTWays: t.SMTWays(), Spec: t.Spec(),
		}
	case "place":
		var pl *place.Placement
		pl, err = s.reg.PlaceContext(rctx, r.Platform, r.Seed, opt, r.Policy, r.Threads)
		end("")
		if err != nil {
			return nil, err
		}
		resp = placeResponse{
			Platform: r.Platform, Seed: r.Seed, Policy: pl.PolicyName(), NThreads: pl.NThreads(),
			Contexts: pl.Contexts(), NCores: pl.NCores(), CtxPerSocket: pl.CtxPerSocket(),
			MaxLatency: pl.MaxLatency(), MinBandwidth: pl.MinBandwidth(), Report: pl.String(),
		}
	case "batch":
		reqs := make([]registry.PlaceRequest, len(r.Batch))
		for i, k := range r.Batch {
			reqs[i] = registry.PlaceRequest{Policy: k.Policy, NThreads: k.Threads}
		}
		var res []registry.BatchResult
		res, err = s.reg.PlaceBatchContext(rctx, r.Platform, r.Seed, opt, reqs)
		end("")
		if err != nil {
			return nil, err
		}
		b := batchResponse{Platform: r.Platform, Seed: r.Seed, Results: make([]batchItemResponse, len(res))}
		for i, x := range res {
			b.Results[i] = batchItem(r.Batch[i].Policy, x.Placement, x.Err)
		}
		resp = b
	case "map":
		var m *taskmap.Mapping
		m, err = s.reg.MapDAGContext(rctx, r.Platform, r.Seed, opt, r.DAG, r.Refine)
		end("")
		if err != nil {
			return nil, err
		}
		resp = mapResponse{Platform: r.Platform, Seed: r.Seed, Refine: r.Refine, Result: &mapItemResponse{
			DAG: r.DAG.Name, DAGHash: fmt.Sprintf("%016x", m.DAGHash()), Nodes: m.NumNodes(),
			Edges: m.NumEdges(), Algo: m.Algo(), CostCycles: m.Cost(), Assignment: m.Assignment(),
		}}
	}
	_, end = s.rec.start(ctx, "render")
	defer end("")
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err = enc.Encode(resp)
	return buf.Bytes(), err
}

// The response shapes below mirror cmd/mctopd's, field for field; served_in
// and cached vary per request and are blanked in every comparison.

type topologyResponse struct {
	Platform string    `json:"platform"`
	Seed     uint64    `json:"seed"`
	Contexts int       `json:"contexts"`
	Cores    int       `json:"cores"`
	Sockets  int       `json:"sockets"`
	Nodes    int       `json:"nodes"`
	SMTWays  int       `json:"smt_ways"`
	Spec     topo.Spec `json:"spec"`
	Cached   bool      `json:"cached"`
	ServedIn string    `json:"served_in"`
}

type placeResponse struct {
	Platform     string  `json:"platform"`
	Seed         uint64  `json:"seed"`
	Policy       string  `json:"policy"`
	NThreads     int     `json:"n_threads"`
	Contexts     []int   `json:"contexts"`
	NCores       int     `json:"n_cores"`
	CtxPerSocket []int   `json:"ctx_per_socket"`
	MaxLatency   int64   `json:"max_latency_cycles"`
	MinBandwidth float64 `json:"min_bandwidth_gbs"`
	Report       string  `json:"report"`
	ServedIn     string  `json:"served_in"`
}

type batchItemResponse struct {
	Policy       string  `json:"policy"`
	Error        string  `json:"error,omitempty"`
	NThreads     int     `json:"n_threads,omitempty"`
	Contexts     []int   `json:"contexts,omitempty"`
	NCores       int     `json:"n_cores,omitempty"`
	CtxPerSocket []int   `json:"ctx_per_socket,omitempty"`
	MaxLatency   int64   `json:"max_latency_cycles,omitempty"`
	MinBandwidth float64 `json:"min_bandwidth_gbs,omitempty"`
}

func batchItem(policy string, pl *place.Placement, err error) batchItemResponse {
	if err != nil {
		return batchItemResponse{Policy: policy, Error: err.Error()}
	}
	return batchItemResponse{
		Policy: pl.PolicyName(), NThreads: pl.NThreads(), Contexts: pl.Contexts(), NCores: pl.NCores(),
		CtxPerSocket: pl.CtxPerSocket(), MaxLatency: pl.MaxLatency(), MinBandwidth: pl.MinBandwidth(),
	}
}

type batchResponse struct {
	Platform string              `json:"platform"`
	Seed     uint64              `json:"seed"`
	Results  []batchItemResponse `json:"results"`
	ServedIn string              `json:"served_in"`
}

type mapItemResponse struct {
	DAG        string `json:"dag,omitempty"`
	DAGHash    string `json:"dag_hash,omitempty"`
	Nodes      int    `json:"nodes,omitempty"`
	Edges      int    `json:"edges,omitempty"`
	Algo       string `json:"algo,omitempty"`
	CostCycles int64  `json:"cost_cycles,omitempty"`
	Assignment []int  `json:"assignment,omitempty"`
}

type mapResponse struct {
	Platform string           `json:"platform"`
	Seed     uint64           `json:"seed"`
	Refine   int              `json:"refine"`
	Result   *mapItemResponse `json:"result,omitempty"`
	ServedIn string           `json:"served_in"`
}
