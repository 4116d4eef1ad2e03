package remote

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/mctopalg"
	"repro/internal/place"
	"repro/internal/registry"
	"repro/internal/spool"
	"repro/internal/taskmap"
	"repro/internal/topo"
)

// TestChainBindsSidecarsToResidentTopology drives an edge chain — a small
// LRU over a spool over this tier — with placements and mappings of three
// topologies interleaved round robin, first as remote fetches, then as
// spool reads. A sidecar's topology must come from the chain: the origin
// exports each topology once, every rebuilt sidecar shares the LRU's
// topology, and a spool read decodes no description file while its
// topology is resident.
func TestChainBindsSidecarsToResidentTopology(t *testing.T) {
	const rounds = 4
	opt := mctopalg.Options{Reps: 51}
	topoKeys := make([]string, 3)
	for k := range topoKeys {
		topoKeys[k] = registry.TopoKey("Ivy", uint64(k+1), opt)
	}

	// The origin serves the three topologies (one inferred topology under
	// three keys) and, per round, one placement and one mapping of each.
	bodies := map[string][]byte{}
	for _, tk := range topoKeys {
		bodies[tk] = encodeBody(t, tk)
	}
	type sidecar struct{ key, topoKey string }
	var placements, mappings []sidecar
	for i := 0; i < rounds; i++ {
		pl, err := place.NewFrom(testTopo(), place.RRCore, place.Options{NThreads: 2 + i})
		if err != nil {
			t.Fatal(err)
		}
		d := graph.GenTaskDAG(graph.DAGParams{}, uint64(100+i))
		m, err := taskmap.Map(context.Background(), testTopo(), d, taskmap.Options{RefineBudget: 16})
		if err != nil {
			t.Fatal(err)
		}
		for k, tk := range topoKeys {
			var buf bytes.Buffer
			pk := fmt.Sprintf("place|%s|%s|%d", tk, pl.PolicyName(), 2+i)
			if err := spool.EncodeSidecar(&buf, pk, tk, pl); err != nil {
				t.Fatal(err)
			}
			bodies[pk] = bytes.Clone(buf.Bytes())
			buf.Reset()
			mk := registry.MapKey("Ivy", uint64(k+1), opt, d, 16)
			if err := spool.EncodeMapSidecar(&buf, mk, tk, m); err != nil {
				t.Fatal(err)
			}
			bodies[mk] = bytes.Clone(buf.Bytes())
			placements = append(placements, sidecar{pk, tk})
			mappings = append(mappings, sidecar{mk, tk})
		}
	}
	var mu sync.Mutex
	served := map[string]int{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key := r.URL.Query().Get("key")
		body, ok := bodies[key]
		if !ok {
			http.NotFound(w, r)
			return
		}
		mu.Lock()
		served[key]++
		mu.Unlock()
		w.Write(body)
	}))
	defer ts.Close()

	// One shard of 12: the three topologies, touched every few reads, stay
	// resident; each sidecar is evicted long before the second pass.
	lru := registry.NewLRU(12, 1)
	sp, err := spool.New(t.TempDir(), spool.WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	rm := newRemote(t, ts.URL)
	chain := registry.NewTiered(lru, sp, rm)

	pass := func(wantTier string) {
		t.Helper()
		for j := range placements {
			for _, sc := range []struct {
				kind registry.Kind
				sidecar
			}{{registry.KindPlacement, placements[j]}, {registry.KindMapping, mappings[j]}} {
				v, tier, ok := chain.GetWithTier(sc.kind, sc.key)
				if !ok || tier != wantTier {
					t.Fatalf("%s: hit %v from tier %q, want a %s hit", sc.key, ok, tier, wantTier)
				}
				var got *topo.Topology
				switch x := v.(type) {
				case *place.Placement:
					got = x.Topology()
				case *taskmap.Mapping:
					got = x.Topology()
				}
				resident, ok := lru.Get(registry.KindTopology, sc.topoKey)
				if !ok || got == nil || resident != got {
					t.Fatalf("%s: rebuilt on topology %p, LRU holds %p (resident %v)", sc.key, got, resident, ok)
				}
			}
		}
	}

	// First touches: every sidecar is fetched, its topology once per key.
	pass("remote")
	mu.Lock()
	for _, tk := range topoKeys {
		if served[tk] != 1 {
			t.Errorf("origin exported %s %d times, want once", tk, served[tk])
		}
	}
	mu.Unlock()
	want := len(topoKeys) + len(placements) + len(mappings)
	if got := rm.Fetches(); got != int64(want) {
		t.Fatalf("edge issued %d fetches, want %d (one per sidecar, one per topology)", got, want)
	}
	if err := sp.Flush(); err != nil {
		t.Fatal(err)
	}

	// Repeats come from the spool. Make every spooled description file
	// undecodable: a spool read that decoded one would quarantine it.
	files, err := filepath.Glob(filepath.Join(sp.Dir(), "*.mctop"))
	if err != nil || len(files) != len(topoKeys) {
		t.Fatalf("spool holds %d description files (%v), want %d", len(files), err, len(topoKeys))
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		header := b[:bytes.IndexByte(b, '\n')+1]
		if err := os.WriteFile(f, append(header, "not a description file\n"...), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := sp.Stats()[0]
	pass("spool")
	after := sp.Stats()[0]
	if after.Quarantined != before.Quarantined {
		t.Fatalf("spool reads decoded a resident topology's file: %d quarantined", after.Quarantined-before.Quarantined)
	}
	tb, ta := before.Kinds["topology"], after.Kinds["topology"]
	if ta.Hits != tb.Hits || ta.Misses != tb.Misses {
		t.Fatalf("spool was asked for a resident topology: topology hits %d→%d, misses %d→%d", tb.Hits, ta.Hits, tb.Misses, ta.Misses)
	}
	if got := rm.Fetches(); got != int64(want) {
		t.Fatalf("spool reads reached the origin: %d fetches, want %d", got, want)
	}
}
