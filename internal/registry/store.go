package registry

import (
	"context"
	"sync/atomic"

	"repro/internal/topo"
)

// The tiered topology store. The registry's cache sits behind the Store
// interface so deployments can compose storage tiers: the default is the
// in-memory sharded LRU (lru.go); a daemon that must survive restarts
// chains it over internal/spool's description-file tier (NewTiered), the
// paper's "created once, then used to load the topology" artifact turned
// into a cache level. The registry itself only sees Get/Put — singleflight,
// counters and the compute semaphore stay above the store.

// Kind tags what a cache entry holds, so persistent tiers can pick a
// serialization per entry kind (topologies become .mctop description
// files, placements a compact sidecar) without inspecting values.
type Kind int

const (
	// KindTopology entries hold a *topo.Topology.
	KindTopology Kind = iota
	// KindPlacement entries hold a *place.Placement.
	KindPlacement
	// KindMapping entries hold a *taskmap.Mapping.
	KindMapping

	// numKinds sizes per-kind counter arrays.
	numKinds
)

func (k Kind) String() string {
	switch k {
	case KindTopology:
		return "topology"
	case KindPlacement:
		return "placement"
	case KindMapping:
		return "mapping"
	}
	return "unknown"
}

// Store is one cache tier of the registry. Implementations must be safe
// for concurrent use; Get and Put run on the serving hot path. A Store
// never computes — a miss is just (nil, false) — and never fails: a
// persistent tier that cannot read or write an entry treats it as a miss
// (logging the reason) so a broken disk degrades to re-inference, never to
// serving errors.
type Store interface {
	// Get returns the cached value for key, if present.
	Get(kind Kind, key string) (any, bool)
	// Put inserts or replaces the value for key.
	Put(kind Kind, key string, val any)
	// Len returns the number of entries resident in this store.
	Len() int
	// Purge drops every entry (for persistent tiers: from disk too).
	Purge()
	// Stats snapshots the store's counters, one element per tier.
	Stats() []StoreStats
}

// StoreStats is one tier's counter snapshot.
type StoreStats struct {
	// Tier names the store implementation ("lru", "spool").
	Tier string `json:"tier"`
	// Hits / Misses count Get outcomes on this tier.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Puts counts write-throughs (including tier promotions).
	Puts int64 `json:"puts"`
	// Evictions counts entries dropped by a capacity bound.
	Evictions int64 `json:"evictions"`
	// Errors counts entries a persistent tier failed to read or write
	// (each one logged and degraded to a miss or dropped write).
	Errors int64 `json:"errors"`
	// Quarantined counts undecodable files a persistent tier moved aside
	// (the spool's quarantine/ directory) so they stop being rescanned
	// every restart. A nonzero value means on-disk corruption happened.
	Quarantined int64 `json:"quarantined,omitempty"`
	// Entries is the current resident entry count; Topologies, Placements
	// and Mappings break it down per entry kind.
	Entries    int `json:"entries"`
	Topologies int `json:"topologies"`
	Placements int `json:"placements"`
	Mappings   int `json:"mappings"`
	// Kinds breaks the Get/eviction counters down per entry kind
	// ("topology", "placement", "mapping") — what per-kind hit-ratio
	// dashboards consume via mctopd's /metrics.
	Kinds map[string]KindStats `json:"kinds,omitempty"`
}

// KindStats is one entry kind's share of a tier's counters.
type KindStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
}

// KindCounters is the per-kind atomic counter block every store tier
// embeds: one slot per Kind, observed on the Get path with a single atomic
// add each. The zero value is ready to use.
type KindCounters struct {
	hits      [numKinds]atomic.Int64
	misses    [numKinds]atomic.Int64
	evictions [numKinds]atomic.Int64
}

func kindIndex(k Kind) int {
	if k >= 0 && k < numKinds {
		return int(k)
	}
	return 0
}

// Hit, Miss and Evict count one Get outcome or eviction of kind k.
func (c *KindCounters) Hit(k Kind)   { c.hits[kindIndex(k)].Add(1) }
func (c *KindCounters) Miss(k Kind)  { c.misses[kindIndex(k)].Add(1) }
func (c *KindCounters) Evict(k Kind) { c.evictions[kindIndex(k)].Add(1) }

// Snapshot fills StoreStats.Kinds (entries counts are the caller's, since
// only the store knows its residency).
func (c *KindCounters) Snapshot(topoEntries, placeEntries, mapEntries int) map[string]KindStats {
	entries := [numKinds]int{topoEntries, placeEntries, mapEntries}
	out := make(map[string]KindStats, numKinds)
	for k := Kind(0); k < numKinds; k++ {
		out[k.String()] = KindStats{
			Hits:      c.hits[k].Load(),
			Misses:    c.misses[k].Load(),
			Evictions: c.evictions[k].Load(),
			Entries:   entries[k],
		}
	}
	return out
}

// TierNamer is the optional Store extension naming the tier ("lru",
// "spool", "remote") — what served-by-tier request logs and metrics label
// their samples with.
type TierNamer interface {
	TierName() string
}

// tierNameOf falls back to "store" for tiers that do not name themselves.
func tierNameOf(s Store) string {
	if n, ok := s.(TierNamer); ok {
		return n.TierName()
	}
	return "store"
}

// TierGetter is the optional Store extension reporting which tier served a
// hit. Tiered implements it; the registry prefers it when present so each
// request can be attributed (request logs, served-by-tier counters).
type TierGetter interface {
	GetWithTier(kind Kind, key string) (val any, tier string, ok bool)
}

// CtxGetter is the optional Store extension for tiers that thread the
// request context through their reads — today that means tracing spans
// (spool decodes, remote fetches); the context never carries cancellation
// semantics a plain Get would lack.
type CtxGetter interface {
	GetContext(ctx context.Context, kind Kind, key string) (any, bool)
}

// CtxTierGetter is TierGetter with the request context threaded through.
// The registry prefers it over TierGetter when present.
type CtxTierGetter interface {
	GetWithTierContext(ctx context.Context, kind Kind, key string) (val any, tier string, ok bool)
}

// Flusher is the optional Store extension for tiers with buffered writes:
// Flush blocks until every accepted Put is durable. Registry.Flush and the
// daemon's graceful shutdown call it through the chain.
type Flusher interface {
	Flush() error
}

// Closer is the optional Store extension for tiers holding resources
// (background writers, directory handles). Close implies Flush.
type Closer interface {
	Close() error
}

// TopologySource resolves the topology key a placement or mapping sidecar
// names to the topology it was computed on.
type TopologySource func(ctx context.Context, key string) (*topo.Topology, bool)

// TopologyBinder is the optional Store extension for tiers that rebuild
// sidecars (placements, mappings) on a topology they look up by key. On
// its own such a tier reads the topology from itself; NewTiered binds it
// to the chain instead, so a rebuilt sidecar shares the topology resident
// in the fastest tier — index built, views rendered — and a topology is
// fetched or decoded once, not once per sidecar. Binding happens before
// the tier serves.
type TopologyBinder interface {
	BindTopologies(src TopologySource)
}

// AsTopology narrows a topology-kind read to its value.
func AsTopology(v any, ok bool) (*topo.Topology, bool) {
	t, _ := v.(*topo.Topology)
	return t, ok && t != nil
}

// Tiered chains stores into one read-through/write-through Store: Get
// consults tiers in order and promotes a lower-tier hit into every tier
// above it (a cold LRU miss that hits the disk spool decodes once and is
// then served from memory); Put writes through to every tier.
type Tiered struct {
	tiers []Store
}

// NewTiered composes tiers, fastest first, and binds every TopologyBinder
// among them to the chain's own topology lookup. Nil tiers are skipped; at
// least one non-nil tier is required.
func NewTiered(tiers ...Store) *Tiered {
	t := &Tiered{}
	for _, s := range tiers {
		if s != nil {
			t.tiers = append(t.tiers, s)
		}
	}
	if len(t.tiers) == 0 {
		panic("registry: NewTiered needs at least one tier")
	}
	src := func(ctx context.Context, key string) (*topo.Topology, bool) {
		v, _, ok := t.GetWithTierContext(ctx, KindTopology, key)
		return AsTopology(v, ok)
	}
	for _, s := range t.tiers {
		if b, ok := s.(TopologyBinder); ok {
			b.BindTopologies(src)
		}
	}
	return t
}

// Get implements Store: read-through with promotion.
func (t *Tiered) Get(kind Kind, key string) (any, bool) {
	v, _, ok := t.GetWithTier(kind, key)
	return v, ok
}

// GetWithTier implements TierGetter: Get plus the name of the tier that
// served the hit.
func (t *Tiered) GetWithTier(kind Kind, key string) (any, string, bool) {
	return t.GetWithTierContext(context.Background(), kind, key)
}

// GetWithTierContext implements CtxTierGetter: the read-through walk with
// the request context handed to tiers that accept one, so a traced request
// attributes its time to the tier that actually did the work.
func (t *Tiered) GetWithTierContext(ctx context.Context, kind Kind, key string) (any, string, bool) {
	for i, s := range t.tiers {
		v, ok := tierGet(ctx, s, kind, key)
		if ok {
			for j := 0; j < i; j++ {
				t.tiers[j].Put(kind, key, v)
			}
			return v, tierNameOf(s), true
		}
	}
	return nil, "", false
}

// tierGet reads one tier, through its context-aware extension when it has
// one.
func tierGet(ctx context.Context, s Store, kind Kind, key string) (any, bool) {
	if cg, ok := s.(CtxGetter); ok {
		return cg.GetContext(ctx, kind, key)
	}
	return s.Get(kind, key)
}

// Put implements Store: write-through to every tier.
func (t *Tiered) Put(kind Kind, key string, val any) {
	for _, s := range t.tiers {
		s.Put(kind, key, val)
	}
}

// Len implements Store: the entry count of the fastest tier (what is
// servable without tier promotion); per-tier counts are in Stats.
func (t *Tiered) Len() int { return t.tiers[0].Len() }

// Purge implements Store: purges every tier — including persistent ones,
// whose files are removed. Callers that only want to drop the memory tier
// purge it directly.
func (t *Tiered) Purge() {
	for _, s := range t.tiers {
		s.Purge()
	}
}

// Stats implements Store: the concatenated per-tier snapshots, fastest
// tier first.
func (t *Tiered) Stats() []StoreStats {
	out := make([]StoreStats, 0, len(t.tiers))
	for _, s := range t.tiers {
		out = append(out, s.Stats()...)
	}
	return out
}

// Flush implements Flusher across the chain.
func (t *Tiered) Flush() error {
	var first error
	for _, s := range t.tiers {
		if f, ok := s.(Flusher); ok {
			if err := f.Flush(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Close implements Closer across the chain.
func (t *Tiered) Close() error {
	var first error
	for _, s := range t.tiers {
		if c, ok := s.(Closer); ok {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
