package topo

// Pre-index reference implementations that only the property tests and
// benchmarks call: the indexed hot paths in index.go must equal them.

// maxLatencyBetweenWalk is the pre-index MaxLatencyBetween: O(k²) group-tree
// walks. Reference implementation for the property tests.
func (t *Topology) maxLatencyBetweenWalk(ctxs []int) int64 {
	var max int64
	for i := 0; i < len(ctxs); i++ {
		for j := i + 1; j < len(ctxs); j++ {
			if l := t.getLatencyWalk(ctxs[i], ctxs[j]); l > max {
				max = l
			}
		}
	}
	return max
}

// powerEstimateMap is the pre-index PowerEstimate: per-call maps over the
// core pointers. Reference implementation for the property tests.
func (t *Topology) powerEstimateMap(ctxs []int, withDRAM bool) (perSocket []float64, total float64) {
	perSocket = make([]float64, len(t.sockets))
	if !t.power.Available() {
		return perSocket, 0
	}
	ctxPerCore := make(map[*HWCGroup]int)
	active := make([]bool, len(t.sockets))
	for _, id := range ctxs {
		c := t.Context(id)
		if c == nil {
			continue
		}
		ctxPerCore[c.Core]++
		active[c.Socket.ID] = true
	}
	for s := range t.sockets {
		if active[s] {
			perSocket[s] = t.power.PerSocketBase
			if withDRAM {
				perSocket[s] += t.power.DRAM
			}
		}
	}
	for core, n := range ctxPerCore {
		perSocket[core.Socket.ID] += t.power.PerFirstCtx + float64(n-1)*t.power.PerExtraCtx
	}
	for _, p := range perSocket {
		total += p
	}
	return perSocket, total
}
