package mctopalg

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

// serialMachine hides every optional extension of a simulated machine —
// Forker included — so collectTable must take the serial executor, the path
// real hosts use.
type serialMachine struct{ machine.Machine }

// pairMeasurerMachine is a serialMachine with a deterministic
// machine.PairMeasurer fast path. Its samples are the platform's
// ground-truth latency plus a splitmix jitter whose width cycles with the
// call count, so some pairs pass the 7% rule at once and some only after
// retries widen it.
type pairMeasurerMachine struct {
	serialMachine
	p     *sim.Platform
	calls uint64
}

func (m *pairMeasurerMachine) MeasurePair(x, y, reps int) []int64 {
	m.calls++
	width := uint64(20 + 30*(m.calls%3))
	h := m.calls<<32 | uint64(x)<<16 | uint64(y)
	vals := make([]int64, reps)
	for i := range vals {
		h = splitmix64(h)
		vals[i] = m.p.PairLatency(x, y) + int64(h%width)
	}
	return vals
}

// digestTable hashes what step 1 reports: the raw table and its
// bookkeeping.
func digestTable(res *Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, row := range res.RawTable {
		for _, v := range row {
			put(v)
		}
	}
	put(int64(res.Pairs))
	put(int64(res.Retries))
	put(res.Cycles)
	put(res.RdtscOverhead)
	return h.Sum64()
}

// TestSerialExecutorPinned pins the serial measurement path — generic
// lock-step loop and PairMeasurer fast path — to recorded digests for every
// golden platform: the raw table and its bookkeeping must stay
// byte-identical however step 1 is restructured.
func TestSerialExecutorPinned(t *testing.T) {
	want := map[string][2]uint64{
		"Ivy":      {0xc6997600d7b5792a, 0x4df50feb33b12b14},
		"Westmere": {0x428c1a96791b1fcb, 0xff22c47234f7edf4},
		"Haswell":  {0xe235a4c796681a98, 0xac477e1fd2ce12fd},
		"Opteron":  {0x9e467890d9f65ba, 0xa52602ab75e596e9},
		"SPARC":    {0x91ef58bab4727785, 0x52cfe48c523e01a5},
	}
	for _, p := range sim.Platforms() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			var got [2]uint64
			for i := range got {
				sm, err := machine.NewSim(p, 42)
				if err != nil {
					t.Fatal(err)
				}
				var m machine.Machine = serialMachine{sm}
				if i == 1 {
					m = &pairMeasurerMachine{serialMachine: serialMachine{sm}, p: p}
				}
				opt := testOptions()
				opt.fillDefaults()
				res := &Result{}
				if err := collectTable(context.Background(), m, &opt, res); err != nil {
					t.Fatal(err)
				}
				if res.Sampled || res.Pairs != p.NumContexts()*(p.NumContexts()-1)/2 {
					t.Fatalf("variant %d: %d pairs (sampled %v), want every pair", i, res.Pairs, res.Sampled)
				}
				got[i] = digestTable(res)
			}
			if got != want[p.Name] {
				t.Errorf("digests = %#x, want %#x", got, want[p.Name])
			}
		})
	}
}
