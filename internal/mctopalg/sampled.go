// Sampled (sub-O(N²)) measurement for large Forker machines.
//
// The exhaustive step 1 measures all N(N-1)/2 context pairs; at the 1k-10k
// context scale of generated platforms (internal/sim's Generate) that loop
// is the entire cost of a cold inference. Large interconnects are highly
// regular, though, which this mode exploits in three phases:
//
//  1. Pilot phase: measure every pair involving a small, evenly spaced
//     pilot context set. Each context's vector of latencies to the pilots
//     is its *signature*; contexts with byte-equal signatures are
//     indistinguishable to the pilots and form a class.
//  2. Verification phase: for every pair of classes, measure one
//     representative pair plus a deterministic set of probe pairs (the
//     block's corners and seeded interior picks).
//  3. Fill or fall back: if every probe agrees with the representative,
//     the remaining pairs of the block take its value; any disagreement
//     falls back to measuring the block exhaustively. Same-class
//     (diagonal) blocks are always exhaustive — SMT siblings share
//     signatures, so same-core pairs hide inside classes where probes
//     could not catch them.
//
// Each phase is a pair plan — a sequence of pairs produced on demand, never
// stored — run by the same fork executor as the exhaustive plan: the pilot
// wave, then the verify wave (whole small and diagonal blocks plus the
// probes), then the fallback wave (the rest of every block whose probes
// disagree). Only the class member lists are materialized, never a block's
// pairs.
//
// Exhaustive-equality: every measured pair goes through the same executor
// as the exhaustive mode, and a fork's noise stream depends only on
// (seed, x, y) — measured values are byte-identical by construction,
// regardless of which other pairs were measured. Filled values are exact on
// noise-free generated platforms, where a pair's median is a pure function
// of its latency level. Platforms with per-measurement jitter or
// deterministic in-level spread (all five golden machines) are detected up
// front — their pilot medians do not form exact plateaus — and the verify
// wave then measures every remaining non-pilot pair, trading the speedup
// for exactness. The equality is property-tested against the exhaustive
// mode on the golden five and on generated mesh/ring/circulant platforms
// (sampled_test.go).
package mctopalg

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/trace"
)

// SamplingOptions configures the sampled measurement mode. The zero value
// disables it; enabling it with zero parameters uses the defaults below.
type SamplingOptions struct {
	// Enabled turns the mode on for Forker machines with at least
	// MinContexts contexts. Machines without Forker always measure
	// sequentially and ignore this option.
	Enabled bool
	// Pilots is the pilot-set size (0 = auto: n/64 clamped to [8, 64]).
	Pilots int
	// MinContexts is the size below which inference stays exhaustive —
	// under it the pilot phase would measure most pairs anyway (0 = 64).
	MinContexts int
	// VerifyPerBlock is the number of probe pairs measured per class-pair
	// block on top of the representative (0 = 6). Higher values widen the
	// net for irregular platforms at the cost of speedup.
	VerifyPerBlock int
}

func (s *SamplingOptions) fillDefaults() {
	if !s.Enabled {
		// Normalize every disabled spelling to one zero value, so cache
		// keys of non-sampled inferences agree.
		*s = SamplingOptions{}
		return
	}
	if s.Pilots < 0 {
		s.Pilots = 0
	}
	if s.MinContexts <= 0 {
		s.MinContexts = 64
	}
	if s.VerifyPerBlock <= 0 {
		s.VerifyPerBlock = 6
	}
}

// pilotCount resolves the pilot-set size for n contexts.
func (s SamplingOptions) pilotCount(n int) int {
	k := s.Pilots
	if k <= 0 {
		k = n / 64
		if k < 8 {
			k = 8
		}
		if k > 64 {
			k = 64
		}
	}
	if k > n {
		k = n
	}
	return k
}

// noiseGapMin is the plateau-separation rule of the noise gate: on a
// noise-free platform, distinct pilot-phase medians belong to distinct
// latency levels and sit at least one interconnect-hop step apart (67+
// cycles on generated platforms); two distinct medians this close or
// closer are measurement jitter or in-level spread, and the whole run
// falls back to exhaustive measurement.
const noiseGapMin = 8

// collectSampled fills res.RawTable measuring only a subset of pairs (see
// the package comment above) through measure, the fork executor. Each wave
// is one plan and one span on a traced request — never one span per pair;
// the measurement hot loop stays allocation-free. An unmeasured entry is 0
// until filled; measured medians are always >= 1.
func collectSampled(ctx context.Context, measure func(plan) error, n int, opt *Options, res *Result) error {
	res.Sampled = true
	wave := func(span *trace.Span, p plan) error {
		defer span.End()
		err := measure(p)
		if err != nil {
			span.SetError(err)
		}
		return err
	}

	// Phase 1: pilots. Evenly spaced pilot contexts, every pair touching
	// one of them.
	_, pilotSpan := trace.Start(ctx, "infer.pilots")
	k := opt.Sampling.pilotCount(n)
	stride := n / k
	pilots := make([]int, k)
	isPilot := make([]bool, n)
	for i := range pilots {
		pilots[i] = i * stride
		isPilot[i*stride] = true
	}
	pilotWave := exhaustive(n).where(func(x, y int) bool { return isPilot[x] || isPilot[y] })
	pilotSpan.SetInt("pilots", int64(k))
	pilotSpan.SetInt("pairs", int64(pilotWave.size()))
	if err := wave(pilotSpan, pilotWave); err != nil {
		return err
	}

	// Classes: non-pilot contexts grouped by their latency signature to the
	// pilots. Pilot contexts are fully measured already and join no class.
	_, classSpan := trace.Start(ctx, "infer.classify")
	classIdx := map[string]int{}
	var classes [][]int
	var sigb strings.Builder
	for x := 0; x < n; x++ {
		if isPilot[x] {
			continue
		}
		sigb.Reset()
		for _, p := range pilots {
			sigb.WriteString(strconv.FormatInt(res.RawTable[x][p], 10))
			sigb.WriteByte(',')
		}
		sig := sigb.String()
		ci, ok := classIdx[sig]
		if !ok {
			ci = len(classes)
			classIdx[sig] = ci
			classes = append(classes, nil)
		}
		classes[ci] = append(classes[ci], x)
	}

	// Noise gate: exact plateaus only. Any two distinct pilot medians
	// closer than noiseGapMin mean in-level spread, so class fills would
	// not be exact — measure everything instead.
	seen := map[int64]bool{}
	pilotWave(func(x, y int) bool {
		seen[res.RawTable[x][y]] = true
		return true
	})
	distinct := make([]int64, 0, len(seen))
	for v := range seen {
		distinct = append(distinct, v)
	}
	slices.Sort(distinct)
	noisy := false
	for i := 1; i < len(distinct); i++ {
		if distinct[i]-distinct[i-1] <= noiseGapMin {
			noisy = true
			break
		}
	}
	classSpan.SetInt("classes", int64(len(classes)))
	classSpan.SetBool("noisy", noisy)
	classSpan.End()

	// Phase 2: every class-pair block (ci <= cj) is measured whole, or by
	// its probes with the rest left to phase 3. A noisy run just measures
	// every remaining (non-pilot) pair.
	_, verifySpan := trace.Start(ctx, "infer.verify")
	V := opt.Sampling.VerifyPerBlock
	eachBlock := func(f func(probes, rest plan) bool) bool {
		for ci := range classes {
			for cj := ci; cj < len(classes); cj++ {
				if !f(classBlock(classes[ci], classes[cj], ci == cj, V)) {
					return false
				}
			}
		}
		return true
	}
	verifyWave := plan(func(yield func(x, y int) bool) bool {
		return eachBlock(func(probes, _ plan) bool { return probes(yield) })
	})
	probed := 0
	if noisy {
		verifyWave = exhaustive(n).where(func(x, y int) bool { return !isPilot[x] && !isPilot[y] })
		res.FallbackBlocks = len(classes) * (len(classes) + 1) / 2
	} else {
		eachBlock(func(_, rest plan) bool {
			if rest != nil {
				probed++
			}
			return true
		})
	}
	verifySpan.SetInt("pairs", int64(verifyWave.size()))
	verifySpan.SetInt("blocks", int64(probed))
	if err := wave(verifySpan, verifyWave); err != nil {
		return err
	}

	// Phase 3: fill the blocks whose probes all agree with their
	// representative (the first probe); measure the rest of the others.
	_, fillSpan := trace.Start(ctx, "infer.fill")
	var fallback []plan
	if !noisy {
		eachBlock(func(probes, rest plan) bool {
			if rest == nil {
				return true
			}
			var rep int64
			agree := probes(func(x, y int) bool {
				if rep == 0 {
					rep = res.RawTable[x][y]
				}
				return res.RawTable[x][y] == rep
			})
			if !agree {
				fallback = append(fallback, rest)
				return true
			}
			rest(func(x, y int) bool {
				res.RawTable[x][y], res.RawTable[y][x] = rep, rep
				res.FilledPairs++
				return true
			})
			return true
		})
		res.FallbackBlocks = len(fallback)
	}
	fillSpan.SetInt("filled", int64(res.FilledPairs))
	fillSpan.SetInt("fallback_blocks", int64(res.FallbackBlocks))
	fallbackWave := func(yield func(x, y int) bool) bool {
		for _, rest := range fallback {
			if !rest(yield) {
				return false
			}
		}
		return true
	}
	if err := wave(fillSpan, fallbackWave); err != nil {
		return err
	}

	// Every off-diagonal entry must now be measured or filled.
	if !exhaustive(n)(func(x, y int) bool { return res.RawTable[x][y] != 0 }) {
		return fmt.Errorf("mctopalg: internal error: sampled measurement left a pair unset")
	}
	return nil
}

// classBlock returns the plans of the class-pair block (a, b) — the pairs
// within class a when same, else every {a_i, b_j}: probes is what phase 2
// measures and rest what phase 3 fills or measures. A block is measured
// whole (rest is nil) when it is on the diagonal — SMT siblings share
// signatures, so same-core pairs hide inside classes where probes could not
// catch them — or has no more than v+1 pairs.
func classBlock(a, b []int, same bool, v int) (probes, rest plan) {
	if same {
		return func(yield func(x, y int) bool) bool {
			for i, x := range a {
				for _, y := range a[i+1:] {
					if !yield(x, y) {
						return false
					}
				}
			}
			return true
		}, nil
	}
	// Canonical order: merge the ascending member lists; the smaller head
	// pairs with every member of the other class above it.
	all := plan(func(yield func(x, y int) bool) bool {
		for i, j := 0, 0; i < len(a) && j < len(b); {
			x, others := a[i], b[j:]
			if b[j] < a[i] {
				x, others = b[j], a[i:]
				j++
			} else {
				i++
			}
			for _, y := range others {
				if !yield(x, y) {
					return false
				}
			}
		}
		return true
	})
	size := len(a) * len(b)
	if size <= v+1 {
		return all, nil
	}
	idx := probeIndices(min(a[0], b[0]), max(a[0], b[0]), size, v)
	return all.at(idx, true), all.at(idx, false)
}

// at keeps the pairs of p whose positions are in idx (ascending) when in is
// true, and the others when it is false.
func (p plan) at(idx []int, in bool) plan {
	return func(yield func(x, y int) bool) bool {
		pos, k := 0, 0
		return p(func(x, y int) bool {
			hit := k < len(idx) && idx[k] == pos
			if hit {
				k++
			}
			pos++
			return hit != in || yield(x, y)
		})
	}
}

// probeIndices returns the positions of a block's verification probes among
// its size pairs in canonical order: the first and last pair (the block's
// corners) plus deterministic interior picks seeded by the first pair
// (x0, y0), v+1 positions in total, ascending. The selection depends only
// on the block, so it is independent of measurement order and parallelism.
func probeIndices(x0, y0, size, v int) []int {
	idx := []int{0, size - 1}
	h := uint64(x0)<<32 | uint64(y0)
	for len(idx) < v+1 && len(idx) < size {
		h = splitmix64(h)
		cand := int(h % uint64(size))
		if !slices.Contains(idx, cand) {
			idx = append(idx, cand)
		}
	}
	sort.Ints(idx)
	return idx
}

// splitmix64 is the SplitMix64 mixing function (public domain; same stream
// derivation the simulator uses for per-pair noise seeds).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d49b133aa8ef4b
	return z ^ (z >> 31)
}
