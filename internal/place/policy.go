package place

import (
	"fmt"
	"sort"
	"strings"
)

// LRU is the default policy, byte-compatible with the hierarchy's
// historical behavior: least-recently-used eviction (lexicographically
// first key among recency ties), and no background movement — placement
// stays wherever the write landed it.
type LRU struct{}

// Name implements Policy.
func (LRU) Name() string { return "lru" }

// Victim implements Policy: the least-recently-used candidate. Candidates
// arrive sorted by key and the comparison is strict, so ties break to the
// lexicographically smallest key — the historical eviction order,
// deterministic for a given access history.
func (LRU) Victim(tier int, cands []Candidate) string {
	return victimByScore(cands, func(Candidate) float64 { return 0 })
}

// Promote implements Policy: LRU placement is static.
func (LRU) Promote(View) []Move { return nil }

// Demote implements Policy: LRU placement is static.
func (LRU) Demote(View) []Move { return nil }

// How aggressively FreqDecay moves data.
const (
	// maxMoves caps promotions (and separately demotions) per cycle, so a
	// workload shift migrates incrementally instead of stalling reads
	// behind a burst of copies.
	maxMoves = 8
	// hysteresis is how many times hotter an outsider must be than the
	// residents it would displace before a promotion is worth the copy.
	// Thrash protection: under a uniform workload frequencies tie and
	// nothing moves.
	hysteresis = 1.25
	// highWater and lowWater are the capacity fractions that trigger and
	// end background demotion on a bounded tier: above highWater, coldest
	// keys demote until usage falls below lowWater, keeping admission
	// headroom so writes and promotions do not synchronously evict.
	highWater, lowWater = 0.95, 0.85
)

// rank splits the candidates by residency on the fast tier, hot first
// (outsiders) and cold first (residents) by decayed frequency, with
// deterministic key-order tie-breaks.
func rank(v View) (outsiders, residents []Candidate) {
	for _, c := range v.Keys {
		if c.Tier == 0 {
			residents = append(residents, c)
		} else {
			outsiders = append(outsiders, c)
		}
	}
	sort.SliceStable(outsiders, func(i, j int) bool { return outsiders[i].Stats.Freq > outsiders[j].Stats.Freq })
	sort.SliceStable(residents, func(i, j int) bool { return residents[i].Stats.Freq < residents[j].Stats.Freq })
	return outsiders, residents
}

// promoteHot is the promotion planner: walk outsiders hot-first, filling
// free fast-tier space outright and displacing the coldest residents only
// when the outsider is hotter than all of them together by the hysteresis
// factor. The returned moves name only the promoted keys — the eviction of
// displaced residents happens inside the hierarchy's Promote through
// FreqDecay.Victim, which ranks by the same frequency, so the resident this
// planner chose to displace is the one the eviction machinery picks.
func promoteHot(v View) []Move {
	if len(v.Tiers) < 2 {
		return nil
	}
	outsiders, residents := rank(v)
	fast := v.Tiers[0]
	free := fast.Capacity - fast.Used
	if fast.Capacity <= 0 {
		// Unbounded fast tier: everything hot belongs there.
		free = 1 << 62
	}
	var moves []Move
	ri := 0
	for _, c := range outsiders {
		if len(moves) >= maxMoves {
			break
		}
		if c.Stats.Freq <= 0 {
			break
		}
		if c.Stored <= free {
			moves = append(moves, Move{Key: c.Key, To: 0})
			free -= c.Stored
			continue
		}
		// Full: displace the coldest residents covering the shortfall, if
		// the newcomer beats their combined frequency with margin.
		need := c.Stored - free
		var dispFreq float64
		var dispBytes int64
		j := ri
		for ; j < len(residents) && dispBytes < need; j++ {
			dispFreq += residents[j].Stats.Freq
			dispBytes += residents[j].Stored
		}
		if dispBytes < need || c.Stats.Freq <= hysteresis*dispFreq {
			// Outsiders are sorted hot-first: if this one cannot displace
			// the coldest residents, none of the colder ones can either.
			break
		}
		moves = append(moves, Move{Key: c.Key, To: 0})
		free += dispBytes - c.Stored
		ri = j
	}
	return moves
}

// demoteCold is the capacity-pressure demoter: on every bounded tier above
// the bottom whose usage exceeds the high watermark, demote the coldest
// keys one tier down until projected usage falls below the low watermark.
func demoteCold(v View) []Move {
	var moves []Move
	for _, t := range v.Tiers {
		if t.Capacity <= 0 || t.Index+1 >= len(v.Tiers) {
			continue
		}
		if float64(t.Used) <= highWater*float64(t.Capacity) {
			continue
		}
		var cands []Candidate
		for _, c := range v.Keys {
			if c.Tier == t.Index {
				cands = append(cands, c)
			}
		}
		sort.SliceStable(cands, func(i, j int) bool { return cands[i].Stats.Freq < cands[j].Stats.Freq })
		used := t.Used
		for _, c := range cands {
			if len(moves) >= maxMoves || float64(used) <= lowWater*float64(t.Capacity) {
				break
			}
			moves = append(moves, Move{Key: c.Key, To: t.Index + 1})
			used -= c.Stored
		}
	}
	return moves
}

// FreqDecay ranks products purely by decayed access frequency: the hottest
// keys deserve the fast tier no matter their size. Eviction victims are the
// lowest-frequency residents (recency breaks frequency ties, then key
// order), so a product the workload abandoned ages out at the decay
// half-life instead of squatting.
type FreqDecay struct{}

// NewFreqDecay returns the frequency-decay policy.
func NewFreqDecay() *FreqDecay { return &FreqDecay{} }

// Name implements Policy.
func (*FreqDecay) Name() string { return "freq" }

// Victim implements Policy: the lowest decayed frequency, recency then key
// order breaking ties.
func (*FreqDecay) Victim(tier int, cands []Candidate) string {
	return victimByScore(cands, func(c Candidate) float64 { return c.Stats.Freq })
}

// Promote implements Policy.
func (*FreqDecay) Promote(v View) []Move { return promoteHot(v) }

// Demote implements Policy.
func (*FreqDecay) Demote(v View) []Move { return demoteCold(v) }

// victimByScore picks the minimum-score candidate, breaking score ties by
// older recency and then (candidates arrive key-sorted, comparisons are
// strict) lexicographic key order.
func victimByScore(cands []Candidate, score func(Candidate) float64) string {
	best := ""
	var bestScore float64
	var bestUsed int64
	for _, c := range cands {
		s := score(c)
		if best == "" || s < bestScore || (s == bestScore && c.Stats.LastUsed < bestUsed) {
			best = c.Key
			bestScore = s
			bestUsed = c.Stats.LastUsed
		}
	}
	return best
}

// Names lists the selectable policies, default first — the -place-policy
// flag's value set.
func Names() []string { return []string{"lru", "freq"} }

// ByName resolves a -place-policy flag value to a fresh policy instance.
func ByName(name string) (Policy, error) {
	switch name {
	case "", "lru":
		return LRU{}, nil
	case "freq":
		return NewFreqDecay(), nil
	}
	return nil, fmt.Errorf("place: unknown policy %q (want %s)", name, strings.Join(Names(), ", "))
}
