package population

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// Behavior classifies how a population member treats the PDN protocol.
// The honest majority follows it; the adversarial behaviors reproduce
// the paper's risk analysis at population scale — free-riding (§IV-B),
// resource squatting via identity mills, and matcher abuse.
type Behavior string

const (
	// BehaviorHonest is a protocol-following viewer: it joins, matches,
	// downloads, and uploads per policy.
	BehaviorHonest Behavior = "honest"
	// BehaviorFreeRider downloads from peers but never serves a byte —
	// the paper's free-riding attacker replicated into a wave.
	BehaviorFreeRider Behavior = "free_rider"
	// BehaviorSybil is an identity mill: one host joining the swarm
	// under many peer identities to squat the matcher's upload slots.
	BehaviorSybil Behavior = "sybil"
	// BehaviorEclipse is a colluder that stays online, accepts every
	// connection, and serves nothing, aiming to saturate honest peers'
	// candidate pools.
	BehaviorEclipse Behavior = "eclipse"
	// BehaviorImpersonator joins under a leaked static identity key it
	// does not own — the key-compromise attacker the secure transport's
	// possession proof and bad-key quarantine are built to contain.
	BehaviorImpersonator Behavior = "impersonator"
)

// Valid reports whether b names a known behavior.
func (b Behavior) Valid() bool {
	switch b {
	case BehaviorHonest, BehaviorFreeRider, BehaviorSybil, BehaviorEclipse, BehaviorImpersonator:
		return true
	}
	return false
}

// MixEntry is one behavior band of a population mix.
type MixEntry struct {
	Behavior Behavior
	Count    int
}

// Mix is an ordered population composition, e.g. 8 honest viewers plus
// a 40-identity Sybil mill. Order is preserved from the mix string so
// rosters derive deterministically.
type Mix []MixEntry

// ParseMix parses the "behavior:count,behavior:count" syntax used by the
// operator CLIs, e.g. "honest:8,free_rider:4,sybil:40".
func ParseMix(s string) (Mix, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var m Mix
	for _, part := range strings.Split(s, ",") {
		name, countStr, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("population: mix entry %q is not behavior:count", part)
		}
		b := Behavior(strings.TrimSpace(name))
		if !b.Valid() {
			return nil, fmt.Errorf("population: unknown behavior %q", name)
		}
		count, err := strconv.Atoi(strings.TrimSpace(countStr))
		if err != nil || count < 1 {
			return nil, fmt.Errorf("population: mix entry %q needs a positive count", part)
		}
		m = append(m, MixEntry{Behavior: b, Count: count})
	}
	return m, nil
}

// String renders the mix back into ParseMix syntax.
func (m Mix) String() string {
	parts := make([]string, 0, len(m))
	for _, e := range m {
		parts = append(parts, fmt.Sprintf("%s:%d", e.Behavior, e.Count))
	}
	return strings.Join(parts, ",")
}

// Total is the population size across all bands.
func (m Mix) Total() int {
	n := 0
	for _, e := range m {
		n += e.Count
	}
	return n
}

// Roster expands the mix into one behavior per member and shuffles it
// with a generator seeded from seed alone, so arrival order interleaves
// behaviors deterministically.
func (m Mix) Roster(seed int64) []Behavior {
	out := make([]Behavior, 0, m.Total())
	for _, e := range m {
		for i := 0; i < e.Count; i++ {
			out = append(out, e.Behavior)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Jain computes Jain's fairness index (Σx)²/(n·Σx²) over a load vector —
// 1 when every member bears equal load, →1/n as one member bears it
// all. An empty or all-zero vector is perfectly fair by convention.
func Jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}
