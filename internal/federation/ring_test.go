package federation

import (
	"fmt"
	"net/netip"
	"strconv"
	"testing"
)

func testAddr(i int) netip.AddrPort {
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)}), 443)
}

func ringOf(n int) *Ring {
	r := NewRing()
	for i := 0; i < n; i++ {
		r.Add(fmt.Sprintf("s%d", i), testAddr(i))
	}
	return r
}

// TestRingSkew pins the load-balance property Vnodes buys: over
// a realistic swarm population the busiest server owns less than 1.3x
// the quietest server's share.
func TestRingSkew(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8} {
		ring := ringOf(n)
		counts := make(map[string]int, n)
		const swarms = 20000
		for i := 0; i < swarms; i++ {
			name, _, ok := ring.Owner("load-" + strconv.Itoa(i))
			if !ok {
				t.Fatalf("n=%d: no owner for swarm %d", n, i)
			}
			counts[name]++
		}
		if len(counts) != n {
			t.Fatalf("n=%d: only %d servers own swarms: %v", n, len(counts), counts)
		}
		min, max := swarms, 0
		for _, c := range counts {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		ratio := float64(max) / float64(min)
		t.Logf("n=%d: ownership %v, skew %.3f", n, counts, ratio)
		if ratio >= 1.3 {
			t.Errorf("n=%d: ownership skew %.3f >= 1.3 (min %d, max %d)", n, ratio, min, max)
		}
	}
}

// TestRingGoldenAssignment pins the exact owner of a fixed swarm set on
// a 3-server ring. The assignment is pure function of the server names
// and vnode hashing — if this test moves, every deployed router
// disagrees with every client's expectation mid-rollout, so changing
// it is a breaking protocol change, not a refactor.
func TestRingGoldenAssignment(t *testing.T) {
	ring := ringOf(3)
	golden := map[string]string{
		"load-0":      "s0",
		"load-1":      "s2",
		"load-2":      "s1",
		"load-3":      "s0",
		"load-4":      "s0",
		"load-5":      "s0",
		"load-6":      "s2",
		"load-7":      "s2",
		"vod:news":    "s0",
		"vod:sports":  "s0",
		"live:launch": "s2",
	}
	for swarm, want := range golden {
		got, addr, ok := ring.Owner(swarm)
		if !ok {
			t.Fatalf("no owner for %q", swarm)
		}
		if got != want {
			t.Errorf("Owner(%q) = %s, want %s", swarm, got, want)
		}
		if !addr.IsValid() {
			t.Errorf("Owner(%q) returned invalid addr", swarm)
		}
	}
}

// TestRingMinimalMovement pins consistent hashing's defining property:
// membership changes move only the arcs that changed hands. A leave
// moves exactly the departed server's swarms; a re-join restores the
// original assignment byte for byte; a fresh join steals roughly 1/N+1
// of the space and nothing else moves.
func TestRingMinimalMovement(t *testing.T) {
	const swarms = 10000
	ring := ringOf(4)
	before := make(map[string]string, swarms)
	for i := 0; i < swarms; i++ {
		id := "load-" + strconv.Itoa(i)
		before[id], _, _ = ring.Owner(id)
	}

	// Leave: only s3's swarms may move, and they must all move.
	ring.Remove("s3")
	moved := 0
	for id, was := range before {
		now, _, _ := ring.Owner(id)
		if was == "s3" {
			if now == "s3" {
				t.Fatalf("%s still owned by removed s3", id)
			}
			moved++
		} else if now != was {
			t.Errorf("%s moved %s -> %s though s3's departure didn't touch it", id, was, now)
		}
	}
	if moved == 0 {
		t.Fatal("s3 owned nothing; skew test should have caught this")
	}

	// Re-join: the assignment must return to the original exactly.
	ring.Add("s3", testAddr(3))
	for id, was := range before {
		if now, _, _ := ring.Owner(id); now != was {
			t.Errorf("after re-add, %s owned by %s, want %s", id, now, was)
		}
	}

	// Fresh join: s4 takes some arcs; every other swarm stays put.
	ring.Add("s4", testAddr(4))
	stolen := 0
	for id, was := range before {
		now, _, _ := ring.Owner(id)
		switch {
		case now == was:
		case now == "s4":
			stolen++
		default:
			t.Errorf("%s moved %s -> %s on s4's join without s4 taking it", id, was, now)
		}
	}
	frac := float64(stolen) / swarms
	t.Logf("s4 join moved %d/%d swarms (%.3f)", stolen, swarms, frac)
	if frac < 0.10 || frac > 0.35 {
		t.Errorf("s4 took %.3f of the space, want roughly 1/5 (0.10..0.35)", frac)
	}
}

// TestRingEdgeCases covers the empty ring, address updates, and
// idempotent removal.
func TestRingEdgeCases(t *testing.T) {
	r := NewRing()
	if _, _, ok := r.Owner("anything"); ok {
		t.Error("empty ring claimed an owner")
	}
	r.Add("s0", testAddr(0))
	name, addr, ok := r.Owner("x")
	if !ok || name != "s0" || addr != testAddr(0) {
		t.Fatalf("singleton ring Owner = %s %v %v", name, addr, ok)
	}
	// Re-adding updates the address without disturbing the points.
	r.Add("s0", testAddr(9))
	if _, addr, _ := r.Owner("x"); addr != testAddr(9) {
		t.Errorf("re-add did not update addr: %v", addr)
	}
	r.Remove("ghost") // unknown name is a no-op
	if r.Len() != 1 {
		t.Errorf("Len = %d after ghost removal, want 1", r.Len())
	}
	mem := r.Members()
	if len(mem) != 1 || mem[0].Name != "s0" || mem[0].Addr != testAddr(9) {
		t.Errorf("Members = %v", mem)
	}
	r.Remove("s0")
	if r.Len() != 0 {
		t.Errorf("Len = %d after removal, want 0", r.Len())
	}
}
