package federation

import (
	"fmt"
	"net/netip"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/netsim"
	"github.com/stealthy-peers/pdnsec/internal/obs"
	"github.com/stealthy-peers/pdnsec/internal/signal"
)

// fedTrace is one plane's observable behavior with every peer ID
// normalized to its fingerprint, so a 1-server run ("p3") and a
// 4-server run ("s2p1") can be compared as what a viewer would
// actually experience.
type fedTrace struct {
	matches1 [][]string          // per join-order survivor row, fingerprint lists
	matches2 [][]string          // post-churn round
	relays   map[string]int      // "fromFp->toFp#seq" -> delivery count
	gone     map[string][]string // receiverFp -> sorted leaver fps
}

// fedPeer is one scripted client in the parity workload.
type fedPeer struct {
	c  *signal.Client
	fp string
	id string

	mu     sync.Mutex
	relays []string // "fromID#payload" raw, normalized later
	gone   []string // raw leaver IDs
}

// runFederatedWorkload drives the identical serial workload — joins
// across two swarms through rotated bootstrap lists, a match round, a
// churn wave, a second match round, then seq-numbered relays — against
// a plane with n servers, and returns the normalized trace.
func runFederatedWorkload(t *testing.T, n int, videos []string) *fedTrace {
	t.Helper()
	const peers = 24
	swarms := len(videos)
	reg := obs.NewRegistry()
	sim := netsim.New(netsim.Config{Seed: 11})
	hosts := make([]*netsim.Host, n)
	for i := range hosts {
		hosts[i] = sim.MustHost(netip.AddrFrom4([4]byte{44, 0, 0, byte(i + 1)}))
	}
	p := NewPlane(PlaneConfig{Servers: n, Base: signal.Config{Policy: signal.DefaultPolicy(), Seed: 7, Obs: reg}})
	if err := p.Serve(hosts, 443); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	seeds := p.Addrs()

	idToFp := make(map[string]string, peers)
	all := make([]*fedPeer, peers)
	for i := 0; i < peers; i++ {
		fp := fmt.Sprintf("fp%02d", i)
		pr := &fedPeer{fp: fp}
		host := sim.MustHost(netip.AddrFrom4([4]byte{66, 20, byte(n), byte(i + 1)}))
		rot := make([]netip.AddrPort, len(seeds))
		for j := range seeds {
			rot[j] = seeds[(i+j)%len(seeds)]
		}
		store := NewPeerstore(rot, time.Now)
		res, err := Join(testCtx, host, store, signal.JoinRequest{
			Video:       videos[i%swarms],
			Rendition:   "r",
			Fingerprint: fp,
		}, func(c *signal.Client) {
			c.OnRelay(func(rel signal.Relay) {
				pr.mu.Lock()
				pr.relays = append(pr.relays, rel.From+"#"+string(rel.Payload))
				pr.mu.Unlock()
			})
			c.OnPeerGone(func(id string) {
				pr.mu.Lock()
				pr.gone = append(pr.gone, id)
				pr.mu.Unlock()
			})
		})
		if err != nil {
			t.Fatalf("n=%d: join peer %d: %v", n, i, err)
		}
		t.Cleanup(func() { res.Client.Close() })
		pr.c, pr.id = res.Client, res.Welcome.PeerID
		idToFp[pr.id] = pr.fp
		all[i] = pr
	}

	if n > 1 {
		// The fan-out must actually be federated: the scripted swarms
		// were chosen to land on distinct owners of the 4-server ring.
		owners := make(map[string]bool)
		for _, v := range videos {
			owners[p.Owner(v+"/r")] = true
		}
		if len(owners) < 2 {
			t.Fatalf("n=%d: all swarms owned by one server %v; parity would not exercise federation", n, owners)
		}
	}

	tr := &fedTrace{relays: make(map[string]int), gone: make(map[string][]string)}
	match := func(dst *[][]string) {
		t.Helper()
		for i, pr := range all {
			if pr == nil {
				continue
			}
			infos, err := pr.c.GetPeers(testCtx, 5)
			if err != nil {
				t.Fatalf("n=%d: match peer %d: %v", n, i, err)
			}
			row := make([]string, len(infos))
			for k, in := range infos {
				row[k] = idToFp[in.ID]
			}
			*dst = append(*dst, row)
		}
	}
	match(&tr.matches1)

	// Churn: every fourth peer leaves, serially, each departure awaited
	// plane-wide so pool mutations stay ordered.
	for i := 3; i < peers; i += 4 {
		pr := all[i]
		all[i] = nil
		want := p.PeerCount() - 1
		pr.c.Close()
		waitFor(t, 15*time.Second, func() bool { return p.PeerCount() == want })
	}

	match(&tr.matches2)

	// Relay wave: every survivor sends one numbered frame along each of
	// its post-churn matches; every frame must arrive exactly once.
	seq, sent := 0, 0
	row := 0
	for i, pr := range all {
		if pr == nil {
			continue
		}
		for _, toFp := range tr.matches2[row] {
			to := all[fpIndex(toFp)]
			if to == nil {
				t.Fatalf("n=%d: peer %d matched churned peer %s post-churn", n, i, toFp)
			}
			if err := pr.c.Relay(to.id, "parity", seq); err != nil {
				t.Fatal(err)
			}
			seq++
			sent++
		}
		row++
	}
	waitFor(t, 15*time.Second, func() bool {
		got := 0
		for _, pr := range all {
			if pr != nil {
				pr.mu.Lock()
				got += len(pr.relays)
				pr.mu.Unlock()
			}
		}
		return got >= sent
	})

	for _, pr := range all {
		if pr == nil {
			continue
		}
		pr.mu.Lock()
		for _, raw := range pr.relays {
			var from string
			for id, fp := range idToFp {
				if len(raw) > len(id) && raw[:len(id)] == id && raw[len(id)] == '#' {
					from = fp + raw[len(id):]
					break
				}
			}
			tr.relays[from+"->"+pr.fp]++
		}
		fps := make([]string, 0, len(pr.gone))
		for _, id := range pr.gone {
			fps = append(fps, idToFp[id])
		}
		sort.Strings(fps)
		tr.gone[pr.fp] = fps
		pr.mu.Unlock()
	}
	if got := len(tr.relays); got != sent {
		t.Fatalf("n=%d: %d distinct relays delivered, want %d", n, got, sent)
	}
	return tr
}

func fpIndex(fp string) int {
	var i int
	fmt.Sscanf(fp, "fp%d", &i)
	return i
}

func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not met before timeout")
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFederationParity is the subsystem's acceptance property: for the
// same seed and the same scripted workload, a 1-server plane and a
// 4-server plane produce identical observable behavior — the same
// pairing decisions, the same exactly-once relay deliveries, and the
// same departure-notice audiences — modulo peer-ID namespacing, which
// the traces normalize away via fingerprints. Federation is a routing
// layer, never a behavior change.
func TestFederationParity(t *testing.T) {
	// Pick two swarms with provably distinct owners on the 4-server
	// ring — the ring is deterministic, so the scan is too.
	ring := NewRing()
	for i := 0; i < 4; i++ {
		ring.Add(fmt.Sprintf("s%d", i), testAddr(i))
	}
	first, _, _ := ring.Owner("w0/r")
	videos := []string{"w0"}
	for i := 1; len(videos) < 2 && i < 64; i++ {
		v := fmt.Sprintf("w%d", i)
		if owner, _, _ := ring.Owner(v + "/r"); owner != first {
			videos = append(videos, v)
		}
	}
	if len(videos) < 2 {
		t.Fatal("no second swarm with a distinct owner in 64 candidates")
	}

	base := runFederatedWorkload(t, 1, videos)
	fed := runFederatedWorkload(t, 4, videos)

	if !reflect.DeepEqual(base.matches1, fed.matches1) {
		t.Errorf("first-round pairings diverge:\n1 server: %v\n4 servers: %v", base.matches1, fed.matches1)
	}
	if !reflect.DeepEqual(base.matches2, fed.matches2) {
		t.Errorf("post-churn pairings diverge:\n1 server: %v\n4 servers: %v", base.matches2, fed.matches2)
	}
	if !reflect.DeepEqual(base.relays, fed.relays) {
		t.Errorf("delivered relay multisets diverge:\n1 server: %v\n4 servers: %v", base.relays, fed.relays)
	}
	if !reflect.DeepEqual(base.gone, fed.gone) {
		t.Errorf("departure audiences diverge:\n1 server: %v\n4 servers: %v", base.gone, fed.gone)
	}
}
