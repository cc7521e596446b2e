// Benchmarks for what neither the seed-42 report golden
// (TestReproduceReport) nor cmd/pdnbench hosts. Every paper number
// lives in docs/experiments-report.txt, every per-layer cost in a
// pdnbench metric; each benchmark here says why it is neither.
package pdnsec_test

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"testing"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/analyzer"
	"github.com/stealthy-peers/pdnsec/internal/corpus"
	"github.com/stealthy-peers/pdnsec/internal/defense"
	"github.com/stealthy-peers/pdnsec/internal/detector"
	"github.com/stealthy-peers/pdnsec/internal/media"
	"github.com/stealthy-peers/pdnsec/internal/netsim"
	"github.com/stealthy-peers/pdnsec/internal/provider"
)

// BenchmarkTableI_Detector times Table I's scan, the signature scan
// plus dynamic confirmation over the full synthetic corpus, on the
// production fan-out. Kept because `-cpu 1,4` shows the fan-out's
// scaling, and pdnbench does not link the detector.
func BenchmarkTableI_Detector(b *testing.B) {
	ctx := context.Background()
	c := corpus.Generate(corpus.Params{Seed: 1})
	profiles := provider.PublicProfiles()
	b.ResetTimer()
	var confirmed int
	for i := 0; i < b.N; i++ {
		rep, err := detector.ParallelPipeline(ctx, c, profiles, 1)
		if err != nil {
			b.Fatal(err)
		}
		confirmed = rep.ConfirmedSites["peer5"] + rep.ConfirmedSites["streamroot"] + rep.ConfirmedSites["viblast"]
	}
	b.ReportMetric(float64(confirmed), "confirmed-sites")
}

// BenchmarkAblationIMReporters varies the IM panel size k and measures
// the fake-SIM survival rate when the attacker controls a third of the
// swarm: the attack needs all k panelists malicious, so survival decays
// geometrically in k. Kept until the server draws the panel; the rate
// then becomes a report section.
func BenchmarkAblationIMReporters(b *testing.B) {
	video := analyzer.SmallVideo("bbb", 1, 1<<10)
	authentic, _ := video.SegmentData("360p", 0)
	for _, k := range []int{1, 2, 3, 5} {
		b.Run(fmt.Sprintf("k-%d", k), func(b *testing.B) {
			var survived, rounds int
			for i := 0; i < b.N; i++ {
				survived, rounds = 0, 0
				// 3 of 9 swarm peers are malicious; panels form from
				// arrival order, shuffled per round.
				for round := 0; round < 200; round++ {
					checker, err := defense.NewIMChecker(defense.IMConfig{
						Reporters: k,
						FetchCDN: func(key media.SegmentKey) ([]byte, error) {
							return video.SegmentData(key.Rendition, key.Index)
						},
					})
					if err != nil {
						b.Fatal(err)
					}
					key := media.SegmentKey{Video: "bbb", Rendition: "360p", Index: 0}
					order := shuffledRoles(9, 3, int64(round)*31+int64(k))
					for p, malicious := range order {
						h := media.IMHash(key, authentic)
						if malicious {
							h = "fake-im"
						}
						checker.Report(fmt.Sprintf("p%d", p), key, h) //nolint:errcheck // bans expected
					}
					if hash, _, ok := checker.SIM(key); ok && hash == "fake-im" {
						survived++
					}
					rounds++
				}
			}
			b.ReportMetric(float64(survived)/float64(rounds), "fake-sim-survival")
		})
	}
}

// shuffledRoles returns a deterministic shuffled slice with m true
// (malicious) entries out of n.
func shuffledRoles(n, m int, seed int64) []bool {
	roles := make([]bool, n)
	for i := 0; i < m; i++ {
		roles[i] = true
	}
	// Fisher-Yates with a simple LCG so the bench has no rand import.
	state := uint64(seed)*6364136223846793005 + 1442695040888963407
	for i := n - 1; i > 0; i-- {
		state = state*6364136223846793005 + 1442695040888963407
		j := int(state>>33) % (i + 1)
		roles[i], roles[j] = roles[j], roles[i]
	}
	return roles
}

// BenchmarkAblationTURN compares direct and relayed transfer of 1 MiB
// between two peers, reporting the relay's bytes per op: the cost that
// makes TURN infeasible at PDN scale (§V-C). Kept because the
// direct/relayed time ratio is wall-clock, which no golden can pin, and
// relaying is not yet a candidate the ICE agent chooses.
func BenchmarkAblationTURN(b *testing.B) {
	payload := make([]byte, 1<<20)
	addr, ap := netip.MustParseAddr, netip.MustParseAddrPort
	for _, relayed := range []bool{false, true} {
		name := "direct"
		if relayed {
			name = "relayed"
		}
		b.Run(name, func(b *testing.B) {
			n := netsim.New(netsim.Config{})
			h1 := n.MustHost(addr("66.24.0.1"))
			h2 := n.MustHost(addr("36.96.0.1"))
			var relay *defense.TURNRelay
			if relayed {
				relay = defense.NewTURNRelay()
				if err := relay.Serve(n.MustHost(addr("50.50.50.50")), 3479); err != nil {
					b.Fatal(err)
				}
				defer relay.Close()
			}
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				var c1, c2 net.Conn
				if relayed {
					c1, c2 = relayPair(b, h1, h2, ap("50.50.50.50:3479"), fmt.Sprintf("r%d", i))
				} else {
					c1, c2 = netsim.Pair(h1, h2, ap("66.24.0.1:40000"), ap("36.96.0.1:40000"))
				}
				b.StartTimer()
				errc := make(chan error, 1)
				go func() {
					buf := make([]byte, 64<<10)
					for total := 0; total < len(payload); {
						nn, err := c2.Read(buf)
						if err != nil {
							errc <- err
							return
						}
						total += nn
					}
					errc <- nil
				}()
				if _, err := c1.Write(payload); err != nil {
					b.Fatal(err)
				}
				if err := <-errc; err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				c1.Close()
				c2.Close()
				b.StartTimer()
			}
			var relayBytes int64
			if relay != nil {
				relayBytes = relay.RelayedBytes()
			}
			b.ReportMetric(float64(relayBytes)/float64(b.N), "relay-bytes/op")
		})
	}
}

// relayPair joins h1 and h2 in one room of the TURN relay at relayAP.
func relayPair(b *testing.B, h1, h2 *netsim.Host, relayAP netip.AddrPort, room string) (net.Conn, net.Conn) {
	b.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	type dialed struct {
		c   net.Conn
		err error
	}
	peer := make(chan dialed, 1)
	go func() {
		c, err := defense.DialRelay(ctx, h2, relayAP, room)
		peer <- dialed{c, err}
	}()
	c1, err := defense.DialRelay(ctx, h1, relayAP, room)
	if err != nil {
		b.Fatal(err)
	}
	d := <-peer
	if d.err != nil {
		b.Fatal(d.err)
	}
	return c1, d.c
}
