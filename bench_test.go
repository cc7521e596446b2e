// Benchmarks regenerating each of the paper's tables and figures (one
// bench per artifact), the DESIGN.md ablations, and microbenchmarks of
// the hot primitives. Custom metrics carry the experiment's headline
// number so `go test -bench` output doubles as a results table.
package pdnsec_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/stealthy-peers/pdnsec"
	"github.com/stealthy-peers/pdnsec/internal/analyzer"
	"github.com/stealthy-peers/pdnsec/internal/corpus"
	"github.com/stealthy-peers/pdnsec/internal/defense"
	"github.com/stealthy-peers/pdnsec/internal/detector"
	"github.com/stealthy-peers/pdnsec/internal/dtls"
	"github.com/stealthy-peers/pdnsec/internal/experiments"
	"github.com/stealthy-peers/pdnsec/internal/geoip"
	"github.com/stealthy-peers/pdnsec/internal/hls"
	"github.com/stealthy-peers/pdnsec/internal/media"
	"github.com/stealthy-peers/pdnsec/internal/mitm"
	"github.com/stealthy-peers/pdnsec/internal/netsim"
	"github.com/stealthy-peers/pdnsec/internal/population"
	"github.com/stealthy-peers/pdnsec/internal/provider"
	"github.com/stealthy-peers/pdnsec/internal/signal"
	"github.com/stealthy-peers/pdnsec/internal/stun"
)

func benchCtx(b *testing.B) context.Context {
	b.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	b.Cleanup(cancel)
	return ctx
}

// BenchmarkTableI_Detector regenerates Table I: the signature scan +
// dynamic confirmation over the full synthetic corpus.
func BenchmarkTableI_Detector(b *testing.B) {
	ctx := benchCtx(b)
	c := corpus.Generate(corpus.Params{Seed: 1})
	profiles := provider.PublicProfiles()
	b.ResetTimer()
	var confirmed int
	for i := 0; i < b.N; i++ {
		rep, err := detector.Pipeline(ctx, c, profiles, 1)
		if err != nil {
			b.Fatal(err)
		}
		confirmed = rep.ConfirmedSites["peer5"] + rep.ConfirmedSites["streamroot"] + rep.ConfirmedSites["viblast"]
	}
	b.ReportMetric(float64(confirmed), "confirmed-sites")
}

// BenchmarkParallelScan runs the detection scan (sites + APKs) through
// the internal/dispatch engine at increasing worker counts, verifying
// on every iteration that the parallel report renders Tables I-IV
// byte-identically to the sequential reference. The headline workers-N
// series models a live crawl's I/O profile (100µs of simulated network
// round-trip per page/APK fetch — the workload the engine exists for),
// so the workers-1 vs workers-4 ratio holds even on a single core;
// the cpubound-workers-N series measures the pure in-memory scan,
// which only scales with physical parallelism.
func BenchmarkParallelScan(b *testing.B) {
	ctx := benchCtx(b)
	c := corpus.Generate(corpus.Params{Seed: 1, FillerSites: 300, FillerApps: 120})
	profiles := provider.PublicProfiles()
	seqRep, err := detector.Pipeline(ctx, c, profiles, 1)
	if err != nil {
		b.Fatal(err)
	}
	golden := renderAllTables(&experiments.DetectionResult{Report: seqRep, Corpus: c})
	scan := func(b *testing.B, opts detector.Options) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			rep, err := detector.ParallelPipeline(ctx, c, profiles, 1, opts)
			if err != nil {
				b.Fatal(err)
			}
			if got := renderAllTables(&experiments.DetectionResult{Report: rep, Corpus: c}); got != golden {
				b.Fatal("parallel tables diverge from sequential output")
			}
		}
	}
	for _, workers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			scan(b, detector.Options{Workers: workers, SimulateRTT: 100 * time.Microsecond})
		})
	}
	for _, workers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("cpubound-workers-%d", workers), func(b *testing.B) {
			scan(b, detector.Options{Workers: workers})
		})
	}
}

// renderAllTables concatenates every detection artifact the scan
// produces, so byte equality covers Tables I-IV and §IV-D.
func renderAllTables(det *experiments.DetectionResult) string {
	return det.RenderTableI() + det.RenderTableII() + det.RenderTableIII() +
		det.RenderTableIV() + det.RenderResourceSquattingWild()
}

// BenchmarkTableV_Analyzer regenerates one Table V column: the full
// security battery against the Peer5-like profile.
func BenchmarkTableV_Analyzer(b *testing.B) {
	ctx := benchCtx(b)
	var vulnerable int
	for i := 0; i < b.N; i++ {
		verdicts, err := analyzer.RunAll(ctx, provider.Peer5())
		if err != nil {
			b.Fatal(err)
		}
		vulnerable = 0
		for _, v := range verdicts {
			if v.Vulnerable {
				vulnerable++
			}
		}
	}
	b.ReportMetric(float64(vulnerable), "vulnerable-risks")
}

// BenchmarkTableVI_IMChecking regenerates Table VI: IM-checking
// overhead measured on running testbed swarms (metered CPU/memory, mean
// P2P segment latency with the SIM fetch and verify inside it).
func BenchmarkTableVI_IMChecking(b *testing.B) {
	ctx := benchCtx(b)
	var latency time.Duration
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTableVI(ctx, 3<<20)
		if err != nil {
			b.Fatal(err)
		}
		latency = res.Rows[2].Latency
	}
	b.ReportMetric(float64(latency.Milliseconds()), "im-latency-ms")
}

// BenchmarkFigure4_PeerOverhead regenerates Fig. 4: PDN peer resource
// overhead vs a no-peer control.
func BenchmarkFigure4_PeerOverhead(b *testing.B) {
	ctx := benchCtx(b)
	var cpuRatio float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure4(ctx)
		if err != nil {
			b.Fatal(err)
		}
		cpuRatio = res.PeerB.CPURatio
	}
	b.ReportMetric(cpuRatio, "peer-cpu-ratio")
}

// BenchmarkFigure5_UploadScaling regenerates Fig. 5: seeder upload
// growth with neighbor count.
func BenchmarkFigure5_UploadScaling(b *testing.B) {
	ctx := benchCtx(b)
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure5(ctx, 3)
		if err != nil {
			b.Fatal(err)
		}
		ratio = res.Points[len(res.Points)-1].UploadRatio
	}
	b.ReportMetric(ratio, "up/down-at-3-peers")
}

// BenchmarkIPLeakWild regenerates the §IV-D in-the-wild harvest.
func BenchmarkIPLeakWild(b *testing.B) {
	var harvested int
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunIPLeakWild(int64(i))
		if err != nil {
			b.Fatal(err)
		}
		harvested = res.Combined.Total
	}
	b.ReportMetric(float64(harvested), "harvested-ips")
}

// BenchmarkFreeRidingBilling regenerates the §IV-B billing attack.
func BenchmarkFreeRidingBilling(b *testing.B) {
	ctx := benchCtx(b)
	var bytes int64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFreeRideBilling(ctx, 3)
		if err != nil {
			b.Fatal(err)
		}
		bytes = res.VictimUsage
	}
	b.ReportMetric(float64(bytes), "victim-billed-bytes")
}

// BenchmarkAblationSlowStart varies the slow-start depth and measures
// how many early polluted segments reach a victim when a malicious
// seeder poisons the head of the stream: depth 0 lets the poison in,
// the deployed depth (2) keeps it out.
func BenchmarkAblationSlowStart(b *testing.B) {
	ctx := benchCtx(b)
	for _, depth := range []int{0, 2} {
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			var polluted int
			for i := 0; i < b.N; i++ {
				n, err := pollutedHeadSegments(ctx, depth)
				if err != nil {
					b.Fatal(err)
				}
				polluted = n
			}
			b.ReportMetric(float64(polluted), "polluted-head-segments")
		})
	}
}

// pollutedHeadSegments runs a same-size pollution attack on segments
// 0 and 1 with the given slow-start depth and reports how many reached
// the victim.
func pollutedHeadSegments(ctx context.Context, slowStart int) (int, error) {
	video := analyzer.SmallVideo("bbb", 4, 16<<10)
	pol := signal.DefaultPolicy()
	pol.SlowStartSegments = slowStart
	tb, err := analyzer.NewTestbed(context.Background(), analyzer.TestbedConfig{
		Profile: provider.Peer5(),
		Video:   video,
		Options: provider.Options{Seed: 5, PolicyOverride: &pol},
	})
	if err != nil {
		return 0, err
	}
	defer tb.Close()

	obs, err := tb.Pollution(ctx, mitm.SameSizePollution([]int{0, 1}))
	if err != nil {
		return 0, err
	}
	return len(obs.PollutedSegments), nil
}

// BenchmarkAblationIMReporters varies the IM panel size k and measures
// the fake-SIM survival rate when the attacker controls a third of the
// swarm: the attack needs all k panelists malicious, so survival decays
// geometrically in k.
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

// BenchmarkAblationTURN compares direct and relayed P2P transfer,
// reporting the relay's byte overhead — the cost that makes TURN
// infeasible at PDN scale (§V-C).
func BenchmarkAblationTURN(b *testing.B) {
	payload := make([]byte, 1<<20)
	for _, relayed := range []bool{false, true} {
		name := "direct"
		if relayed {
			name = "relayed"
		}
		b.Run(name, func(b *testing.B) {
			n := netsim.New(netsim.Config{})
			h1 := n.MustHost(mustAddr("66.24.0.1"))
			h2 := n.MustHost(mustAddr("36.96.0.1"))
			var relay *defense.TURNRelay
			relayBytes := int64(0)
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				var c1, c2 interface {
					Read([]byte) (int, error)
					Write([]byte) (int, error)
					Close() error
				}
				if relayed {
					relayHost := n.Host(mustAddr("50.50.50.50"))
					if relayHost == nil {
						relayHost = n.MustHost(mustAddr("50.50.50.50"))
						relay = defense.NewTURNRelay()
						if err := relay.Serve(relayHost, 3479); err != nil {
							b.Fatal(err)
						}
					}
					ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
					room := fmt.Sprintf("r%d", i)
					done := make(chan interface {
						Read([]byte) (int, error)
						Write([]byte) (int, error)
						Close() error
					}, 1)
					go func() {
						c, err := defense.DialRelay(ctx, h2, mustAP("50.50.50.50:3479"), room)
						if err == nil {
							done <- c
						} else {
							done <- nil
						}
					}()
					c, err := defense.DialRelay(ctx, h1, mustAP("50.50.50.50:3479"), room)
					if err != nil {
						b.Fatal(err)
					}
					c1 = c
					c2 = <-done
					cancel()
					if c2 == nil {
						b.Fatal("relay pairing failed")
					}
				} else {
					a, z := netsim.Pair(h1, h2, mustAP("66.24.0.1:40000"), mustAP("36.96.0.1:40000"))
					c1, c2 = a, z
				}
				b.StartTimer()
				errc := make(chan error, 1)
				go func() {
					buf := make([]byte, 64<<10)
					total := 0
					for total < len(payload) {
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
			if relay != nil {
				relayBytes = relay.RelayedBytes()
				relay.Close()
			}
			b.ReportMetric(float64(relayBytes)/float64(b.N), "relay-bytes/op")
		})
	}
}

// BenchmarkAblationGeoMatch measures the §V-C same-country-matching
// mitigation: leaked addresses visible to a US-controlled peer with
// and without geo matching.
func BenchmarkAblationGeoMatch(b *testing.B) {
	var before, after int
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunGeoMatchMitigation(int64(i))
		if err != nil {
			b.Fatal(err)
		}
		before, after = res[0].LeakedBefore, res[0].LeakedAfter
	}
	b.ReportMetric(float64(after)/float64(before), "leak-share-remaining")
}

// --- microbenchmarks of the hot primitives ---

// BenchmarkSegmentGeneration measures deterministic segment synthesis.
func BenchmarkSegmentGeneration(b *testing.B) {
	v := media.NewVOD("bench", 1000)
	b.SetBytes(3_000_000)
	for i := 0; i < b.N; i++ {
		if _, err := v.SegmentData("720p", i%1000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIMHash measures integrity-metadata computation on a 3MB
// segment (the Table VI workload).
func BenchmarkIMHash(b *testing.B) {
	v := media.NewVOD("bench", 4)
	data, _ := v.SegmentData("720p", 0)
	key := media.SegmentKey{Video: "bench", Rendition: "720p", Index: 0}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		media.IMHash(key, data)
	}
}

// BenchmarkSTUNCodec measures binding-message encode+decode.
func BenchmarkSTUNCodec(b *testing.B) {
	msg := stun.BindingRequest("user:pass", 12345)
	for i := 0; i < b.N; i++ {
		enc := msg.Encode()
		if _, err := stun.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDTLSTransfer measures secure-channel throughput for 1MB
// messages over an in-memory pair.
func BenchmarkDTLSTransfer(b *testing.B) {
	n := netsim.New(netsim.Config{})
	h1 := n.MustHost(mustAddr("10.0.0.1"))
	h2 := n.MustHost(mustAddr("10.0.0.2"))
	raw1, raw2 := netsim.Pair(h1, h2, mustAP("10.0.0.1:1"), mustAP("10.0.0.2:1"))
	id1, _ := dtls.NewIdentity()
	id2, _ := dtls.NewIdentity()
	done := make(chan *dtls.Conn, 1)
	go func() {
		c, err := dtls.Server(raw2, dtls.Config{Identity: id2})
		if err != nil {
			done <- nil
			return
		}
		done <- c
	}()
	client, err := dtls.Client(raw1, dtls.Config{Identity: id1})
	if err != nil {
		b.Fatal(err)
	}
	server := <-done
	if server == nil {
		b.Fatal("handshake failed")
	}
	payload := make([]byte, 1<<20)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		errc := make(chan error, 1)
		go func() {
			_, err := server.Recv()
			errc <- err
		}()
		if err := client.Send(payload); err != nil {
			b.Fatal(err)
		}
		if err := <-errc; err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJWTSignVerify measures the §V-A token round trip.
func BenchmarkJWTSignVerify(b *testing.B) {
	secret := []byte("bench-secret")
	tok := defense.ExampleToken()
	for i := 0; i < b.N; i++ {
		jwt, err := defense.SignJWT(tok, secret)
		if err != nil {
			b.Fatal(err)
		}
		var out defense.PDNToken
		if err := defense.VerifyJWT(jwt, secret, &out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHLSPlaylistParse measures media-playlist decoding for a
// 6-entry live window.
func BenchmarkHLSPlaylistParse(b *testing.B) {
	v := media.NewLive("bench", 6)
	doc := hls.Window(v, 100, 6).Encode()
	b.SetBytes(int64(len(doc)))
	for i := 0; i < b.N; i++ {
		if _, err := hls.ParseMediaPlaylist(doc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPopulationHarvest measures wild-harvest generation and
// classification for the Huya-scale population.
func BenchmarkPopulationHarvest(b *testing.B) {
	db := geoip.NewDB()
	model := population.HuyaLike()
	for i := 0; i < b.N; i++ {
		viewers, err := model.Generate(db, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		addrs := make([]netipAddr, 0, len(viewers))
		for _, v := range viewers {
			addrs = append(addrs, v.Addr)
		}
		population.Summarize("bench", addrs, db)
	}
}

// BenchmarkFullTestbedSession measures a complete two-peer PDN session
// (deploy, seed, leech, teardown) — the analyzer's unit of work.
func BenchmarkFullTestbedSession(b *testing.B) {
	for i := 0; i < b.N; i++ {
		video := analyzer.SmallVideo("bbb", 6, 32<<10)
		tb, err := pdnsec.NewTestbed(context.Background(), pdnsec.TestbedConfig{Profile: provider.Peer5(), Video: video})
		if err != nil {
			b.Fatal(err)
		}
		hostA, err := tb.NewViewerHost("US")
		if err != nil {
			b.Fatal(err)
		}
		_, stop, err := tb.Seeder(context.Background(), tb.ViewerConfig(hostA, 1), video.Segments)
		if err != nil {
			b.Fatal(err)
		}
		hostB, err := tb.NewViewerHost("GB")
		if err != nil {
			b.Fatal(err)
		}
		st, err := tb.RunViewer(context.Background(), tb.ViewerConfig(hostB, 2))
		if err != nil {
			b.Fatal(err)
		}
		if st.FromP2P == 0 {
			b.Fatal("no P2P traffic in benchmark session")
		}
		stop()
		tb.Close()
	}
}

// BenchmarkAblationDefenseCost compares the integrity-defense options
// under the same pollution attack: the CDN-hash-manifest plugin pays
// bytes per viewer session; peer-assisted IM pays arbitration fetches
// only under attack.
func BenchmarkAblationDefenseCost(b *testing.B) {
	ctx := benchCtx(b)
	var hashCost, imCost int64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunDefenseCost(ctx)
		if err != nil {
			b.Fatal(err)
		}
		hashCost = res.Rows[1].DefenseCDNBytes
		imCost = res.Rows[2].DefenseCDNBytes
	}
	b.ReportMetric(float64(hashCost), "hash-manifest-cdn-bytes")
	b.ReportMetric(float64(imCost), "peer-im-cdn-bytes")
}

// BenchmarkPollutionPropagation measures swarm-wide pollution spread
// from a single malicious seeder (metric: fraction of viewers that
// played poisoned content; the paper cites ~47% in the initial stage).
func BenchmarkPollutionPropagation(b *testing.B) {
	ctx := benchCtx(b)
	var fraction float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunPollutionPropagation(ctx, 8)
		if err != nil {
			b.Fatal(err)
		}
		fraction = res.AffectedFraction
	}
	b.ReportMetric(fraction, "affected-fraction")
}
