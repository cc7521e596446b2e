package bench

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/analyzer"
	"github.com/stealthy-peers/pdnsec/internal/media"
	"github.com/stealthy-peers/pdnsec/internal/obs"
	"github.com/stealthy-peers/pdnsec/internal/pdnclient"
	"github.com/stealthy-peers/pdnsec/internal/provider"
)

// viewerCountry hosts every peer of a viewer workload: the hardened and
// secure profiles match same-country peers only, and the workloads
// measure the transport, not the matcher's geography.
const viewerCountry = "US"

// sliceLen is the grain of the rate metrics: goodput and CPU cost are
// read per slice of the window and reported as the median slice, so a
// burst of interference from the shared machine moves one sample, not
// the result.
const sliceLen = 500 * time.Millisecond

// Instruments turns a repetition into the traced one: every component
// registers its counters in Obs and records spans into Traces, and every
// played byte is compared with the ground truth. A nil *Instruments is
// the timed form (Obs, Tracer and Traces all nil; header and length
// checked only).
type Instruments struct {
	Obs    *obs.Registry
	Traces *obs.TraceSet
}

// ViewerRun is the raw outcome of one viewer repetition. Sample slices
// are sorted ascending; latencies are in milliseconds.
type ViewerRun struct {
	SetupS  float64
	WindowS float64 // measured interval: start of the loop to the deadline (or to the last Run returning, if earlier)

	// Counted inside the measured interval.
	Segments     int // segments played
	PayloadBytes int64
	Mallocs      uint64
	AllocBytes   uint64
	SliceMBps    []float64 // 1e6 payload bytes played per second, per slice
	SliceCPUPerG []float64 // process CPU seconds per 1e9 payload bytes, per slice that played any

	// Over every session the repetition started.
	Attempted int // segments the started sessions set out to play
	Failed    int // segments not played + viewers errored + verify mismatches
	P2PDown   int64
	CDNBytes  int64

	StartupMs  []float64 // Run start → first OnSegment
	P2PReadyMs []float64 // fetch time of segment index SlowStartSegments
	SegMs      []float64 // interval between consecutive OnSegment calls, pooled
	SessionMs  []float64 // Run start → Run returns
	TeardownMs []float64 // last OnSegment → Run returns
	// SessionRate holds, per session, the rate the closed loop would
	// sustain if every cycle were like this one: viewerSlots divided by
	// the time from this Run start to the same slot's next, in 1/s.
	SessionRate []float64
}

// session is one viewer's record; only its own playback goroutine
// writes it until Run returns.
type session struct {
	slot       int
	start, end time.Time
	stamps     []time.Time // OnSegment call times, in play order
	bad        int         // segments whose bytes failed the check
	stats      pdnclient.Stats
	err        error
}

// procSnapshot reads the process-wide allocation and CPU counters.
type procSnapshot struct {
	at         time.Time
	mallocs    uint64
	allocBytes uint64
	cpu        time.Duration
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func snapshotProc() procSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnapshot{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, cpu: cpuTime(), at: time.Now()}
}

// benchVideo builds the asset: one rendition per swarm, all the same
// size, with the declared bandwidth consistent with the segment size as
// in analyzer.SmallVideo.
func benchVideo(swarms, segs, segBytes int) *media.Video {
	v := &media.Video{ID: "bench", Segments: segs, SegmentDuration: 10}
	for i := 0; i < swarms; i++ {
		v.Renditions = append(v.Renditions, media.Rendition{
			Name: fmt.Sprintf("360p-%d", i), Bandwidth: segBytes * 8 / 10, SegmentBytes: segBytes,
		})
	}
	return v
}

// RunViewers executes one repetition of a viewer workload: deploy a
// fresh testbed and warm it (SetupS), then keep viewerSlots sessions in
// flight until the window closes or MaxSessions have started.
//
// Each slot watches its own rendition, so each is its own swarm with its
// own seeders: a viewer's neighbours are exactly its swarm's seeders,
// whatever the other slot is doing. In one shared swarm the two viewers
// race to connect to each other, and how many sequential 50 ms ICE
// checks a session pays becomes a coin toss (README, "Known ceilings").
func RunViewers(ctx context.Context, w Workload, size Size, seed int64, ins *Instruments) (*ViewerRun, error) {
	if w.Signal != nil || w.Profile == nil {
		return nil, fmt.Errorf("bench: %s is not a viewer workload", w.Name)
	}
	if size.Window <= 0 && size.MaxSessions <= 0 {
		return nil, fmt.Errorf("bench: %s needs a window or a session cap", w.Name)
	}
	segs := w.Segments
	if size.Segments > 0 {
		segs = size.Segments
	}
	swarms := viewerSlots
	if w.DisableP2P {
		swarms = 1 // no swarm at all: one rendition keeps the CDN's edge cache warm for every viewer
	}

	setupStart := time.Now()
	prof := w.Profile()
	if w.LiftUploadCap {
		prof.Policy.MaxUploadBytes = 0
	}
	video := benchVideo(swarms, segs, w.SegBytes)
	cfg := analyzer.TestbedConfig{
		Profile: prof,
		Video:   video,
		Options: provider.Options{Seed: seed},
	}
	if ins != nil {
		cfg.Obs, cfg.Traces = ins.Obs, ins.Traces
	}
	tb, err := analyzer.NewTestbed(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: deploy: %w", w.Name, err)
	}
	defer tb.Close()

	viewerConfig := func(n int64, swarm int) (pdnclient.Config, error) {
		host, err := tb.NewViewerHost(viewerCountry)
		if err != nil {
			return pdnclient.Config{}, err
		}
		vc := tb.ViewerConfig(host, seed*100_000+n)
		vc.Rendition = video.Renditions[swarm%swarms].Name
		vc.MaxSegments = segs
		vc.DisableP2P = w.DisableP2P
		return vc, nil
	}

	// Warm-up, one goroutine per swarm: seeders play the whole rendition
	// and linger with all of it cached; a workload without seeders sends
	// a throwaway viewer so the CDN's edge cache holds every segment
	// before timing starts.
	var (
		warmMu      sync.Mutex
		stopSeeders []func() pdnclient.Stats
		seeders     []*pdnclient.Peer
		warmErr     error
		warm        sync.WaitGroup
	)
	stopAll := func() []pdnclient.Stats {
		out := make([]pdnclient.Stats, len(stopSeeders))
		for i, stop := range stopSeeders {
			out[i] = stop()
		}
		stopSeeders = nil
		return out
	}
	defer stopAll()
	for swarm := 0; swarm < swarms; swarm++ {
		warm.Add(1)
		go func(swarm int) {
			defer warm.Done()
			err := func() error {
				for k := 0; k < w.Seeders; k++ {
					vc, err := viewerConfig(90_000+int64(swarm*w.Seeders+k), swarm)
					if err != nil {
						return err
					}
					vc.CacheSegments = segs
					p, stop, err := tb.Seeder(ctx, vc, segs)
					if err != nil {
						return err
					}
					warmMu.Lock()
					seeders = append(seeders, p)
					stopSeeders = append(stopSeeders, stop)
					warmMu.Unlock()
				}
				if w.Seeders == 0 {
					vc, err := viewerConfig(90_000+int64(swarm), swarm)
					if err != nil {
						return err
					}
					st, err := tb.RunViewer(ctx, vc)
					if err != nil {
						return err
					}
					if st.SegmentsPlayed != segs {
						return fmt.Errorf("warm-up viewer played %d/%d", st.SegmentsPlayed, segs)
					}
				}
				return nil
			}()
			if err != nil {
				warmMu.Lock()
				warmErr = err
				warmMu.Unlock()
			}
		}(swarm)
	}
	warm.Wait()
	if warmErr != nil {
		return nil, fmt.Errorf("bench: %s: warm-up: %w", w.Name, warmErr)
	}
	// The traced repetition compares every played byte with the ground
	// truth. media.Video.Verify regenerates the segment on each call
	// (~4x a P2P fetch); generating once here keeps the same comparison
	// while leaving the window's slowdown to tracing alone.
	var truth map[string][][]byte
	if ins != nil {
		truth = make(map[string][][]byte)
		for _, r := range video.Renditions {
			for i := 0; i < segs; i++ {
				data, err := video.SegmentData(r.Name, i)
				if err != nil {
					return nil, fmt.Errorf("bench: %s: ground truth: %w", w.Name, err)
				}
				truth[r.Name] = append(truth[r.Name], data)
			}
		}
	}
	runtime.GC() // set-up garbage is not the window's to collect
	run := &ViewerRun{SetupS: time.Since(setupStart).Seconds()}

	// The closed loop.
	var (
		mu       sync.Mutex
		sessions []*session
		wg       sync.WaitGroup
		loopErr  error
	)
	begin := snapshotProc()
	deadline := begin.at.Add(size.Window)
	next := func(slot int) (*session, int64, bool) {
		mu.Lock()
		defer mu.Unlock()
		if loopErr != nil || ctx.Err() != nil {
			return nil, 0, false
		}
		if size.MaxSessions > 0 && len(sessions) >= size.MaxSessions {
			return nil, 0, false
		}
		if size.Window > 0 && !time.Now().Before(deadline) {
			return nil, 0, false
		}
		s := &session{slot: slot, stamps: make([]time.Time, 0, segs)}
		sessions = append(sessions, s)
		return s, int64(len(sessions)), true
	}
	for slot := 0; slot < viewerSlots; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for {
				s, n, ok := next(slot)
				if !ok {
					return
				}
				vc, err := viewerConfig(n, slot)
				if err == nil {
					vc.OnSegment = func(key media.SegmentKey, data []byte, _ string) {
						s.stamps = append(s.stamps, time.Now())
						if !segmentOK(key, data, vc.Video, vc.Rendition, w.SegBytes, truth) {
							s.bad++
						}
					}
					var p *pdnclient.Peer
					if p, err = pdnclient.New(vc); err == nil {
						s.start = time.Now()
						s.stats, s.err = p.Run(ctx)
						s.end = time.Now()
						continue
					}
				}
				mu.Lock()
				loopErr = err
				mu.Unlock()
				return
			}
		}(slot)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Sample the CPU clock at every slice boundary until the interval
	// ends: at the deadline, or when the last session returns if sooner.
	type cpuSample struct {
		at  time.Time
		cpu time.Duration
	}
	samples := []cpuSample{{begin.at, begin.cpu}}
	var deadlineC <-chan time.Time
	if size.Window > 0 {
		timer := time.NewTimer(time.Until(deadline))
		defer timer.Stop()
		deadlineC = timer.C
	}
	tick := time.NewTicker(sliceLen)
	for measuring := true; measuring; {
		select {
		case <-tick.C:
			samples = append(samples, cpuSample{time.Now(), cpuTime()})
		case <-deadlineC:
			measuring = false
		case <-done:
			measuring = false
		}
	}
	tick.Stop()
	end := snapshotProc()
	if n := len(samples); n > 1 && end.at.Sub(samples[n-1].at) < sliceLen/2 {
		samples[n-1] = cpuSample{end.at, end.cpu} // fold a sliver into the slice before it
	} else {
		samples = append(samples, cpuSample{end.at, end.cpu})
	}
	<-done
	if loopErr != nil {
		return nil, fmt.Errorf("bench: %s: start viewer: %w", w.Name, loopErr)
	}
	// Let the seeders notice the last viewers leaving before stopping
	// them: a seeder torn down while its read loop is evicting the same
	// neighbour closes that neighbour twice and panics (README, "Known
	// ceilings").
	for quiet := time.Now().Add(2 * time.Second); time.Now().Before(quiet); time.Sleep(time.Millisecond) {
		busy := 0
		for _, p := range seeders {
			busy += p.NeighborCount()
		}
		if busy == 0 {
			break
		}
	}
	seederStats := stopAll()

	run.WindowS = end.at.Sub(begin.at).Seconds()
	run.Mallocs = end.mallocs - begin.mallocs
	run.AllocBytes = end.allocBytes - begin.allocBytes
	slowStart := prof.Policy.SlowStartSegments
	var played []time.Time // every stamp inside the interval
	var prev [viewerSlots]*session
	for _, s := range sessions {
		if p := prev[s.slot]; p != nil {
			run.SessionRate = append(run.SessionRate, viewerSlots/s.start.Sub(p.start).Seconds())
		}
		prev[s.slot] = s
		run.Attempted += segs
		missing := segs - s.stats.SegmentsPlayed
		if missing < 0 {
			missing = 0
		}
		run.Failed += missing + s.bad
		if s.err != nil {
			run.Failed++
		}
		run.P2PDown += s.stats.P2PDownBytes
		run.CDNBytes += s.stats.CDNBytes
		for i, at := range s.stamps {
			if !at.After(end.at) {
				played = append(played, at)
			}
			if i > 0 {
				run.SegMs = append(run.SegMs, ms(at.Sub(s.stamps[i-1])))
			}
		}
		if len(s.stamps) == 0 {
			continue
		}
		run.StartupMs = append(run.StartupMs, ms(s.stamps[0].Sub(s.start)))
		if slowStart > 0 && slowStart < len(s.stamps) {
			run.P2PReadyMs = append(run.P2PReadyMs, ms(s.stamps[slowStart].Sub(s.stamps[slowStart-1])))
		}
		run.SessionMs = append(run.SessionMs, ms(s.end.Sub(s.start)))
		run.TeardownMs = append(run.TeardownMs, ms(s.end.Sub(s.stamps[len(s.stamps)-1])))
	}
	run.Segments = len(played)
	run.PayloadBytes = int64(len(played)) * int64(w.SegBytes)
	sort.Slice(played, func(i, j int) bool { return played[i].Before(played[j]) })
	for i, k := 1, 0; i < len(samples); i++ {
		n := 0
		for ; k < len(played) && !played[k].After(samples[i].at); k++ {
			n++
		}
		payload := float64(n) * float64(w.SegBytes)
		run.SliceMBps = append(run.SliceMBps, payload/1e6/samples[i].at.Sub(samples[i-1].at).Seconds())
		if n > 0 {
			run.SliceCPUPerG = append(run.SliceCPUPerG, (samples[i].cpu-samples[i-1].cpu).Seconds()/(payload/1e9))
		}
	}
	for _, xs := range [][]float64{run.SliceMBps, run.SliceCPUPerG, run.StartupMs, run.P2PReadyMs, run.SegMs, run.SessionMs, run.TeardownMs, run.SessionRate} {
		sort.Float64s(xs)
	}

	// Sizing guards: a violated guard is a harness error, not a slow
	// result — the run no longer measures what its name says.
	if limit := prof.Policy.MaxUploadBytes; limit > 0 {
		peers := seederStats
		for _, s := range sessions {
			peers = append(peers, s.stats)
		}
		for _, st := range peers {
			if st.P2PUpBytes*10 >= limit*9 {
				return nil, fmt.Errorf("bench: %s: a peer uploaded %d bytes, within 10%% of the %d-byte session cap: the run is turning into CDN fallback", w.Name, st.P2PUpBytes, limit)
			}
		}
	}
	// The offload guard is sized for the workload's own session length: a
	// shortened session is mostly slow start.
	if off := run.OffloadRatio(); w.MinOffload > 0 && size.Segments == 0 && off < w.MinOffload {
		return nil, fmt.Errorf("bench: %s: cdn_offload_ratio %.3f below the %.2f sizing guard", w.Name, off, w.MinOffload)
	}
	return run, nil
}

// OffloadRatio is P2PDownBytes/(P2PDownBytes+CDNBytes) over the timed
// viewers (seeders excluded).
func (r *ViewerRun) OffloadRatio() float64 {
	if total := r.P2PDown + r.CDNBytes; total > 0 {
		return float64(r.P2PDown) / float64(total)
	}
	return 0
}

// segmentOK checks a played segment against the stream the viewer asked
// for: every byte when the ground truth is at hand, its self-describing
// header and length otherwise.
func segmentOK(key media.SegmentKey, data []byte, video, rendition string, segBytes int, truth map[string][][]byte) bool {
	if key.Video != video || key.Rendition != rendition {
		return false
	}
	if truth != nil {
		want := truth[rendition]
		return key.Index >= 0 && key.Index < len(want) && bytes.Equal(want[key.Index], data)
	}
	id, rend, idx, ok := media.ParseHeader(data)
	return ok && id == video && rend == rendition && idx == key.Index && len(data) == segBytes
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
