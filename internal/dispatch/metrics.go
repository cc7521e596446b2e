package dispatch

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/obs"
)

// Metrics collects a dispatch run's counters and job-latency
// distribution (an obs.Histogram — the log-scale layout that used to
// live here, now shared repo-wide). All methods are safe for concurrent
// use; a single Metrics may be shared across engines to aggregate
// phases of one logical scan (the detector shares one across its site
// and app passes).
type Metrics struct {
	queued   atomic.Int64
	resumed  atomic.Int64
	inflight atomic.Int64
	done     atomic.Int64
	failed   atomic.Int64

	lat *obs.Histogram

	// startNS/endNS bracket the observed run for throughput: first
	// job start to latest job end, wall-clock UnixNano.
	startNS atomic.Int64
	endNS   atomic.Int64
}

// NewMetrics returns an empty collector.
func NewMetrics() *Metrics { return &Metrics{lat: obs.NewHistogram()} }

// Snapshot is a point-in-time view of a run's progress.
type Snapshot struct {
	Queued     int64 // jobs handed to the pool (not in the checkpoint)
	Resumed    int64 // jobs satisfied from the checkpoint
	InFlight   int64 // jobs currently executing
	Done       int64 // jobs completed successfully
	Failed     int64 // jobs whose Do returned an error
	P50        time.Duration
	P90        time.Duration
	P99        time.Duration
	Max        time.Duration // exact worst-case job latency
	Throughput float64       // settled jobs per second of observed run time
}

// String renders the snapshot as a one-line progress report.
func (s Snapshot) String() string {
	return fmt.Sprintf("queued=%d resumed=%d inflight=%d done=%d failed=%d p50=%v p90=%v p99=%v max=%v jobs/s=%.1f",
		s.Queued, s.Resumed, s.InFlight, s.Done, s.Failed, s.P50, s.P90, s.P99, s.Max, s.Throughput)
}

// Snapshot captures the current counters, latency quantiles, and
// throughput.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Queued:   m.queued.Load(),
		Resumed:  m.resumed.Load(),
		InFlight: m.inflight.Load(),
		Done:     m.done.Load(),
		Failed:   m.failed.Load(),
		P50:      m.Quantile(0.50),
		P90:      m.Quantile(0.90),
		P99:      m.Quantile(0.99),
		Max:      time.Duration(m.lat.Max()),
	}
	if start, end := m.startNS.Load(), m.endNS.Load(); start != 0 && end > start {
		s.Throughput = float64(s.Done+s.Failed) / (float64(end-start) / float64(time.Second))
	}
	return s
}

// Quantile returns the q-th job-latency quantile (0 < q <= 1) from the
// log-scale histogram; zero when nothing has completed.
func (m *Metrics) Quantile(q float64) time.Duration {
	return time.Duration(m.lat.Quantile(q))
}

// Latency exposes the underlying histogram so callers can register it
// in an obs.Registry without double-recording.
func (m *Metrics) Latency() *obs.Histogram { return m.lat }

func (m *Metrics) jobStart(nowNS int64) {
	m.inflight.Add(1)
	m.startNS.CompareAndSwap(0, nowNS)
}

func (m *Metrics) jobEnd(d time.Duration, ok bool, nowNS int64) {
	m.inflight.Add(-1)
	if ok {
		m.done.Add(1)
	} else {
		m.failed.Add(1)
	}
	m.lat.Observe(d.Nanoseconds())
	for {
		cur := m.endNS.Load()
		if nowNS <= cur || m.endNS.CompareAndSwap(cur, nowNS) {
			return
		}
	}
}
