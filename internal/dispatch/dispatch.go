// Package dispatch is the scan-orchestration engine behind the
// detector's corpus sweeps: a context-aware worker pool over a slice of
// jobs, with checkpoint/resume of partial scan state and metrics
// (queued / in-flight / done / failed counters plus p50/p99 job
// latency).
//
// The engine is deliberately workload-agnostic — a Job carries an
// arbitrary closure and a typed result. Results come back positionally
// (results[i] belongs to jobs[i]) regardless of worker scheduling, which
// is what lets the detector's parallel pipeline reduce them in corpus
// order and emit byte-identical tables at any worker count.
package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/obs"
)

// Job is one schedulable unit of work producing an R.
type Job[R any] struct {
	// Key is the job's stable identity, used for checkpoint lookup. It
	// must be unique within a Run.
	Key string
	// Do performs the work. It must honor ctx cancellation.
	Do func(ctx context.Context) (R, error)
}

// Config parameterizes an Engine.
type Config struct {
	// Workers is the worker-pool size. <=0 → GOMAXPROCS.
	Workers int
	// Checkpoint, when set, records completed jobs and satisfies
	// already-recorded ones without re-executing. Results must
	// round-trip through encoding/json.
	Checkpoint *Checkpoint
	// Metrics, when set, is used instead of a fresh collector —
	// sharing one aggregates multiple engines into a single report.
	Metrics *Metrics
	// Tracer, when set, records the run and each job as spans. Nil
	// disables tracing at the cost of one branch per operation.
	Tracer *obs.Tracer
}

// Engine runs batches of jobs over its worker pool.
type Engine[R any] struct {
	cfg     Config
	metrics *Metrics
}

// New builds an engine from cfg.
func New[R any](cfg Config) *Engine[R] {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine[R]{cfg: cfg, metrics: cfg.Metrics}
	if e.metrics == nil {
		e.metrics = NewMetrics()
	}
	return e
}

// Metrics exposes the engine's collector (shared or internal).
func (e *Engine[R]) Metrics() *Metrics { return e.metrics }

// Run executes jobs and returns their results positionally:
// results[i] is jobs[i]'s output no matter which worker ran it or
// when. Jobs already present in the checkpoint are loaded, not re-run;
// every other job runs once, on whichever worker takes it next. On
// context cancellation workers stop taking jobs and Run returns the
// context's error; otherwise it returns the join of all per-job
// failures (nil if none). Partial results are always returned — failed
// and unstarted slots hold R's zero value.
func (e *Engine[R]) Run(ctx context.Context, jobs []Job[R]) ([]R, error) {
	run := e.cfg.Tracer.Begin("dispatch_run", obs.A("jobs", len(jobs)), obs.A("workers", e.cfg.Workers))
	results := make([]R, len(jobs))
	errs := make([]error, len(jobs))

	todo := make([]int, 0, len(jobs))
	for i, job := range jobs {
		if e.resume(job.Key, &results[i]) {
			e.metrics.resumed.Add(1)
			continue
		}
		todo = append(todo, i)
	}
	e.metrics.queued.Add(int64(len(todo)))

	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(e.cfg.Workers, len(todo)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				n := int(next.Add(1)) - 1
				if n >= len(todo) {
					return
				}
				i := todo[n]
				errs[i] = e.execute(ctx, jobs[i], &results[i])
			}
		}()
	}
	wg.Wait()

	snap := e.metrics.Snapshot()
	run.End(obs.A("done", snap.Done), obs.A("failed", snap.Failed), obs.A("resumed", snap.Resumed))
	if err := ctx.Err(); err != nil {
		return results, err
	}
	return results, errors.Join(errs...)
}

// resume fills *out from the checkpoint and reports whether key was
// recorded there. An entry that no longer decodes is re-run.
func (e *Engine[R]) resume(key string, out *R) bool {
	if e.cfg.Checkpoint == nil {
		return false
	}
	raw, ok := e.cfg.Checkpoint.lookup(key)
	return ok && json.Unmarshal(raw, out) == nil
}

// execute runs one job, writing its result into the slot private to it
// (index-disjoint with every other job, so no locking is needed), and
// returns the job's failure, if any.
func (e *Engine[R]) execute(ctx context.Context, job Job[R], out *R) error {
	start := time.Now()
	e.metrics.jobStart(start.UnixNano())
	span := e.cfg.Tracer.Begin("dispatch_job", obs.A("key", job.Key))
	r, err := job.Do(ctx)
	ok := err == nil
	if ok {
		*out = r
		if e.cfg.Checkpoint != nil {
			// The work itself succeeded — keep the result and report
			// the lost resumability through Run's error.
			err = e.cfg.Checkpoint.record(job.Key, r)
		}
	} else {
		err = fmt.Errorf("dispatch: job %q: %w", job.Key, err)
	}
	end := time.Now()
	e.metrics.jobEnd(end.Sub(start), ok, end.UnixNano())
	span.End(obs.A("ok", ok))
	return err
}
