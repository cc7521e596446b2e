package bench

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/obs"
	"github.com/stealthy-peers/pdnsec/internal/swarmload"
)

// TestSignalSetupBoundary pins what RunSignal reads out of swarmload's
// log: the rampMarker line is the first one logged (so nothing but the
// deployment precedes it) and the only one carrying the word (so no
// other line can move the setup_s / run_s boundary). If swarmload
// rewords its progress lines this fails here, not in a benchmark run.
func TestSignalSetupBoundary(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var mu sync.Mutex
	var formats []string
	_, err := swarmload.Run(ctx, swarmload.Config{
		Swarms: 1, PeersPerSwarm: 40, Seed: 1, Shards: 2, Servers: 1, Sample: 41,
		Churn: 0.2, Rounds: 1, FullViewers: -1, Workers: viewerSlots,
		MatchP99Max: time.Minute, Obs: obs.NewRegistry(),
		Logf: func(format string, _ ...any) {
			mu.Lock()
			formats = append(formats, format)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(formats) == 0 || !strings.Contains(formats[0], rampMarker) {
		t.Fatalf("swarmload's first log line is not its %q line: %q", rampMarker, formats)
	}
	for _, f := range formats[1:] {
		if strings.Contains(f, rampMarker) {
			t.Errorf("a later swarmload log line also says %q: %q", rampMarker, f)
		}
	}
}
