package pdnsec_test

import (
	"context"
	"strings"
	"testing"

	"github.com/stealthy-peers/pdnsec"
	"github.com/stealthy-peers/pdnsec/internal/obs"
)

// TestTelemetryDoesNotChangeResults is the observability determinism
// gate: running the detection scan with a tracer on its context must
// produce byte-identical Tables I-IV to a bare run. The tracer reads
// clocks, but only for its own timestamps — never to steer the scan.
func TestTelemetryDoesNotChangeResults(t *testing.T) {
	ctx := context.Background()
	const seed, sites, apps = 7, 40, 25

	render := func(d *pdnsec.Detection) string {
		var sb strings.Builder
		sb.WriteString(d.RenderTableI())
		sb.WriteString(d.RenderTableII())
		sb.WriteString(d.RenderTableIII())
		sb.WriteString(d.RenderTableIV())
		sb.WriteString(d.RenderResourceSquattingWild())
		return sb.String()
	}

	bare, err := pdnsec.DetectCustomers(ctx, seed, sites, apps)
	if err != nil {
		t.Fatal(err)
	}

	tracer := obs.NewTracer(nil)
	instrumented, err := pdnsec.DetectCustomers(obs.WithTracer(ctx, tracer), seed, sites, apps)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := render(instrumented), render(bare); got != want {
		t.Fatalf("telemetry changed the report:\n--- bare ---\n%s\n--- instrumented ---\n%s", want, got)
	}
	if tracer.Len() == 0 {
		t.Fatal("tracer recorded no events during an instrumented scan")
	}
}
