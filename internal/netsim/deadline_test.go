package netsim

import (
	"testing"
	"time"
)

// TestDeadlineRearmAllocBudget: moving a deadline that has not passed,
// as a viewer does with its CDN connection on every request, re-arms the
// timer the deadline already holds and allocates nothing.
func TestDeadlineRearmAllocBudget(t *testing.T) {
	ca, _ := dialPair(t, New(Config{}), "10.0.0.1", "10.0.0.2")
	defer ca.Close()
	if allocs := testing.AllocsPerRun(100, func() {
		ca.SetReadDeadline(time.Now().Add(time.Hour))
	}); allocs != 0 {
		t.Errorf("re-arming a future read deadline: %v allocs, want 0", allocs)
	}
}

// TestClosedConnHoldsNoTimer: closing either end of a stream disarms
// both deadlines of both sides, and closing a packet conn disarms both of
// its own, so a connection that is gone leaves no timer pending.
func TestClosedConnHoldsNoTimer(t *testing.T) {
	n := New(Config{})
	ca, cb := dialPair(t, n, "10.0.0.1", "10.0.0.2")
	pc, err := n.MustHost(mustAddr("10.0.0.3")).ListenPacket(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []interface{ SetDeadline(time.Time) error }{ca, cb, pc} {
		c.SetDeadline(time.Now().Add(time.Hour))
	}
	ca.Close()
	pc.Close()
	for name, d := range map[string]*deadline{
		"stream a read": &ca.readDL, "stream a write": &ca.writeDL,
		"stream b read": &cb.readDL, "stream b write": &cb.writeDL,
		"packet read": &pc.readDL, "packet write": &pc.writeDL,
	} {
		// Stop reports whether it stopped a pending timer.
		if d.timer != nil && d.timer.Stop() {
			t.Errorf("%s deadline still armed after Close", name)
		}
	}
}

// TestDeadlineRearm walks a deadline through the transitions set must
// keep apart: a timer re-armed in place, one stopped before it fired,
// one that fired, and a deadline set in the past.
func TestDeadlineRearm(t *testing.T) {
	const soon = 10 * time.Millisecond
	passed := func(d *deadline) bool { return isClosedChan(d.wait()) }
	fires := func(t *testing.T, d *deadline) {
		t.Helper()
		select {
		case <-d.wait():
		case <-time.After(5 * time.Second):
			t.Fatal("deadline never passed")
		}
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, d *deadline)
	}{
		{"moved sooner", func(t *testing.T, d *deadline) {
			d.set(time.Now().Add(time.Hour))
			d.set(time.Now().Add(soon))
			fires(t, d)
		}},
		{"moved later", func(t *testing.T, d *deadline) {
			d.set(time.Now().Add(soon))
			d.set(time.Now().Add(time.Hour))
			time.Sleep(3 * soon)
			if passed(d) {
				t.Fatal("deadline moved an hour out passed at its old time")
			}
		}},
		{"cleared then re-armed", func(t *testing.T, d *deadline) {
			d.set(time.Now().Add(soon))
			d.set(time.Time{})
			time.Sleep(3 * soon)
			if passed(d) {
				t.Fatal("cleared deadline passed")
			}
			d.set(time.Now().Add(soon))
			fires(t, d)
		}},
		{"fired then re-armed", func(t *testing.T, d *deadline) {
			d.set(time.Now().Add(soon))
			fires(t, d)
			d.set(time.Now().Add(time.Hour))
			if passed(d) {
				t.Fatal("deadline an hour out reads as passed")
			}
			d.set(time.Now().Add(soon))
			fires(t, d)
		}},
		{"past then future", func(t *testing.T, d *deadline) {
			d.set(time.Now().Add(time.Hour))
			d.set(time.Now().Add(-time.Second))
			if !passed(d) {
				t.Fatal("deadline in the past has not passed")
			}
			d.set(time.Now().Add(soon))
			if passed(d) {
				t.Fatal("future deadline reads as passed")
			}
			fires(t, d)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := makeDeadline()
			tc.run(t, &d)
			d.stop()
		})
	}
}
