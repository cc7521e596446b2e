package netsim

import (
	"sync"
	"time"
)

// deadline is a cancellable timer gating blocking I/O, modelled on the
// net package's internal pipeDeadline. Unlike pipeDeadline it keeps its
// timer: moving a deadline that has not passed re-arms the same timer,
// so a connection that sets a deadline per request allocates nothing.
type deadline struct {
	mu sync.Mutex
	// timer closes cancel when it fires. It is nil until the first
	// future deadline, and again once cancel has been remade: its
	// callback closes the channel it was made with.
	timer *time.Timer
	// armed says timer is pending or has fired, so a failed Stop means
	// its callback closes cancel. Stop also fails on a timer that set
	// stopped itself, whose cancel nobody will close.
	armed  bool
	cancel chan struct{} // closed when the deadline passes
}

func makeDeadline() deadline {
	return deadline{cancel: make(chan struct{})}
}

// set arms the deadline at t; the zero time disarms it.
func (d *deadline) set(t time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()

	if d.armed && !d.timer.Stop() {
		//lint:ignore pdnlint/mutexspan the AfterFunc callback only closes cancel and never takes d.mu, so this receive is prompt (stdlib pipeDeadline pattern)
		<-d.cancel // wait for the timer callback to finish and close cancel
	}
	d.armed = false

	var dur time.Duration
	if !t.IsZero() {
		//lint:ignore pdnlint/detrand deadlines are absolute wall times armed via time.AfterFunc, which runs on the wall clock; an injected clock cannot drive it
		if dur = time.Until(t); dur <= 0 {
			if !isClosedChan(d.cancel) {
				close(d.cancel)
			}
			return
		}
	}

	// A zero or future deadline needs an open channel. A passed one is
	// remade, and the timer goes with it: its callback would close the
	// old channel.
	if isClosedChan(d.cancel) {
		d.cancel = make(chan struct{})
		d.timer = nil
	}
	if t.IsZero() {
		return
	}
	if d.timer == nil {
		cancel := d.cancel
		d.timer = time.AfterFunc(dur, func() { close(cancel) })
	} else {
		d.timer.Reset(dur)
	}
	d.armed = true
}

// stop disarms a pending timer and leaves the deadline as it stands, so
// a closed connection holds no timer.
func (d *deadline) stop() {
	d.mu.Lock()
	defer d.mu.Unlock()
	// A timer that has already fired stays armed: set waits for its
	// callback to close cancel.
	if d.armed && d.timer.Stop() {
		d.armed = false
	}
}

// wait returns a channel closed when the deadline passes.
func (d *deadline) wait() chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cancel
}

func isClosedChan(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}
