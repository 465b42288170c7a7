// Package clock abstracts time for the SOS stack. Every time-driven part
// of a node reads and schedules on one injected Clock. Live deployments
// use the system clock; the simulator and virtual-clock tests use
// Virtual, which is also the simulation's only event queue. That is what
// makes runs deterministic and replicable.
package clock

import (
	"sync"
	"time"
)

// Clock supplies the current time and runs callbacks on it.
type Clock interface {
	Now() time.Time
	// AfterFunc calls f once d has elapsed on this clock.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is a pending AfterFunc callback. Stop reports whether it
// stopped the callback: false once it has fired or was already stopped.
type Timer interface {
	Stop() bool
}

// System returns a Clock backed by the time package.
func System() Clock { return systemClock{} }

type systemClock struct{}

func (systemClock) Now() time.Time { return time.Now() }

func (systemClock) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

// Virtual is a manually advanced clock and the discrete-event queue of
// everything scheduled on it. Set and Advance fire each callback due on
// the way on the calling goroutine, in (time, scheduling order) order,
// with Now reading the callback's due time and the lock released, so a
// callback may schedule more, even at the current instant. AfterFunc and
// Schedule are safe from any goroutine; one goroutine advances the
// clock. The zero value starts at the zero time.
type Virtual struct {
	mu    sync.RWMutex
	t     time.Time
	seq   uint64
	queue []event // binary min-heap on (at, seq), held by value
}

// event is one queued callback: fn for Schedule, timer for AfterFunc.
type event struct {
	at    time.Time
	seq   uint64
	fn    func()
	timer *virtualTimer
}

func (e *event) before(o *event) bool {
	return e.at.Before(o.at) || e.at.Equal(o.at) && e.seq < o.seq
}

// virtualTimer is AfterFunc's handle; f is nil once fired or stopped.
// Both transitions hold v.mu.
type virtualTimer struct {
	v *Virtual
	f func()
}

func (t *virtualTimer) Stop() bool {
	t.v.mu.Lock()
	defer t.v.mu.Unlock()
	stopped := t.f != nil
	t.f = nil
	return stopped
}

// NewVirtual creates a virtual clock set to start.
func NewVirtual(start time.Time) *Virtual {
	return &Virtual{t: start}
}

// Now returns the current virtual time.
func (v *Virtual) Now() time.Time {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.t
}

// AfterFunc implements Clock.
func (v *Virtual) AfterFunc(d time.Duration, f func()) Timer {
	t := &virtualTimer{v: v, f: f}
	v.mu.Lock()
	v.pushLocked(event{at: v.t.Add(d), timer: t})
	v.mu.Unlock()
	return t
}

// Schedule queues f for time at (now, if at has passed). It returns no
// handle and allocates nothing beyond the queue's amortized growth, so
// the simulated medium can schedule every frame through it.
func (v *Virtual) Schedule(at time.Time, f func()) {
	v.mu.Lock()
	v.pushLocked(event{at: at, fn: f})
	v.mu.Unlock()
}

// Set moves the clock to t, firing every callback due on the way. A t
// before Now fires nothing and leaves the clock where it is: the world
// never rewinds.
func (v *Virtual) Set(t time.Time) {
	v.mu.Lock()
	for len(v.queue) > 0 && !v.queue[0].at.After(t) {
		e := v.popLocked()
		v.t = e.at
		fn := e.fn
		if e.timer != nil {
			fn, e.timer.f = e.timer.f, nil
		}
		if fn != nil {
			v.mu.Unlock()
			fn()
			v.mu.Lock()
		}
	}
	if t.After(v.t) {
		v.t = t
	}
	v.mu.Unlock()
}

// Advance moves the clock forward by d, firing every callback due on the
// way, and returns the new time.
func (v *Virtual) Advance(d time.Duration) time.Time {
	v.Set(v.Now().Add(d))
	return v.Now()
}

func (v *Virtual) pushLocked(e event) {
	if e.at.Before(v.t) {
		e.at = v.t
	}
	v.seq++
	e.seq = v.seq
	v.queue = append(v.queue, e)
	q := v.queue
	for i := len(q) - 1; i > 0 && q[i].before(&q[(i-1)/2]); i = (i - 1) / 2 {
		q[i], q[(i-1)/2] = q[(i-1)/2], q[i]
	}
}

func (v *Virtual) popLocked() event {
	q := v.queue
	top, n := q[0], len(q)-1
	q[0], q[n] = q[n], event{} // the zeroed slot releases its callback
	q = q[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m+1 < n && q[m+1].before(&q[m]) {
			m++
		}
		if m >= n || !q[m].before(&q[i]) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	v.queue = q
	return top
}
