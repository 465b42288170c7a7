package clock

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSystemClock(t *testing.T) {
	before := time.Now()
	got := System().Now()
	after := time.Now()
	if got.Before(before) || got.After(after) {
		t.Errorf("System().Now() = %v outside [%v, %v]", got, before, after)
	}
}

func TestVirtualSetAndAdvance(t *testing.T) {
	start := time.Date(2017, 4, 3, 0, 0, 0, 0, time.UTC)
	v := NewVirtual(start)
	if !v.Now().Equal(start) {
		t.Errorf("Now = %v, want %v", v.Now(), start)
	}
	v.Set(start.Add(time.Hour))
	if !v.Now().Equal(start.Add(time.Hour)) {
		t.Errorf("after Set: %v", v.Now())
	}
	got := v.Advance(30 * time.Minute)
	if !got.Equal(start.Add(90 * time.Minute)) {
		t.Errorf("Advance returned %v", got)
	}
}

func TestVirtualNeverRewinds(t *testing.T) {
	start := time.Date(2017, 4, 3, 12, 0, 0, 0, time.UTC)
	v := NewVirtual(start)
	v.Set(start.Add(-time.Hour))
	if !v.Now().Equal(start) {
		t.Errorf("Set moved the clock backwards to %v", v.Now())
	}
	v.Set(start) // equal is also a no-op, not an error
	if !v.Now().Equal(start) {
		t.Errorf("Now = %v", v.Now())
	}
}

func TestVirtualConcurrentReaders(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				_ = v.Now()
			}
		}()
	}
	for j := 0; j < 1000; j++ {
		v.Advance(time.Millisecond)
	}
	wg.Wait()
	if got := v.Now(); !got.Equal(time.Unix(1, 0)) {
		t.Errorf("final time = %v, want 1s", got)
	}
}

func TestVirtualFiresInTimeThenSchedulingOrder(t *testing.T) {
	start := time.Unix(0, 0)
	v := NewVirtual(start)
	var got []string
	at := func(d time.Duration, name string) {
		v.Schedule(start.Add(d), func() {
			if want := start.Add(d); !v.Now().Equal(want) {
				t.Errorf("%s fired at %v, want %v", name, v.Now(), want)
			}
			got = append(got, name)
		})
	}
	at(3*time.Second, "c")
	at(time.Second, "a1")
	v.AfterFunc(time.Second, func() { got = append(got, "a2") })
	at(time.Second, "a3")
	at(2*time.Second, "b")
	at(5*time.Second, "late")
	v.Set(start.Add(4 * time.Second))
	if want := "a1 a2 a3 b c"; fmt.Sprint(got) != "["+want+"]" {
		t.Errorf("fired %v, want [%s]", got, want)
	}
	if !v.Now().Equal(start.Add(4 * time.Second)) {
		t.Errorf("Now = %v after Set", v.Now())
	}
}

func TestVirtualStop(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	fired := 0
	tm := v.AfterFunc(time.Second, func() { fired++ })
	if !tm.Stop() {
		t.Error("first Stop = false, want true")
	}
	if tm.Stop() {
		t.Error("second Stop = true, want false")
	}
	v.Advance(time.Minute)
	if fired != 0 {
		t.Errorf("stopped callback fired %d times", fired)
	}

	tm = v.AfterFunc(time.Second, func() { fired++ })
	v.Advance(time.Minute)
	if fired != 1 {
		t.Errorf("callback fired %d times, want 1", fired)
	}
	if tm.Stop() {
		t.Error("Stop after firing = true, want false")
	}
}

func TestVirtualCallbackSchedulesAtNow(t *testing.T) {
	start := time.Unix(0, 0)
	v := NewVirtual(start)
	var got []string
	v.AfterFunc(time.Second, func() {
		got = append(got, "outer")
		v.AfterFunc(0, func() { got = append(got, "now") })
		v.Schedule(v.Now().Add(-time.Hour), func() { got = append(got, "past") })
		v.AfterFunc(time.Hour, func() { got = append(got, "later") })
	})
	v.Set(start.Add(time.Second))
	if fmt.Sprint(got) != "[outer now past]" {
		t.Errorf("fired %v, want [outer now past]", got)
	}
	if !v.Now().Equal(start.Add(time.Second)) {
		t.Errorf("Now = %v, want %v", v.Now(), start.Add(time.Second))
	}
}

func TestVirtualBackwardSetFiresNothing(t *testing.T) {
	start := time.Unix(100, 0)
	v := NewVirtual(start)
	fired := false
	v.AfterFunc(0, func() { fired = true })
	v.Set(start.Add(-time.Second))
	if fired {
		t.Error("backward Set fired a callback due now")
	}
	if !v.Now().Equal(start) {
		t.Errorf("backward Set moved the clock to %v", v.Now())
	}
	v.Set(start)
	if !fired {
		t.Error("Set to now did not fire the callback due now")
	}
}

// TestVirtualConcurrentAfterFunc schedules and stops timers from other
// goroutines while the owner advances the clock; run it with -race.
func TestVirtualConcurrentAfterFunc(t *testing.T) {
	v := NewVirtual(time.Unix(0, 0))
	var fired atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				tm := v.AfterFunc(time.Duration(j%7)*time.Millisecond, func() { fired.Add(1) })
				if j%5 == 0 {
					tm.Stop()
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		v.Advance(time.Millisecond)
	}
	v.Advance(time.Second) // everything left is due by now
	if got := fired.Load(); got < 4*400 || got > 4*500 {
		t.Errorf("fired %d callbacks, want between %d and %d", got, 4*400, 4*500)
	}
}
