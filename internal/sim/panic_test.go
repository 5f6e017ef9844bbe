package sim

import (
	"fmt"
	"testing"

	"rtvirt/internal/simtime"
)

// The kernel's hot functions panic with typed values that format their
// message only when printed. These tests pin that each check still fires
// and prints the message it printed when it was a fmt.Sprintf string.

// panicText runs fn and returns the printed form of its panic value.
func panicText(t *testing.T, fn func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("did not panic")
		}
		msg = fmt.Sprint(r)
	}()
	fn()
	return ""
}

func wantPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	if got := panicText(t, fn); got != want {
		t.Fatalf("panic %q, want %q", got, want)
	}
}

func TestPostInPastPanicMessage(t *testing.T) {
	s := New(1)
	c := newCalls(s)
	s.RunUntil(simtime.Time(simtime.Millis(2)))
	wantPanic(t, "sim: scheduling event at 1ms before now 2ms", func() {
		c.at(simtime.Time(simtime.Millis(1)), func(simtime.Time) {})
	})
}

func TestPostUnregisteredHandlerPanicMessage(t *testing.T) {
	s := New(1)
	newCalls(s)
	wantPanic(t, "sim: PostAt with unregistered handler 7", func() {
		s.PostAt(0, Payload{Handler: 7})
	})
	wantPanic(t, "sim: PostAt with unregistered handler -1", func() {
		s.PostAt(0, Payload{Handler: -1})
	})
}

func TestRescheduleIntoPastPanicMessage(t *testing.T) {
	s := New(1)
	c := newCalls(s)
	h := c.at(100, func(simtime.Time) {})
	s.RunUntil(60)
	wantPanic(t, "sim: rescheduling event at 10ns before now 60ns", func() {
		s.Reschedule(h, 10)
	})
}

// The dispatch-time handler check cannot be reached through PostAt, which
// checks first; a handler table shrunk under a pending event reaches it.
func TestDispatchUnregisteredHandlerPanicMessage(t *testing.T) {
	s := New(1)
	c := newCalls(s)
	c.at(5, func(simtime.Time) {})
	s.handlers = nil
	wantPanic(t, "sim: payload event for unregistered handler 0", func() {
		s.RunUntil(10)
	})
}

// The event loop checks the popped instant against the clock in RunUntil,
// in a PDES window and in Step alike.
func TestQueueWentBackwardsPanics(t *testing.T) {
	for name, run := range map[string]func(*Simulator){
		"RunUntil":  func(s *Simulator) { s.RunUntil(200) },
		"runWindow": func(s *Simulator) { s.runWindow(150, 200) },
		"Step":      func(s *Simulator) { s.Step() },
	} {
		t.Run(name, func(t *testing.T) {
			s := New(1)
			c := newCalls(s)
			c.at(50, func(simtime.Time) {})
			s.now = 100
			wantPanic(t, "sim: event queue went backwards", func() { run(s) })
		})
	}
}
