package xsync

import (
	"runtime"
	"testing"
	"time"
)

// spinUntilSet waits for flag i the way the static executor does: an
// IsSet spin that yields the processor between probes.
func spinUntilSet(f *FlagTable, i int) {
	for !f.IsSet(i) {
		runtime.Gosched()
	}
}

func TestFlagTableSetWait(t *testing.T) {
	f := NewFlagTable(4)
	if f.IsSet(2) {
		t.Fatal("fresh flag set")
	}
	done := make(chan struct{})
	go func() {
		spinUntilSet(f, 2)
		close(done)
	}()
	time.Sleep(5 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("waiter returned before Set")
	default:
	}
	f.Set(2)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("waiter did not observe Set")
	}
	for _, i := range []int{0, 1, 3} {
		if f.IsSet(i) {
			t.Errorf("Set(2) also set flag %d", i)
		}
	}
}

func TestFlagTablePublishesData(t *testing.T) {
	// Set must act as a release and IsSet as an acquire, so data written
	// before Set is visible to a waiter that saw the flag. Run many rounds
	// to give the race detector a chance to object.
	var payload int
	for round := 0; round < 100; round++ {
		f := NewFlagTable(1)
		done := make(chan int)
		go func() {
			spinUntilSet(f, 0)
			done <- payload
		}()
		payload = round
		f.Set(0)
		if got := <-done; got != round {
			t.Fatalf("round %d: observed %d", round, got)
		}
	}
}
