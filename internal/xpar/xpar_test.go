package xpar

import (
	"errors"
	"sync/atomic"
	"testing"
)

func TestForEachCoversAllIndexes(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8, 100} {
		n := 57
		var hits [57]atomic.Int32
		if err := ForEach(workers, n, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d run %d times", workers, i, got)
			}
		}
	}
}

func TestForEachZeroN(t *testing.T) {
	if err := ForEach(4, 0, func(int) error { return errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
}

func TestForEachFirstErrorCancels(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	err := ForEach(4, 1000, func(i int) error {
		ran.Add(1)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	// Cancellation is best-effort (in-flight items finish) but must not
	// run the whole index space.
	if ran.Load() == 1000 {
		t.Fatal("error did not cancel remaining work")
	}
}

func TestForEachSerialErrorStopsImmediately(t *testing.T) {
	boom := errors.New("boom")
	ran := 0
	err := ForEach(1, 100, func(i int) error {
		ran++
		if i == 5 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || ran != 6 {
		t.Fatalf("err=%v ran=%d, want boom after 6", err, ran)
	}
}
