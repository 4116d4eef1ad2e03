package machine

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestRunForksEveryIndexOnce checks that each index runs exactly once, for
// pool widths below, at and above the task count, and that newWorker is
// called once per worker, never more than the task count.
func TestRunForksEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		const n = 50
		var hits [n]atomic.Int32
		builds := 0
		err := RunForks(context.Background(), workers, n, func() func(int) error {
			builds++
			return func(i int) error {
				hits[i].Add(1)
				return nil
			}
		})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		for i := range hits {
			if h := hits[i].Load(); h != 1 {
				t.Fatalf("workers %d: index %d ran %d times", workers, i, h)
			}
		}
		if builds < 1 || builds > n || workers > 0 && builds > workers {
			t.Fatalf("workers %d: newWorker called %d times", workers, builds)
		}
	}
	if err := RunForks(context.Background(), 4, 0, func() func(int) error {
		t.Fatal("newWorker called for an empty run")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestRunForksFailFast checks that a failure stops further indices and that
// the lowest failing index's error is the one reported.
func TestRunForksFailFast(t *testing.T) {
	var ran atomic.Int32
	err := RunForks(context.Background(), 1, 1000, func() func(int) error {
		return func(i int) error {
			ran.Add(1)
			if i >= 5 {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		}
	})
	if err == nil || err.Error() != "task 5 failed" {
		t.Fatalf("err = %v, want task 5's", err)
	}
	if r := ran.Load(); r != 6 {
		t.Fatalf("%d tasks ran after a failure at index 5 on one worker, want 6", r)
	}
}

// TestRunForksCancel checks that a cancelled context stops the pool — on
// one worker, no index starts after the cancelling one — and wins over task
// errors.
func TestRunForksCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int32
	err := RunForks(ctx, 1, 1000, func() func(int) error {
		return func(i int) error {
			if ran.Add(1) == 10 {
				cancel()
				return errors.New("late failure")
			}
			return nil
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if r := ran.Load(); r != 10 {
		t.Fatalf("%d tasks ran, want 10: none may start after cancellation", r)
	}
}
