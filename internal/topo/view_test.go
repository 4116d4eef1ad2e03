package topo

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// TestViewsRenderOncePerKey: concurrent first callers of one key share a
// single render and receive the same bytes; distinct keys render apart, and
// a render error is returned to every caller of its key.
func TestViewsRenderOncePerKey(t *testing.T) {
	var v Views
	var renders atomic.Int32
	const workers = 16
	got := make([][]byte, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b, err := v.View("json", func() ([]byte, error) {
				renders.Add(1)
				return []byte("rendered"), nil
			})
			if err != nil {
				t.Error(err)
			}
			got[w] = b
		}(w)
	}
	wg.Wait()
	if n := renders.Load(); n != 1 {
		t.Fatalf("%d renders for one key, want 1", n)
	}
	for w := range got {
		if !bytes.Equal(got[w], []byte("rendered")) {
			t.Fatalf("caller %d got %q", w, got[w])
		}
	}

	other, _ := v.View("dot", func() ([]byte, error) { return []byte("other"), nil })
	if string(other) != "other" {
		t.Errorf("second key answered %q", other)
	}
	boom := errors.New("boom")
	for i := 0; i < 2; i++ {
		if _, err := v.View("bad", func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
			t.Errorf("call %d: err = %v, want %v", i, err, boom)
		}
	}
}
