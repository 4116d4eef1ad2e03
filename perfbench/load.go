package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// httpc is the only HTTP client of the benchmark: loopback, keep-alive, and
// never more than two connections to a daemon — the machine has two cores,
// shared by the client and the daemons.
var httpc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}

// do sends one generated request and reads the whole answer.
func do(ctx context.Context, base string, r *request) (int, []byte, error) {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequestWithContext(ctx, r.method, base+r.path, body)
	if err != nil {
		return 0, nil, err
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// sendAll sends requests one after another and fails on the first answer
// that is not 200 — the prewarm path.
func sendAll(ctx context.Context, base string, rs []*request) error {
	for _, r := range rs {
		status, b, err := do(ctx, base, r)
		if err != nil {
			return fmt.Errorf("%s %s: %w", r.method, r.path, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("%s %s: status %d: %s", r.method, r.path, status, b)
		}
	}
	return nil
}

// outcome is one timed request.
type outcome struct {
	start, end time.Duration // since the window opened
	status     int           // 0 on a transport error
	bytes      int
}

func (o outcome) latency() time.Duration { return o.end - o.start }

// loop is a closed-loop run: conns workers, each sending the next request
// of seq as soon as its previous one has been answered. Once the window has
// passed, the run stops at the next cycle boundary, so it always executes
// whole cycles of the workload's mix. onBody sees every answer (from the
// worker goroutines, so it must be safe for concurrent use).
type loop struct {
	base   string
	seq    []*request
	cycle  int
	conns  int
	window time.Duration
	onBody func(i int, status int, body []byte)
}

// run returns one outcome per executed request (a prefix of seq).
func (l *loop) run(ctx context.Context) []outcome {
	out := make([]outcome, len(l.seq))
	var (
		mu      sync.Mutex
		next    int
		stopped bool
		wg      sync.WaitGroup
	)
	begin := time.Now()
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stopped || next >= len(l.seq) {
			return 0, false
		}
		if next%l.cycle == 0 && time.Since(begin) >= l.window {
			stopped = true
			return 0, false
		}
		next++
		return next - 1, true
	}
	for w := 0; w < l.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				start := time.Since(begin)
				status, body, err := do(ctx, l.base, l.seq[i])
				end := time.Since(begin)
				if err != nil {
					status = 0
				}
				out[i] = outcome{start: start, end: end, status: status, bytes: len(body)}
				if l.onBody != nil {
					l.onBody(i, status, body)
				}
			}
		}()
	}
	wg.Wait()
	return out[:next]
}
