package main

import (
	"encoding/json"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The machine is a virtual one on a shared host, and its speed drifts
// with the host's other load: the same daemon work costs up to half as
// much CPU time again in one run as in the next, and the drift shows on
// every time figure. So while a run sets up and while it measures, a
// prober times a reference computation that does not involve the
// repository's code — the standard library encoding and decoding a fixed
// JSON document, work of the same kind as the daemon's rendering — once
// every refPeriod, and every time figure is scaled to the speed at which
// the reference takes refNominal: a time is divided by, and a rate
// multiplied by, median(reference) / refNominal. The unscaled figures and
// the reference time go to standard error.
//
// The prober shares the machine with the workload, so a change that makes
// the daemon much harder on the caches the prober also uses would slow
// the reference a little, and its scaled figures would hide that part of
// the change.

// refNominal is the reference computation's time, in microseconds, that
// the scaled figures assume: about its median on the 2-vCPU machine the
// benchmark was tuned on.
const refNominal = 2000.0

// refPeriod is how often the prober times the reference computation, and
// refMin how many timings it takes at least: a stretch shorter than
// refMin periods (cold-infer's set-ups take milliseconds) is topped up
// when the prober stops.
const (
	refPeriod = 100 * time.Millisecond
	refMin    = 20
)

type refItem struct {
	ID      int            `json:"id"`
	Name    string         `json:"name"`
	Latency []float64      `json:"latency"`
	Levels  map[string]int `json:"levels"`
}

var refDoc = func() []refItem {
	var out []refItem
	for i := 0; i < 300; i++ {
		out = append(out, refItem{ID: i, Name: "context", Latency: []float64{1.5, 2.25, float64(i)}, Levels: map[string]int{"core": i / 2, "socket": i / 24}})
	}
	return out
}()

// prober times the reference computation in the background.
type prober struct {
	stop chan struct{}
	done chan []float64
}

// startProber starts timing the reference computation once every
// refPeriod, until stop.
func startProber() *prober {
	p := &prober{stop: make(chan struct{}), done: make(chan []float64)}
	go func() {
		// The reference counts the CPU time of its own thread, so time
		// the scheduler gives to other threads does not count.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		var out []float64
		tick := time.NewTicker(refPeriod)
		defer tick.Stop()
		for {
			out = append(out, reference())
			select {
			case <-p.stop:
				for len(out) < refMin {
					out = append(out, reference())
				}
				p.done <- out
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// finish stops the prober and returns the median reference time in
// microseconds.
func (p *prober) finish() float64 {
	close(p.stop)
	return median(<-p.done)
}

// reference runs the reference computation once and returns its CPU time
// in microseconds.
func reference() float64 {
	begin := threadCPU()
	b, err := json.Marshal(refDoc)
	var back []refItem
	if err == nil {
		err = json.Unmarshal(b, &back)
	}
	if err != nil || len(back) != len(refDoc) {
		panic("perfbench: the reference computation failed")
	}
	return float64(threadCPU()-begin) / float64(time.Microsecond)
}

// threadCPU is the calling thread's CPU time (CLOCK_THREAD_CPUTIME_ID).
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, 3, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("perfbench: clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
