package topo

import "sync"

// Views memoizes byte renderings of one immutable object — a topology's
// JSON answer, its description file, a placement's report — so a server
// renders each representation once and writes the stored bytes on every
// later request. It lives exactly as long as the object that embeds it: no
// bound, no eviction, nothing to invalidate. The zero value is ready to use.
//
// An object sees a handful of keys (one per representation), so the memo
// is a slice scanned under a mutex rather than a map.
type Views struct {
	mu    sync.Mutex
	views []*view
}

type view struct {
	key  string
	once sync.Once
	b    []byte
	err  error
}

// View returns the rendering stored under key, calling render to produce
// it on first use. render runs at most once per key: concurrent first
// callers wait for it, then all receive the same bytes. Its error is kept
// too, since rendering an immutable object again would fail the same way.
// Callers must not modify the returned bytes.
func (v *Views) View(key string, render func() ([]byte, error)) ([]byte, error) {
	e := v.entry(key)
	e.once.Do(func() { e.b, e.err = render() })
	return e.b, e.err
}

// entry finds or adds the memo entry for key.
func (v *Views) entry(key string) *view {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, e := range v.views {
		if e.key == key {
			return e
		}
	}
	e := &view{key: key}
	v.views = append(v.views, e)
	return e
}

// View is the topology's render memo (see Views): what a server keeps of a
// cached topology's answers, so warm hits write stored bytes.
func (t *Topology) View(key string, render func() ([]byte, error)) ([]byte, error) {
	return t.views.View(key, render)
}
