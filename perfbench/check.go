package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"

	"repro/internal/topo"
)

// collector watches every answer of a timed run. Equal requests must get
// equal answers, so it keeps the first answer per request key (with the
// per-request served_in and cached fields blanked) and counts every later
// answer that differs from it, every transport error and every non-200.
type collector struct {
	seq []*request

	mu       sync.Mutex
	first    map[string][]byte
	answers  map[string]int // answers per key
	failed   int
	problems []string
}

func newCollector(seq []*request) *collector {
	return &collector{seq: seq, first: map[string][]byte{}, answers: map[string]int{}}
}

func (c *collector) observe(i, status int, body []byte) {
	r := c.seq[i]
	norm := normalize(body)
	c.mu.Lock()
	defer c.mu.Unlock()
	if status != 200 {
		c.record(1, "%s %s: status %d: %.200s", r.method, r.path, status, body)
		return
	}
	c.answers[r.key]++
	if f, ok := c.first[r.key]; !ok {
		c.first[r.key] = norm
	} else if !bytes.Equal(f, norm) {
		c.record(1, "%s %s: answer differs from an earlier answer to the same request", r.method, r.path)
	}
}

// fail records n failed requests; the first few reasons are kept for the
// report.
func (c *collector) fail(n int, format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.record(n, format, args...)
}

// record is fail with c.mu held.
func (c *collector) record(n int, format string, args ...any) {
	c.failed += n
	if len(c.problems) < 5 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// expect checks the kept answer of r's key against want; a mismatch fails
// every answer given to that key.
func (c *collector) expect(r *request, want []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	got, ok := c.first[r.key]
	if !ok {
		return // never answered 200: already counted
	}
	if !sameAnswer(got, want) {
		c.record(c.answers[r.key], "%s %s: answer differs from the reference:\n got: %.300s\nwant: %.300s", r.method, r.path, got, want)
	}
}

// count returns how many 200 answers r's key got.
func (c *collector) count(r *request) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.answers[r.key]
}

// answer returns the kept answer to r's key.
func (c *collector) answer(r *request) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.first[r.key]
	return b, ok
}

// distinct returns the executed requests with distinct keys, in order of
// first appearance.
func distinct(seq []*request) []*request {
	seen := map[string]bool{}
	var out []*request
	for _, r := range seq {
		if !seen[r.key] {
			seen[r.key] = true
			out = append(out, r)
		}
	}
	return out
}

// normalize blanks the fields of a JSON answer that legitimately differ
// between two answers to the same request: the served_in timer and the
// cached flag. Other bodies (description files) are returned as they are.
func normalize(body []byte) []byte {
	if len(body) == 0 || body[0] != '{' {
		return body
	}
	out := make([]byte, 0, len(body))
	rest := body
	for _, f := range []struct{ field, stop, blank string }{
		{`"cached": `, ",\n}", "false"},
		{`"served_in": "`, `"`, ""},
	} {
		i := bytes.Index(rest, []byte(f.field))
		if i < 0 {
			continue
		}
		i += len(f.field)
		out = append(append(out, rest[:i]...), f.blank...)
		rest = rest[i:]
		if end := bytes.IndexAny(rest, f.stop); end >= 0 {
			rest = rest[end:]
		}
	}
	return append(out, rest...)
}

// sameAnswer compares two answers: JSON field by field, ignoring served_in
// and cached; anything else byte for byte. Equal bytes after normalize are
// equal fields, which spares most answers the decoding.
func sameAnswer(got, want []byte) bool {
	if bytes.Equal(normalize(got), normalize(want)) {
		return true
	}
	if len(got) == 0 || got[0] != '{' {
		return false
	}
	var g, w map[string]any
	if json.Unmarshal(got, &g) != nil || json.Unmarshal(want, &w) != nil {
		return false
	}
	for _, m := range []map[string]any{g, w} {
		delete(m, "served_in")
		delete(m, "cached")
	}
	return reflect.DeepEqual(g, w)
}

// coldVerify is how many cold-infer answers besides the golden ones are
// re-inferred in-process and compared byte for byte: each costs a full
// inference, so a seeded sample of one cycle's worth, not all.
const coldVerify = 7

// checkCold verifies cold-infer's description files: the seed-42 answers
// on the golden five must equal the golden fixtures byte for byte, every
// answer must decode, and a seeded sample must equal an in-process
// inference of the same request.
func (e *env) checkCold(executed []*request, col *collector) error {
	var others []*request
	for _, r := range executed {
		if r.Seed == 42 && isGolden(r.Platform) {
			want, err := os.ReadFile(goldenPath(r.Platform))
			if err != nil {
				return err
			}
			col.expect(r, want)
		} else {
			others = append(others, r)
		}
	}
	decodeAll(context.Background(), nil, executed, col)
	ref, err := newStack(nil, tiers{cache: 256})
	if err != nil {
		return err
	}
	defer ref.close()
	pick := &rng{s: e.seed ^ 0xC1}
	for k := 0; k < coldVerify && len(others) > 0; k++ {
		j := pick.intn(len(others))
		r := others[j]
		others = append(others[:j], others[j+1:]...)
		want, err := ref.serve(e.ctx, r)
		if err != nil {
			return fmt.Errorf("reference %s %s: %w", r.method, r.path, err)
		}
		col.expect(r, want)
	}
	return nil
}

// decodeAll decodes every description-file answer of the run (one span per
// decode when rec records); an answer that does not decode fails.
func decodeAll(ctx context.Context, rec *recorder, executed []*request, col *collector) {
	seen := map[string]bool{}
	for i, r := range executed {
		if r.Format != "mctop" || seen[r.key] {
			continue
		}
		seen[r.key] = true
		body, ok := col.answer(r)
		if !ok {
			continue
		}
		_, end := rec.start(withRequest(ctx, i), "topo.Decode")
		_, err := topo.Decode(bytes.NewReader(body))
		end("")
		if err != nil {
			col.fail(col.count(r), "%s %s: answer does not decode: %v", r.method, r.path, err)
		}
	}
}

func isGolden(platform string) bool {
	for _, g := range golden {
		if g == platform {
			return true
		}
	}
	return false
}

func goldenPath(platform string) string {
	return filepath.Join("internal", "topo", "testdata", strings.ToLower(platform)+".mctop")
}
