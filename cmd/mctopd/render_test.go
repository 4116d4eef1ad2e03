package main

// The byte contract of the stored-bytes serving path: every topology,
// placement and batch answer — the first one a server renders and every
// warm one after it — is byte-for-byte what encoding the response struct
// through writeJSON produces. The reference structs below are kept in this
// file, independent of the handlers' own types, so the contract holds
// whatever the handlers do internally.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	mctop "repro"
	"repro/internal/topo"
)

type refTopology struct {
	Platform string    `json:"platform"`
	Seed     uint64    `json:"seed"`
	Contexts int       `json:"contexts"`
	Cores    int       `json:"cores"`
	Sockets  int       `json:"sockets"`
	Nodes    int       `json:"nodes"`
	SMTWays  int       `json:"smt_ways"`
	Spec     topo.Spec `json:"spec"`
	Cached   bool      `json:"cached"`
	ServedIn string    `json:"served_in"`
}

type refPlace struct {
	Platform     string  `json:"platform"`
	Seed         uint64  `json:"seed"`
	Policy       string  `json:"policy"`
	NThreads     int     `json:"n_threads"`
	Contexts     []int   `json:"contexts"`
	NCores       int     `json:"n_cores"`
	CtxPerSocket []int   `json:"ctx_per_socket"`
	MaxLatency   int64   `json:"max_latency_cycles"`
	MinBandwidth float64 `json:"min_bandwidth_gbs"`
	Report       string  `json:"report"`
	ServedIn     string  `json:"served_in"`
}

type refBatchItem struct {
	Policy       string  `json:"policy"`
	Error        string  `json:"error,omitempty"`
	NThreads     int     `json:"n_threads,omitempty"`
	Contexts     []int   `json:"contexts,omitempty"`
	NCores       int     `json:"n_cores,omitempty"`
	CtxPerSocket []int   `json:"ctx_per_socket,omitempty"`
	MaxLatency   int64   `json:"max_latency_cycles,omitempty"`
	MinBandwidth float64 `json:"min_bandwidth_gbs,omitempty"`
}

type refBatch struct {
	Platform string         `json:"platform"`
	Seed     uint64         `json:"seed"`
	Results  []refBatchItem `json:"results"`
	ServedIn string         `json:"served_in"`
}

// refWrite renders v the way the daemon always has: writeJSON into a
// recorder.
func refWrite(v any) (string, []byte) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, v)
	return rec.Header().Get("Content-Type"), rec.Body.Bytes()
}

var servedInRE = regexp.MustCompile(`"served_in": "[^"]*"`)

func blankServedIn(b []byte) []byte {
	return servedInRE.ReplaceAll(b, []byte(`"served_in": ""`))
}

// contractCase is one platform of the byte contract.
type contractCase struct {
	platform string
	sampling bool
}

func (c contractCase) query() string {
	q := "platform=" + c.platform + "&seed=42&reps=51"
	if c.sampling {
		q += "&sampling=1"
	}
	return q
}

func (c contractCase) opt() mctop.Options {
	var o mctop.Options
	o.Reps = 51
	o.Sampling.Enabled = c.sampling
	return o
}

var contractCases = func() []contractCase {
	var cs []contractCase
	for _, p := range mctop.Platforms() {
		cs = append(cs, contractCase{platform: p})
	}
	return append(cs, contractCase{platform: "gen:circulant:s8:c16:t2", sampling: true})
}()

// serve runs one request through the daemon's full handler stack.
func serve(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	var req *http.Request
	if method == http.MethodPost {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
	} else {
		req = httptest.NewRequest(method, path, nil)
	}
	h.ServeHTTP(rec, req)
	return rec
}

// sameBytes fails unless the response matches the reference exactly, with
// only served_in blanked on both sides.
func sameBytes(t *testing.T, what string, rec *httptest.ResponseRecorder, wantStatus int, wantType string, want []byte) {
	t.Helper()
	if rec.Code != wantStatus {
		t.Fatalf("%s: status %d, want %d: %s", what, rec.Code, wantStatus, rec.Body.Bytes())
	}
	if got := rec.Header().Get("Content-Type"); got != wantType {
		t.Errorf("%s: Content-Type %q, want %q", what, got, wantType)
	}
	got, ref := blankServedIn(rec.Body.Bytes()), blankServedIn(want)
	if !bytes.Equal(got, ref) {
		i := 0
		for i < len(got) && i < len(ref) && got[i] == ref[i] {
			i++
		}
		lo := max(i-80, 0)
		t.Fatalf("%s: bytes differ at offset %d (got %d bytes, want %d):\n got: %q\nwant: %q",
			what, i, len(got), len(ref), got[lo:min(i+80, len(got))], ref[lo:min(i+80, len(ref))])
	}
}

func refBatchItemOf(requested string, pl *mctop.Placement, err error) refBatchItem {
	if err != nil {
		return refBatchItem{Policy: requested, Error: err.Error()}
	}
	return refBatchItem{
		Policy:       pl.PolicyName(),
		NThreads:     pl.NThreads(),
		Contexts:     pl.Contexts(),
		NCores:       pl.NCores(),
		CtxPerSocket: pl.CtxPerSocket(),
		MaxLatency:   pl.MaxLatency(),
		MinBandwidth: pl.MinBandwidth(),
	}
}

// TestResponseBytesContract checks topology (json, mctop, dot), place (every
// builtin policy, POWER where there is power data and where there is not)
// and batch (inline errors included) answers on the golden five and a
// sampled generated platform: the cold answer first, then the warm one.
func TestResponseBytesContract(t *testing.T) {
	ctx := context.Background()
	for _, c := range contractCases {
		c := c
		t.Run(c.platform, func(t *testing.T) {
			t.Parallel()
			s := testServer()
			h := s.routes()
			q := c.query()

			var batch strings.Builder
			fmt.Fprintf(&batch, `{"platform": %q, "seed": 42, "reps": 51, "sampling": %t, "requests": [`, c.platform, c.sampling)
			var reqs []mctop.PlaceRequest
			for i, pol := range mctop.PolicyNames() {
				reqs = append(reqs, mctop.PlaceRequest{Policy: pol, NThreads: i % 5})
				fmt.Fprintf(&batch, `{"policy": %q, "threads": %d}, `, pol, i%5)
			}
			reqs = append(reqs, mctop.PlaceRequest{Policy: "NOPE", NThreads: 2})
			batch.WriteString(`{"policy": "NOPE", "threads": 2}]}`)

			for round, cached := range []bool{false, true} {
				what := func(s string) string { return fmt.Sprintf("round %d: %s", round, s) }

				rec := serve(h, "GET", "/v1/topology?"+q, "")
				top, _, err := s.reg.LookupTopologyContext(ctx, c.platform, 42, c.opt())
				if err != nil {
					t.Fatal(err)
				}
				ctype, want := refWrite(refTopology{
					Platform: c.platform, Seed: 42,
					Contexts: top.NumHWContexts(), Cores: top.NumCores(), Sockets: top.NumSockets(),
					Nodes: top.NumNodes(), SMTWays: top.SMTWays(), Spec: top.Spec(), Cached: cached,
				})
				sameBytes(t, what("topology json"), rec, 200, ctype, want)

				var buf bytes.Buffer
				spec := top.Spec()
				if err := topo.Encode(&buf, &spec); err != nil {
					t.Fatal(err)
				}
				sameBytes(t, what("topology mctop"), serve(h, "GET", "/v1/topology?"+q+"&format=mctop", ""),
					200, "text/plain; charset=utf-8", buf.Bytes())
				sameBytes(t, what("topology dot"), serve(h, "GET", "/v1/topology?"+q+"&format=dot", ""),
					200, "text/vnd.graphviz", []byte(top.DotCrossSocket()))

				for _, r := range reqs {
					rec := serve(h, "GET", fmt.Sprintf("/v1/place?%s&policy=%s&threads=%d", q, r.Policy, r.NThreads), "")
					pl, err := s.reg.PlaceContext(ctx, c.platform, 42, c.opt(), r.Policy, r.NThreads)
					if err != nil {
						ref := httptest.NewRecorder()
						writeErrStatus(ref, err)
						sameBytes(t, what("place "+r.Policy), rec, ref.Code, ref.Header().Get("Content-Type"), ref.Body.Bytes())
						continue
					}
					ctype, want := refWrite(refPlace{
						Platform: c.platform, Seed: 42, Policy: pl.PolicyName(), NThreads: pl.NThreads(),
						Contexts: pl.Contexts(), NCores: pl.NCores(), CtxPerSocket: pl.CtxPerSocket(),
						MaxLatency: pl.MaxLatency(), MinBandwidth: pl.MinBandwidth(), Report: pl.String(),
					})
					sameBytes(t, what("place "+r.Policy), rec, 200, ctype, want)
				}

				rec = serve(h, "POST", "/v1/place/batch", batch.String())
				results, err := s.reg.PlaceBatchContext(ctx, c.platform, 42, c.opt(), reqs)
				if err != nil {
					t.Fatal(err)
				}
				ref := refBatch{Platform: c.platform, Seed: 42}
				for i, res := range results {
					ref.Results = append(ref.Results, refBatchItemOf(reqs[i].Policy, res.Placement, res.Err))
				}
				ctype, want = refWrite(ref)
				sameBytes(t, what("batch"), rec, 200, ctype, want)
			}
		})
	}
}

// TestConcurrentFirstHitsIdentical sends concurrent first requests for one
// warm registry entry — the renders race — and requires identical bytes
// from all of them.
func TestConcurrentFirstHitsIdentical(t *testing.T) {
	s := testServer()
	h := s.routes()
	var opt mctop.Options
	opt.Reps = 51
	if _, err := s.reg.PlaceContext(context.Background(), "Ivy", 42, opt, "CON_HWC", 30); err != nil {
		t.Fatal(err)
	}
	const q = "platform=Ivy&seed=42&reps=51"
	paths := []struct{ method, path, body string }{
		{"GET", "/v1/topology?" + q, ""},
		{"GET", "/v1/topology?" + q + "&format=mctop", ""},
		{"GET", "/v1/topology?" + q + "&format=dot", ""},
		{"GET", "/v1/place?" + q + "&policy=CON_HWC&threads=30", ""},
		{"POST", "/v1/place/batch", `{"platform": "Ivy", "reps": 51, "requests": [{"policy": "CON_HWC", "threads": 30}]}`},
	}
	const workers = 8
	bodies := make([][workers][]byte, len(paths))
	var wg sync.WaitGroup
	for i, p := range paths {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(i, w int, method, path, body string) {
				defer wg.Done()
				rec := serve(h, method, path, body)
				if rec.Code != 200 {
					t.Errorf("%s %s: status %d", method, path, rec.Code)
				}
				bodies[i][w] = blankServedIn(rec.Body.Bytes())
			}(i, w, p.method, p.path, p.body)
		}
	}
	wg.Wait()
	for i, p := range paths {
		for w := 1; w < workers; w++ {
			if !bytes.Equal(bodies[i][w], bodies[i][0]) {
				t.Errorf("%s %s: concurrent first hits answered different bytes", p.method, p.path)
				break
			}
		}
	}
}
