package main

// BenchmarkQueryIndex_BatchPlace vs BenchmarkQueryIndex_SinglePlaces: the
// same 12-policy placement sweep served by one POST /v1/place/batch versus
// twelve GET /v1/place round trips. Both run against a warm registry, so
// the difference is pure per-request overhead (HTTP round trips, parsing,
// key assembly) — the batch endpoint's reason to exist.

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	mctop "repro"
)

// benchSweep is the 12-policy sweep (POWER included: Ivy has power data).
var benchSweep = func() []string {
	names := mctop.PolicyNames()
	out := make([]string, len(names))
	copy(out, names)
	return out
}()

func benchServer(b *testing.B) *httptest.Server {
	b.Helper()
	ts := httptest.NewServer(testServer().routes())
	// Warm the topology so neither benchmark times the one-off inference.
	resp, err := http.Get(ts.URL + "/v1/topology?platform=Ivy&seed=42&reps=51")
	if err != nil || resp.StatusCode != 200 {
		b.Fatalf("warmup failed: %v %v", err, resp)
	}
	resp.Body.Close()
	return ts
}

func BenchmarkQueryIndex_SinglePlaces(b *testing.B) {
	ts := benchServer(b)
	defer ts.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for t, pol := range benchSweep {
			resp, err := http.Get(ts.URL + "/v1/place?platform=Ivy&seed=42&reps=51&policy=" + pol +
				"&threads=" + string(rune('1'+t%8)))
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				b.Fatalf("policy %s: status %d", pol, resp.StatusCode)
			}
		}
	}
}

func BenchmarkQueryIndex_BatchPlace(b *testing.B) {
	ts := benchServer(b)
	defer ts.Close()
	var sb strings.Builder
	sb.WriteString(`{"platform": "Ivy", "seed": 42, "reps": 51, "requests": [`)
	for t, pol := range benchSweep {
		if t > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"policy": "` + pol + `", "threads": ` + string(rune('1'+t%8)) + `}`)
	}
	sb.WriteString(`]}`)
	body := sb.String()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/place/batch", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

// BenchmarkHandlerWarm_* is the in-process handler rung of the ladder: one
// warm request through routes() — middleware, parsing, registry hit and
// render — into an httptest.ResponseRecorder, with no socket.
func benchHandlerWarm(b *testing.B, method, path, body string) {
	h := testServer().routes()
	serveOnce := func() {
		rec := httptest.NewRecorder()
		var r *http.Request
		if body != "" {
			r = httptest.NewRequest(method, path, strings.NewReader(body))
		} else {
			r = httptest.NewRequest(method, path, nil)
		}
		h.ServeHTTP(rec, r)
		if rec.Code != http.StatusOK {
			b.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body.Bytes())
		}
	}
	serveOnce() // infer, place and render once: every timed request is warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveOnce()
	}
}

func BenchmarkHandlerWarm_Topology(b *testing.B) {
	benchHandlerWarm(b, "GET", "/v1/topology?platform=Ivy&seed=42&reps=51", "")
}

func BenchmarkHandlerWarm_Place(b *testing.B) {
	benchHandlerWarm(b, "GET", "/v1/place?platform=Ivy&seed=42&reps=51&policy=CON_HWC&threads=30", "")
}

func BenchmarkHandlerWarm_Batch(b *testing.B) {
	var sb strings.Builder
	sb.WriteString(`{"platform": "Ivy", "seed": 42, "reps": 51, "requests": [`)
	for t, pol := range benchSweep {
		if t > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"policy": "` + pol + `", "threads": ` + string(rune('1'+t%8)) + `}`)
	}
	sb.WriteString(`]}`)
	benchHandlerWarm(b, "POST", "/v1/place/batch", sb.String())
}
