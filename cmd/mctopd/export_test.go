package main

// Tests for the /v1/export fleet endpoint: it must serve the exact
// interchange bytes the spool would persist (a #key-headed description
// file or a .place sidecar), resolve cold keys through the registry, and
// reject keys that could never name one of this daemon's cache entries.

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"net/url"
	"testing"

	mctop "repro"
	"repro/internal/registry"
	"repro/internal/spool"
)

func exportPath(key string) string {
	return "/v1/export?key=" + url.QueryEscape(key)
}

func TestExportTopologyMatchesSpoolFormat(t *testing.T) {
	ts := httptest.NewServer(testServer().routes())
	defer ts.Close()

	opt := mctop.NewOptions(mctop.WithReps(51))
	key := registry.TopoKey("Ivy", 42, opt)
	resp, body := get(t, ts, exportPath(key))
	if resp.StatusCode != 200 {
		t.Fatalf("export: %d %s", resp.StatusCode, body)
	}
	gotKey, top, err := spool.DecodeTopology(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("exported body does not decode: %v", err)
	}
	if gotKey != key {
		t.Fatalf("exported key header %q, want %q", gotKey, key)
	}
	// The body is byte-for-byte what the spool tier would write.
	var want bytes.Buffer
	if err := spool.EncodeTopology(&want, key, top); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatal("exported body differs from the spool encoding of its own topology")
	}
	// And it matches the plain topology endpoint's .mctop rendering,
	// modulo the key header.
	_, mct := get(t, ts, "/v1/topology?platform=Ivy&seed=42&reps=51&format=mctop")
	if !bytes.HasSuffix(body, mct) {
		t.Fatal("exported description body differs from ?format=mctop")
	}
}

func TestExportPlacementSidecar(t *testing.T) {
	ts := httptest.NewServer(testServer().routes())
	defer ts.Close()

	opt := mctop.NewOptions(mctop.WithReps(51))
	topoKey := registry.TopoKey("Ivy", 42, opt)
	key := fmt.Sprintf("place|%s|MCTOP_PLACE_RR_CORE|8", topoKey)
	resp, body := get(t, ts, exportPath(key))
	if resp.StatusCode != 200 {
		t.Fatalf("export placement: %d %s", resp.StatusCode, body)
	}
	side, err := spool.DecodeSidecar(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("exported sidecar does not decode: %v", err)
	}
	if side.Key != key || side.TopoKey != topoKey || side.Policy != "MCTOP_PLACE_RR_CORE" {
		t.Fatalf("sidecar = %+v", side)
	}
	if len(side.Ctxs) != 8 {
		t.Fatalf("sidecar has %d contexts, want 8", len(side.Ctxs))
	}
}

func TestExportRejectsBadKeys(t *testing.T) {
	ts := httptest.NewServer(testServer().routes())
	defer ts.Close()

	opt := mctop.NewOptions(mctop.WithReps(51))
	good := registry.TopoKey("Ivy", 42, opt)
	cases := []struct {
		name   string
		path   string
		status int
	}{
		{"missing key", "/v1/export", 400},
		{"garbage key", exportPath("not-a-key"), 404},
		{"truncated key", exportPath("topo|Ivy|42"), 404},
		{"non-canonical key", exportPath(good + " "), 404},
		{"unknown platform", exportPath(registry.TopoKey("VAX", 1, opt)), 404},
		{"oversized reps", exportPath(registry.TopoKey("Ivy", 42, mctop.NewOptions(mctop.WithReps(99999)))), 400},
		{"bad embedded topo key", exportPath("place|topo|junk|MCTOP_PLACE_RR_CORE|8"), 404},
		{"unknown policy", exportPath("place|" + good + "|NO_SUCH_POLICY|8"), 404},
	}
	for _, c := range cases {
		resp, body := get(t, ts, c.path)
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d (%s), want %d", c.name, resp.StatusCode, body, c.status)
		}
	}
}

// TestExportWritesStoredBytes: a topology export is its key line ahead of
// the topology's stored .mctop answer, and a placement's sidecar is
// rendered once and kept with the placement — a later export, or a
// render of the same view, finds the bytes already stored.
func TestExportWritesStoredBytes(t *testing.T) {
	srv := testServer()
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()

	opt := mctop.NewOptions(mctop.WithReps(51))
	topoKey := registry.TopoKey("Ivy", 42, opt)
	placeKey := fmt.Sprintf("place|%s|MCTOP_PLACE_RR_CORE|8", topoKey)
	for _, key := range []string{topoKey, placeKey, topoKey, placeKey} {
		if resp, body := get(t, ts, exportPath(key)); resp.StatusCode != 200 {
			t.Fatalf("export %s: %d %s", key, resp.StatusCode, body)
		}
	}
	top, err := srv.reg.Topology("Ivy", 42, opt)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := srv.reg.Place("Ivy", 42, opt, "MCTOP_PLACE_RR_CORE", 8)
	if err != nil {
		t.Fatal(err)
	}
	rerender := func() ([]byte, error) {
		t.Error("an exported view was not stored")
		return nil, nil
	}
	mct, _ := top.View("mctop", rerender)
	side, _ := pl.View("sidecar|"+placeKey, rerender)

	_, body := get(t, ts, exportPath(topoKey))
	if !bytes.Equal(body, append([]byte(spool.KeyLine(topoKey)), mct...)) {
		t.Fatal("topology export is not its key line and the stored .mctop answer")
	}
	var want bytes.Buffer
	if err := spool.EncodeSidecar(&want, placeKey, topoKey, pl); err != nil {
		t.Fatal(err)
	}
	if _, body := get(t, ts, exportPath(placeKey)); !bytes.Equal(body, want.Bytes()) || !bytes.Equal(side, want.Bytes()) {
		t.Fatal("placement export differs from the spool's sidecar encoding")
	}
}
