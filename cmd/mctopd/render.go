// Warm hits write stored bytes. A cached topology or placement never
// changes, so neither do its answers: each one is rendered once, with
// writeJSON's encoder settings, and kept with the object in its render memo
// (topo.Views) for as long as the registry holds the object. A request
// writes the stored bytes and splices in only what varies per request —
// the cached flag and the served_in timer, which every response struct
// declares last for exactly this reason. The bytes are those a fresh
// writeJSON of the response struct would produce (contract-tested in
// render_test.go).
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/topo"
)

// mctopView is the topology's description file, rendered once. It is
// encoded to a buffer, never straight to a response: writing to w would
// commit a 200 before an encoding failure could surface.
func mctopView(top *topo.Topology) ([]byte, error) {
	return top.View("mctop", func() ([]byte, error) {
		var buf bytes.Buffer
		spec := top.Spec()
		err := topo.Encode(&buf, &spec)
		return buf.Bytes(), err
	})
}

// viewKey names a stored rendering that embeds the request's platform and
// seed, so one object can never answer with another request's fields.
func viewKey(kind, platform string, seed uint64) string {
	b := make([]byte, 0, 64)
	b = append(b, kind...)
	b = append(b, '|')
	b = append(b, platform...)
	b = append(b, '|')
	b = strconv.AppendUint(b, seed, 10)
	return string(b)
}

// indentJSON appends v to buf laid out exactly as writeJSON's encoder lays
// it out at the given nesting prefix (the encoder is Marshal then Indent),
// without the encoder's trailing newline.
func indentJSON(buf *bytes.Buffer, v any, prefix string) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return json.Indent(buf, b, prefix, "  ")
}

// renderHead renders v as writeJSON would and keeps the bytes up to and
// including the last occurrence of field: the opening of v's first
// per-request field, whose value and the rest of the object each request
// writes itself.
func renderHead(v any, field string) ([]byte, error) {
	var buf bytes.Buffer
	if err := indentJSON(&buf, v, ""); err != nil {
		return nil, err
	}
	b := buf.Bytes()
	i := bytes.LastIndex(b, []byte(field))
	if i < 0 {
		return nil, fmt.Errorf("mctopd: rendering lost field %s", field)
	}
	n := i + len(field)
	return b[:n:n], nil
}

// The per-request fields, as the encoder lays them out at the end of a
// top-level object.
const (
	cachedField   = `"cached": `
	servedInField = `"served_in": "`
	servedInOpen  = ",\n  " + servedInField
	servedInClose = "\"\n}\n"
)

// writeStored writes a stored head followed by the per-request tail
// pieces. The only variable piece, served_in, is a time.Duration string,
// which JSON never needs to escape.
func writeStored(w http.ResponseWriter, head []byte, tail ...string) {
	b := make([]byte, 0, 48)
	for _, t := range tail {
		b = append(b, t...)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(head)
	w.Write(b)
}

// The batch answer around its items, as the encoder lays out a
// batchResponse: items sit at depth 2, one indented object each.
const (
	batchItemPrefix = "    "
	batchItemSep    = ",\n" + batchItemPrefix
	batchClose      = "\n  ],\n  " + servedInField
)

// batchItemJSON renders one batch item as it appears inside the batch
// answer. scratch is reused across the items of one request.
func batchItemJSON(scratch *bytes.Buffer, item batchItemResponse) ([]byte, error) {
	scratch.Reset()
	if err := indentJSON(scratch, item, batchItemPrefix); err != nil {
		return nil, err
	}
	return bytes.Clone(scratch.Bytes()), nil
}

// writeBatch writes the batch answer: the request-level fields, every
// item's bytes (stored ones straight from their placements), then the
// timer. The answer is assembled in one buffer sized up front and written
// once, so net/http sends a large batch as one chunk, not one per item.
func writeBatch(w http.ResponseWriter, platform string, seed uint64, items [][]byte, servedIn string) {
	name, _ := json.Marshal(platform) // a string always marshals
	// 96 bytes cover the fixed keys and brackets and the seed's digits.
	n := 96 + len(name) + len(servedIn)
	for _, item := range items {
		n += len(batchItemSep) + len(item)
	}
	b := make([]byte, 0, n)
	b = append(b, "{\n  \"platform\": "...)
	b = append(b, name...)
	b = append(b, ",\n  \"seed\": "...)
	b = strconv.AppendUint(b, seed, 10)
	b = append(b, ",\n  \"results\": [\n"+batchItemPrefix...)
	for i, item := range items {
		if i > 0 {
			b = append(b, batchItemSep...)
		}
		b = append(b, item...)
	}
	b = append(b, batchClose...)
	b = append(b, servedIn...)
	b = append(b, servedInClose...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
}
