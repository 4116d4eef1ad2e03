package spool

// The spool's interchange codec, factored out of the file-backed tier so
// every carrier of the on-disk format — the spool itself, `mctop
// export/import/fetch`, mctopd's /v1/export endpoint and the remote store
// tier that consumes it — encodes and decodes the exact same bytes. A
// topology travels as a `#key`-headed description file; a placement as the
// compact sidecar documented on EncodeSidecar. Everything here works on
// io.Reader/io.Writer: the spool wraps files around it, the fleet tier
// wraps HTTP bodies.

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/place"
	"repro/internal/taskmap"
	"repro/internal/topo"
)

// KeyLine is the `#key` header line that leads every interchange file.
func KeyLine(key string) string { return keyHeader + key + "\n" }

// EncodeTopology writes a topology as a `#key`-headed MCTOP description
// file: the interchange format of the spool, `mctop export` and mctopd's
// /v1/export. The header is a comment, so any .mctop reader decodes the
// body; key may be empty for a bare description file.
func EncodeTopology(w io.Writer, key string, t *topo.Topology) error {
	if key != "" {
		if _, err := io.WriteString(w, KeyLine(key)); err != nil {
			return err
		}
	}
	spec := t.Spec()
	return topo.Encode(w, &spec)
}

// DecodeTopology reads a description file — spooled, fetched or bare — and
// returns its registry key (empty when the stream has no `#key` header) and
// the topology.
func DecodeTopology(r io.Reader) (key string, t *topo.Topology, err error) {
	br := bufio.NewReader(r)
	// Peel leading `#key` headers by hand; topo.Decode skips all comments,
	// but the key must be surfaced, not skipped.
	for {
		peek, err := br.Peek(1)
		if err != nil {
			return "", nil, err
		}
		if peek[0] != '#' {
			break
		}
		line, err := br.ReadString('\n')
		if err != nil && err != io.EOF {
			return "", nil, err
		}
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, keyHeader) {
			key = strings.TrimSpace(strings.TrimPrefix(line, keyHeader))
		}
		if err == io.EOF {
			return "", nil, fmt.Errorf("only comments")
		}
	}
	spec, err := topo.Decode(br)
	if err != nil {
		return "", nil, err
	}
	t, err = topo.FromSpec(*spec)
	if err != nil {
		return "", nil, err
	}
	return key, t, nil
}

// DecodeTopologyFile is DecodeTopology over a file — the interchange entry
// point behind `mctop import`.
func DecodeTopologyFile(path string) (key string, t *topo.Topology, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", nil, err
	}
	defer f.Close()
	key, t, err = DecodeTopology(f)
	if err != nil {
		return "", nil, fmt.Errorf("%s: %w", path, err)
	}
	return key, t, nil
}

// Sidecar is the decoded form of a .place file: everything needed to
// rebuild the placement (via place.Reconstruct on the referenced topology)
// without re-running the policy.
type Sidecar struct {
	// Key is the registry placement key (from the #key header; may be
	// empty on hand-written files).
	Key string
	// TopoKey is the registry key of the topology the placement was
	// computed on.
	TopoKey string
	// Policy is the policy name recorded by the placement.
	Policy string
	// Ctxs is the assignment order (hardware context per thread slot).
	Ctxs []int
}

// EncodeSidecar writes the .place sidecar format:
//
//	#key <placement key>
//	mctop-place 1
//	topokey <topology key>
//	policy <name>
//	nthreads <n>
//	ctxs <id...>           (omitted when the placement has no slots)
//	end
func EncodeSidecar(w io.Writer, key, topoKey string, p *place.Placement) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(KeyLine(key))
	fmt.Fprintln(bw, placeMagic)
	fmt.Fprintf(bw, "topokey %s\n", topoKey)
	fmt.Fprintf(bw, "policy %s\n", p.PolicyName())
	ctxs := p.Contexts()
	fmt.Fprintf(bw, "nthreads %d\n", len(ctxs))
	if len(ctxs) > 0 {
		bw.WriteString("ctxs")
		for _, c := range ctxs {
			fmt.Fprintf(bw, " %d", c)
		}
		bw.WriteByte('\n')
	}
	fmt.Fprintln(bw, "end")
	return bw.Flush()
}

// MapSidecar is the decoded form of a .map file: everything needed to
// rebuild the mapping (via taskmap.Reconstruct on the referenced topology)
// without re-running the mapper.
type MapSidecar struct {
	// Key is the registry mapping key (from the #key header; may be empty
	// on hand-written files).
	Key string
	// TopoKey is the registry key of the topology the mapping was computed
	// on.
	TopoKey string
	// DAGName is the (display-only) name of the mapped DAG; may be empty.
	DAGName string
	// DAGHash / Nodes / Edges identify the DAG structurally, matching the
	// fields embedded in the mapping key.
	DAGHash uint64
	Nodes   int
	Edges   int
	// Algo and Cost record how the assignment was produced and its
	// estimated completion time in cycles.
	Algo string
	Cost int64
	// Assign is the task → hardware-context assignment, one per node.
	Assign []int
}

// EncodeMapSidecar writes the .map sidecar format:
//
//	#key <mapping key>
//	mctop-map 1
//	topokey <topology key>
//	dagname <name>                 (omitted when the DAG is unnamed)
//	dag <hash16hex> <nodes> <edges>
//	algo <name>
//	cost <cycles>
//	assign <ctx...>
//	end
func EncodeMapSidecar(w io.Writer, key, topoKey string, m *taskmap.Mapping) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(KeyLine(key))
	fmt.Fprintln(bw, mapMagic)
	fmt.Fprintf(bw, "topokey %s\n", topoKey)
	if name := m.DAGName(); name != "" {
		fmt.Fprintf(bw, "dagname %s\n", name)
	}
	fmt.Fprintf(bw, "dag %016x %d %d\n", m.DAGHash(), m.NumNodes(), m.NumEdges())
	fmt.Fprintf(bw, "algo %s\n", m.Algo())
	fmt.Fprintf(bw, "cost %d\n", m.Cost())
	bw.WriteString("assign")
	for _, c := range m.Assignment() {
		fmt.Fprintf(bw, " %d", c)
	}
	bw.WriteByte('\n')
	fmt.Fprintln(bw, "end")
	return bw.Flush()
}

// DecodeMapSidecar parses a .map sidecar.
func DecodeMapSidecar(r io.Reader) (*MapSidecar, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<22)
	side := &MapSidecar{Nodes: -1, Cost: -1}
	sawMagic, sawEnd, sawAlgo := false, false, false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if strings.HasPrefix(line, keyHeader) {
				side.Key = strings.TrimSpace(strings.TrimPrefix(line, keyHeader))
			}
			continue
		}
		if !sawMagic {
			if line != mapMagic {
				return nil, fmt.Errorf("bad magic %q", line)
			}
			sawMagic = true
			continue
		}
		if line == "end" {
			sawEnd = true
			break
		}
		directive, rest, _ := strings.Cut(line, " ")
		switch directive {
		case "topokey":
			side.TopoKey = strings.TrimSpace(rest)
		case "dagname":
			side.DAGName = strings.TrimSpace(rest)
		case "dag":
			flds := strings.Fields(rest)
			if len(flds) != 3 {
				return nil, fmt.Errorf("bad dag directive %q", rest)
			}
			if len(flds[0]) != 16 || strings.ToLower(flds[0]) != flds[0] {
				return nil, fmt.Errorf("bad DAG hash %q", flds[0])
			}
			h, err := strconv.ParseUint(flds[0], 16, 64)
			if err != nil {
				return nil, fmt.Errorf("bad DAG hash %q", flds[0])
			}
			n, err := strconv.Atoi(flds[1])
			if err != nil || n < 1 {
				return nil, fmt.Errorf("bad node count %q", flds[1])
			}
			e, err := strconv.Atoi(flds[2])
			if err != nil || e < 0 {
				return nil, fmt.Errorf("bad edge count %q", flds[2])
			}
			side.DAGHash, side.Nodes, side.Edges = h, n, e
		case "algo":
			side.Algo = strings.TrimSpace(rest)
			sawAlgo = true
		case "cost":
			c, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
			if err != nil || c < 0 {
				return nil, fmt.Errorf("bad cost %q", rest)
			}
			side.Cost = c
		case "assign":
			for _, fld := range strings.Fields(rest) {
				v, err := strconv.Atoi(fld)
				if err != nil {
					return nil, fmt.Errorf("bad assign ctx %q", fld)
				}
				side.Assign = append(side.Assign, v)
			}
		default:
			return nil, fmt.Errorf("unknown directive %q", directive)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	switch {
	case !sawMagic:
		return nil, fmt.Errorf("empty sidecar")
	case !sawEnd:
		return nil, fmt.Errorf("missing end marker")
	case side.TopoKey == "":
		return nil, fmt.Errorf("missing topokey")
	case side.Nodes < 0:
		return nil, fmt.Errorf("missing dag directive")
	case !sawAlgo || side.Algo == "":
		return nil, fmt.Errorf("missing algo")
	case side.Cost < 0:
		return nil, fmt.Errorf("missing cost")
	case len(side.Assign) != side.Nodes:
		return nil, fmt.Errorf("%d nodes but %d assignments", side.Nodes, len(side.Assign))
	}
	return side, nil
}

// DecodeSidecar parses a .place sidecar.
func DecodeSidecar(r io.Reader) (*Sidecar, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<22)
	side := &Sidecar{}
	sawMagic, sawEnd := false, false
	nThreads := -1
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if strings.HasPrefix(line, keyHeader) {
				side.Key = strings.TrimSpace(strings.TrimPrefix(line, keyHeader))
			}
			continue
		}
		if !sawMagic {
			if line != placeMagic {
				return nil, fmt.Errorf("bad magic %q", line)
			}
			sawMagic = true
			continue
		}
		if line == "end" {
			sawEnd = true
			break
		}
		directive, rest, _ := strings.Cut(line, " ")
		switch directive {
		case "topokey":
			side.TopoKey = strings.TrimSpace(rest)
		case "policy":
			side.Policy = strings.TrimSpace(rest)
		case "nthreads":
			n, err := strconv.Atoi(strings.TrimSpace(rest))
			if err != nil || n < 0 {
				return nil, fmt.Errorf("bad nthreads %q", rest)
			}
			nThreads = n
		case "ctxs":
			for _, fld := range strings.Fields(rest) {
				v, err := strconv.Atoi(fld)
				if err != nil {
					return nil, fmt.Errorf("bad ctx %q", fld)
				}
				side.Ctxs = append(side.Ctxs, v)
			}
		default:
			return nil, fmt.Errorf("unknown directive %q", directive)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	switch {
	case !sawMagic:
		return nil, fmt.Errorf("empty sidecar")
	case !sawEnd:
		return nil, fmt.Errorf("missing end marker")
	case side.TopoKey == "":
		return nil, fmt.Errorf("missing topokey")
	case side.Policy == "":
		return nil, fmt.Errorf("missing policy")
	case nThreads != len(side.Ctxs):
		return nil, fmt.Errorf("nthreads %d but %d ctxs", nThreads, len(side.Ctxs))
	}
	return side, nil
}
