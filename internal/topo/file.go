package topo

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Description files: MCTOP topologies are created by libmctop once and then
// loaded from disk (Section 2). The format is line-oriented text, ordered,
// and round-trips exactly through Encode and Decode.

const fileMagic = "mctop 1"

// Encode writes a topology spec as a description file.
func Encode(w io.Writer, s *Spec) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, fileMagic)
	fmt.Fprintf(bw, "name %s\n", sanitize(s.Name))
	fmt.Fprintf(bw, "contexts %d\n", s.Contexts)
	fmt.Fprintf(bw, "nodes %d\n", s.Nodes)
	fmt.Fprintf(bw, "smt %d\n", s.SMTWays)
	fmt.Fprintf(bw, "freq_ghz %g\n", s.FreqGHz)
	for i, l := range s.Levels {
		fmt.Fprintf(bw, "level %d %s %s %d %d %d\n", i, l.Kind, sanitize(l.Name), l.Min, l.Median, l.Max)
		for _, g := range l.Groups {
			fmt.Fprintf(bw, "group %d :", i)
			for _, ctx := range g {
				fmt.Fprintf(bw, " %d", ctx)
			}
			fmt.Fprintln(bw)
		}
	}
	fmt.Fprint(bw, "node_of_socket")
	for _, n := range s.NodeOfSocket {
		fmt.Fprintf(bw, " %d", n)
	}
	fmt.Fprintln(bw)
	for _, row := range s.SocketLat {
		fmt.Fprint(bw, "socket_lat")
		for _, v := range row {
			fmt.Fprintf(bw, " %d", v)
		}
		fmt.Fprintln(bw)
	}
	for _, row := range s.SocketBW {
		fmt.Fprint(bw, "socket_bw")
		for _, v := range row {
			fmt.Fprintf(bw, " %g", v)
		}
		fmt.Fprintln(bw)
	}
	for _, row := range s.MemLat {
		fmt.Fprint(bw, "mem_lat")
		for _, v := range row {
			fmt.Fprintf(bw, " %d", v)
		}
		fmt.Fprintln(bw)
	}
	for _, row := range s.MemBW {
		fmt.Fprint(bw, "mem_bw")
		for _, v := range row {
			fmt.Fprintf(bw, " %g", v)
		}
		fmt.Fprintln(bw)
	}
	if s.StreamCoreBW > 0 {
		fmt.Fprintf(bw, "stream_core_bw %g\n", s.StreamCoreBW)
	}
	if s.Cache != nil {
		c := s.Cache
		fmt.Fprintf(bw, "cache %d %d %d %d %d %d\n",
			c.LatL1, c.LatL2, c.LatLLC, c.SizeL1, c.SizeL2, c.SizeLLC)
	}
	if s.Power != nil {
		p := s.Power
		fmt.Fprintf(bw, "power %g %g %g %g %g %g %g %g\n",
			p.Idle, p.Full, p.FirstCtx, p.SecondCtx,
			p.PerSocketBase, p.PerFirstCtx, p.PerExtraCtx, p.DRAM)
	}
	fmt.Fprintln(bw, "end")
	return bw.Flush()
}

func sanitize(s string) string {
	if s == "" {
		return "-"
	}
	return strings.ReplaceAll(s, " ", "_")
}

func unsanitize(s string) string {
	if s == "-" {
		return ""
	}
	return s
}

// Decode parses a description file back into a spec.
func Decode(r io.Reader) (*Spec, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<22)
	line := 0
	next := func() (string, bool) {
		for sc.Scan() {
			line++
			t := strings.TrimSpace(sc.Text())
			if t == "" || strings.HasPrefix(t, "#") {
				continue
			}
			return t, true
		}
		return "", false
	}
	fail := func(format string, args ...interface{}) error {
		return fmt.Errorf("topo: description line %d: %s", line, fmt.Sprintf(format, args...))
	}

	first, ok := next()
	if !ok || first != fileMagic {
		return nil, fail("bad magic %q", first)
	}
	s := &Spec{}
	var curLevel = -1
	for {
		t, ok := next()
		if !ok {
			return nil, fail("missing end marker")
		}
		if t == "end" {
			break
		}
		fields := strings.Fields(t)
		key := fields[0]
		args := fields[1:]
		switch key {
		case "name":
			if len(args) != 1 {
				return nil, fail("name wants 1 arg")
			}
			s.Name = unsanitize(args[0])
		case "contexts":
			if err := parseInt(args, &s.Contexts); err != nil {
				return nil, fail("contexts: %v", err)
			}
		case "nodes":
			if err := parseInt(args, &s.Nodes); err != nil {
				return nil, fail("nodes: %v", err)
			}
		case "smt":
			if err := parseInt(args, &s.SMTWays); err != nil {
				return nil, fail("smt: %v", err)
			}
		case "freq_ghz":
			if len(args) != 1 {
				return nil, fail("freq_ghz wants 1 arg")
			}
			f, err := strconv.ParseFloat(args[0], 64)
			if err != nil {
				return nil, fail("freq_ghz: %v", err)
			}
			s.FreqGHz = f
		case "level":
			if len(args) != 6 {
				return nil, fail("level wants 6 args, got %d", len(args))
			}
			idx, err := strconv.Atoi(args[0])
			if err != nil || idx != len(s.Levels) {
				return nil, fail("level index %q out of order", args[0])
			}
			var kind LevelKind
			switch args[1] {
			case "group":
				kind = LevelGroup
			case "socket":
				kind = LevelSocket
			case "cross":
				kind = LevelCross
			default:
				return nil, fail("unknown level kind %q", args[1])
			}
			min, err1 := strconv.ParseInt(args[3], 10, 64)
			med, err2 := strconv.ParseInt(args[4], 10, 64)
			max, err3 := strconv.ParseInt(args[5], 10, 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fail("level latencies unparsable")
			}
			s.Levels = append(s.Levels, Level{
				Name: unsanitize(args[2]), Kind: kind, Min: min, Median: med, Max: max,
			})
			curLevel = idx
		case "group":
			if len(args) < 3 || args[1] != ":" {
				return nil, fail("group wants 'group <level> : ctx...'")
			}
			idx, err := strconv.Atoi(args[0])
			if err != nil || idx != curLevel {
				return nil, fail("group level %q does not match current level %d", args[0], curLevel)
			}
			var g []int
			for _, a := range args[2:] {
				v, err := strconv.Atoi(a)
				if err != nil {
					return nil, fail("group member %q: %v", a, err)
				}
				g = append(g, v)
			}
			s.Levels[idx].Groups = append(s.Levels[idx].Groups, g)
		case "node_of_socket":
			for _, a := range args {
				v, err := strconv.Atoi(a)
				if err != nil {
					return nil, fail("node_of_socket: %v", err)
				}
				s.NodeOfSocket = append(s.NodeOfSocket, v)
			}
		case "socket_lat":
			row, err := parseInt64Row(args)
			if err != nil {
				return nil, fail("socket_lat: %v", err)
			}
			s.SocketLat = append(s.SocketLat, row)
		case "socket_bw":
			row, err := parseFloatRow(args)
			if err != nil {
				return nil, fail("socket_bw: %v", err)
			}
			s.SocketBW = append(s.SocketBW, row)
		case "mem_lat":
			row, err := parseInt64Row(args)
			if err != nil {
				return nil, fail("mem_lat: %v", err)
			}
			s.MemLat = append(s.MemLat, row)
		case "mem_bw":
			row, err := parseFloatRow(args)
			if err != nil {
				return nil, fail("mem_bw: %v", err)
			}
			s.MemBW = append(s.MemBW, row)
		case "stream_core_bw":
			if len(args) != 1 {
				return nil, fail("stream_core_bw wants 1 arg")
			}
			f, err := strconv.ParseFloat(args[0], 64)
			if err != nil {
				return nil, fail("stream_core_bw: %v", err)
			}
			s.StreamCoreBW = f
		case "cache":
			if len(args) != 6 {
				return nil, fail("cache wants 6 args")
			}
			vals, err := parseInt64Row(args)
			if err != nil {
				return nil, fail("cache: %v", err)
			}
			s.Cache = &CacheInfo{
				LatL1: vals[0], LatL2: vals[1], LatLLC: vals[2],
				SizeL1: vals[3], SizeL2: vals[4], SizeLLC: vals[5],
			}
		case "power":
			if len(args) != 8 {
				return nil, fail("power wants 8 args")
			}
			vals, err := parseFloatRow(args)
			if err != nil {
				return nil, fail("power: %v", err)
			}
			s.Power = &PowerInfo{
				Idle: vals[0], Full: vals[1], FirstCtx: vals[2], SecondCtx: vals[3],
				PerSocketBase: vals[4], PerFirstCtx: vals[5], PerExtraCtx: vals[6], DRAM: vals[7],
			}
		default:
			return nil, fail("unknown directive %q", key)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

func parseInt(args []string, out *int) error {
	if len(args) != 1 {
		return fmt.Errorf("want 1 arg, got %d", len(args))
	}
	v, err := strconv.Atoi(args[0])
	if err != nil {
		return err
	}
	*out = v
	return nil
}

func parseInt64Row(args []string) ([]int64, error) {
	row := make([]int64, 0, len(args))
	for _, a := range args {
		v, err := strconv.ParseInt(a, 10, 64)
		if err != nil {
			return nil, err
		}
		row = append(row, v)
	}
	return row, nil
}

func parseFloatRow(args []string) ([]float64, error) {
	row := make([]float64, 0, len(args))
	for _, a := range args {
		v, err := strconv.ParseFloat(a, 64)
		if err != nil {
			return nil, err
		}
		row = append(row, v)
	}
	return row, nil
}

// WriteFileAtomic writes a file via a temp file in the target directory
// plus rename, so a crash mid-write can never leave a torn file where a
// reader looks. Shared by SaveFile and the registry's spool tier — any
// future durability fix (fsync before rename, say) lands in one place.
func WriteFileAtomic(path string, write func(w io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// SaveFile writes a topology's description file to disk atomically (a
// crashed writer can never leave a torn description file behind).
func SaveFile(path string, t *Topology) error {
	spec := t.Spec()
	return WriteFileAtomic(path, func(w io.Writer) error {
		return Encode(w, &spec)
	})
}

// LoadFile reads a description file and builds the topology.
func LoadFile(path string) (*Topology, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	spec, err := Decode(f)
	if err != nil {
		return nil, err
	}
	return FromSpec(*spec)
}
