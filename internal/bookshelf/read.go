package bookshelf

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"dtgp/internal/geom"
	"dtgp/internal/liberty"
	"dtgp/internal/netlist"
	"dtgp/internal/sdc"
	"dtgp/internal/verilog"
)

// Placement holds parsed .pl content.
type Placement struct {
	// Pos maps node name → lower-left position.
	Pos map[string]geom.Point
	// Fixed marks /FIXED nodes.
	Fixed map[string]bool
}

// ParsePl reads a .pl file. Errors name the offending line number so a CLI
// diagnostic can point straight at the malformed input.
func ParsePl(src string) (*Placement, error) {
	p := &Placement{Pos: map[string]geom.Point{}, Fixed: map[string]bool{}}
	sc := bufio.NewScanner(strings.NewReader(src))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	first := true
	ln := 0
	for sc.Scan() {
		ln++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if first {
			if !strings.HasPrefix(line, "UCLA pl") {
				return nil, fmt.Errorf("bookshelf: line %d: not a pl file: %q", ln, line)
			}
			first = false
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			return nil, fmt.Errorf("bookshelf: line %d: bad pl line %q", ln, line)
		}
		x, okX := parseFinite(fields[1])
		y, okY := parseFinite(fields[2])
		if !okX || !okY {
			return nil, fmt.Errorf("bookshelf: line %d: bad coordinates in %q (want finite numbers)", ln, line)
		}
		p.Pos[fields[0]] = geom.Point{X: x, Y: y}
		if strings.Contains(line, "/FIXED") {
			p.Fixed[fields[0]] = true
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bookshelf: reading pl: %w", err)
	}
	return p, nil
}

// parseFinite parses a finite number. strconv accepts "nan" and "inf",
// which would flow through placement and timing as poisoned coordinates
// or sizes, so they are rejected like any other malformed number.
func parseFinite(s string) (float64, bool) {
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil && !math.IsNaN(v) && !math.IsInf(v, 0)
}

// Rows holds parsed .scl content.
type Rows struct {
	Rows []netlist.Row
}

// ParseScl reads a .scl file.
func ParseScl(src string) (*Rows, error) {
	out := &Rows{}
	sc := bufio.NewScanner(strings.NewReader(src))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var cur *netlist.Row
	attr := func(line, key string) (float64, bool) {
		if !strings.HasPrefix(line, key) {
			return 0, false
		}
		rest := strings.TrimSpace(strings.TrimPrefix(line, key))
		rest = strings.TrimSpace(strings.TrimPrefix(rest, ":"))
		f := strings.Fields(rest)
		if len(f) == 0 {
			return 0, false
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, false
		}
		return v, true
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "CoreRow"):
			out.Rows = append(out.Rows, netlist.Row{})
			cur = &out.Rows[len(out.Rows)-1]
		case line == "End":
			cur = nil
		case cur != nil:
			if v, ok := attr(line, "Coordinate"); ok {
				cur.Origin.Y = v
			}
			if v, ok := attr(line, "Height"); ok {
				cur.Height = v
			}
			if v, ok := attr(line, "Sitewidth"); ok {
				cur.SiteWidth = v
			}
			if strings.HasPrefix(line, "SubrowOrigin") {
				// "SubrowOrigin : x NumSites : n"
				f := strings.Fields(line)
				for i := 0; i+1 < len(f); i++ {
					switch f[i] {
					case "SubrowOrigin":
						if i+2 < len(f) && f[i+1] == ":" {
							if v, err := strconv.ParseFloat(f[i+2], 64); err == nil {
								cur.Origin.X = v
							}
						}
					case "NumSites":
						if i+2 < len(f) && f[i+1] == ":" {
							if v, err := strconv.Atoi(f[i+2]); err == nil {
								cur.NumSites = v
							}
						}
					}
				}
			}
		}
	}
	if len(out.Rows) == 0 {
		return nil, fmt.Errorf("bookshelf: no rows in scl")
	}
	return out, sc.Err()
}

// NodeInfo holds parsed .nodes content.
type NodeInfo struct {
	W, H     map[string]float64
	Terminal map[string]bool
}

// ParseNodes reads a .nodes file. Errors name the offending line number.
func ParseNodes(src string) (*NodeInfo, error) {
	ni := &NodeInfo{W: map[string]float64{}, H: map[string]float64{}, Terminal: map[string]bool{}}
	sc := bufio.NewScanner(strings.NewReader(src))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	ln := 0
	for sc.Scan() {
		ln++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "UCLA") || strings.HasPrefix(line, "#") ||
			strings.HasPrefix(line, "NumNodes") || strings.HasPrefix(line, "NumTerminals") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		w, okW := parseFinite(f[1])
		h, okH := parseFinite(f[2])
		if !okW || !okH {
			return nil, fmt.Errorf("bookshelf: line %d: bad nodes line %q (want finite sizes)", ln, line)
		}
		ni.W[f[0]] = w
		ni.H[f[0]] = h
		if len(f) > 3 && f[3] == "terminal" {
			ni.Terminal[f[0]] = true
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bookshelf: reading nodes: %w", err)
	}
	return ni, nil
}

// Load reads a complete saved benchmark (dir/base.{v,lib,sdc,pl,scl,nodes})
// back into a bound, placed Design plus its constraints. Every error is
// wrapped with the path of the file it arose in; parse errors additionally
// carry the line number from the parser.
func Load(dir, base string) (*netlist.Design, *sdc.Constraints, error) {
	path := func(ext string) string { return filepath.Join(dir, base+ext) }
	read := func(ext string) (string, error) {
		data, err := os.ReadFile(path(ext))
		if err != nil {
			return "", err
		}
		return string(data), nil
	}

	libSrc, err := read(".lib")
	if err != nil {
		return nil, nil, fmt.Errorf("load benchmark: %w", err)
	}
	lib, err := liberty.Parse(libSrc)
	if err != nil {
		return nil, nil, fmt.Errorf("load benchmark: %s: %w", path(".lib"), err)
	}

	vSrc, err := read(".v")
	if err != nil {
		return nil, nil, fmt.Errorf("load benchmark: %w", err)
	}
	vn, err := verilog.Parse(vSrc)
	if err != nil {
		return nil, nil, fmt.Errorf("load benchmark: %s: %w", path(".v"), err)
	}
	d, err := vn.Build(lib)
	if err != nil {
		return nil, nil, fmt.Errorf("load benchmark: %s: %w", path(".v"), err)
	}

	plSrc, err := read(".pl")
	if err != nil {
		return nil, nil, fmt.Errorf("load benchmark: %w", err)
	}
	pl, err := ParsePl(plSrc)
	if err != nil {
		return nil, nil, fmt.Errorf("load benchmark: %s: %w", path(".pl"), err)
	}
	for ci := range d.Cells {
		c := &d.Cells[ci]
		if pos, ok := pl.Pos[c.Name]; ok {
			c.Pos = pos
		}
	}

	sclSrc, err := read(".scl")
	if err != nil {
		return nil, nil, fmt.Errorf("load benchmark: %w", err)
	}
	rows, err := ParseScl(sclSrc)
	if err != nil {
		return nil, nil, fmt.Errorf("load benchmark: %s: %w", path(".scl"), err)
	}
	d.Rows = rows.Rows
	// Die = bounding box of rows.
	lo := geom.Point{X: math.Inf(1), Y: math.Inf(1)}
	hi := geom.Point{X: math.Inf(-1), Y: math.Inf(-1)}
	for _, r := range d.Rows {
		lo.X = math.Min(lo.X, r.Origin.X)
		lo.Y = math.Min(lo.Y, r.Origin.Y)
		hi.X = math.Max(hi.X, r.Right())
		hi.Y = math.Max(hi.Y, r.Origin.Y+r.Height)
	}
	d.Die = geom.Rect{Lo: lo, Hi: hi}

	// Cross-check node sizes when the .nodes file is present. The file is
	// optional, so only a genuine absence is ignored — a present-but-
	// unreadable file (permissions, I/O error) must fail loudly, not be
	// silently skipped.
	nodesSrc, err := read(".nodes")
	switch {
	case err == nil:
		info, err := ParseNodes(nodesSrc)
		if err != nil {
			return nil, nil, fmt.Errorf("load benchmark: %s: %w", path(".nodes"), err)
		}
		for ci := range d.Cells {
			c := &d.Cells[ci]
			if w, ok := info.W[c.Name]; ok && c.Lib >= 0 {
				if math.Abs(w-c.W) > 1e-6 {
					return nil, nil, fmt.Errorf("load benchmark: %s: node %s width %g disagrees with library %g",
						path(".nodes"), c.Name, w, c.W)
				}
			}
		}
	case errors.Is(err, fs.ErrNotExist):
		// Optional file, genuinely absent.
	default:
		return nil, nil, fmt.Errorf("load benchmark: %w", err)
	}

	var con *sdc.Constraints
	sdcSrc, err := read(".sdc")
	switch {
	case err == nil:
		con, err = sdc.Parse(sdcSrc)
		if err != nil {
			return nil, nil, fmt.Errorf("load benchmark: %s: %w", path(".sdc"), err)
		}
	case errors.Is(err, fs.ErrNotExist):
		// Constraints are optional (wirelength-only benchmarks).
	default:
		return nil, nil, fmt.Errorf("load benchmark: %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, nil, fmt.Errorf("load benchmark: %s/%s: %w", dir, base, err)
	}
	return d, con, nil
}
