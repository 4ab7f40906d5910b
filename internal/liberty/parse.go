package liberty

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// The Liberty format is a nested group syntax:
//
//	group_name (arg1, arg2) {
//	    simple_attr : value ;
//	    complex_attr (v1, v2, ...) ;
//	    nested_group (args) { ... }
//	}
//
// This file implements a tokenizer and recursive-descent parser for that
// syntax, followed by an interpreter for the subset of groups and attributes
// the timing engine needs (library, cell, pin, timing, lu_table values,
// capacitance, direction, clock, timing_sense, timing_type, area, and the
// custom dtgp_* geometry attributes our writer emits).

// Group is a parsed Liberty group statement.
type Group struct {
	Name   string
	Args   []string
	Attrs  []Attr
	Groups []*Group
}

// Attr is a simple or complex attribute inside a group. Simple attributes
// have exactly one value; complex attributes carry the parenthesised list.
type Attr struct {
	Name   string
	Values []string
}

// attr returns the first value of the named attribute and whether it exists.
func (g *Group) attr(name string) (string, bool) {
	for i := range g.Attrs {
		if g.Attrs[i].Name == name {
			if len(g.Attrs[i].Values) == 0 {
				return "", true
			}
			return g.Attrs[i].Values[0], true
		}
	}
	return "", false
}

func (g *Group) attrFloat(name string, def float64) (float64, error) {
	s, ok := g.attr(name)
	if !ok {
		return def, nil
	}
	v, err := parseNumber(strings.TrimSpace(s))
	if err != nil {
		return 0, fmt.Errorf("liberty: attribute %s: %w", name, err)
	}
	return v, nil
}

// parseNumber parses one Liberty number. strconv also accepts nan and inf,
// which no attribute or table may hold: the STA's max and min would drop a
// poisoned arrival silently instead of reporting it.
func parseNumber(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		err = fmt.Errorf("non-finite value %v", v)
	}
	return v, err
}

type tokenKind uint8

const (
	tokIdent tokenKind = iota
	tokString
	tokLParen
	tokRParen
	tokLBrace
	tokRBrace
	tokColon
	tokSemi
	tokComma
	tokEOF
)

type token struct {
	kind tokenKind
	text string
	line int
}

type lexer struct {
	src  string
	pos  int
	line int
}

func (lx *lexer) errf(format string, args ...any) error {
	return fmt.Errorf("liberty: line %d: %s", lx.line, fmt.Sprintf(format, args...))
}

func (lx *lexer) next() (token, error) {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c == '\n':
			lx.line++
			lx.pos++
		case c == ' ' || c == '\t' || c == '\r':
			lx.pos++
		case c == '\\' && lx.pos+1 < len(lx.src) && (lx.src[lx.pos+1] == '\n' || lx.src[lx.pos+1] == '\r'):
			// Line continuation.
			lx.pos++
		case c == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '*':
			end := strings.Index(lx.src[lx.pos+2:], "*/")
			if end < 0 {
				return token{}, lx.errf("unterminated block comment")
			}
			lx.line += strings.Count(lx.src[lx.pos:lx.pos+2+end+2], "\n")
			lx.pos += 2 + end + 2
		case c == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '/':
			nl := strings.IndexByte(lx.src[lx.pos:], '\n')
			if nl < 0 {
				lx.pos = len(lx.src)
			} else {
				lx.pos += nl
			}
		default:
			goto scan
		}
	}
	return token{kind: tokEOF, line: lx.line}, nil

scan:
	c := lx.src[lx.pos]
	start := lx.line
	switch c {
	case '(':
		lx.pos++
		return token{tokLParen, "(", start}, nil
	case ')':
		lx.pos++
		return token{tokRParen, ")", start}, nil
	case '{':
		lx.pos++
		return token{tokLBrace, "{", start}, nil
	case '}':
		lx.pos++
		return token{tokRBrace, "}", start}, nil
	case ':':
		lx.pos++
		return token{tokColon, ":", start}, nil
	case ';':
		lx.pos++
		return token{tokSemi, ";", start}, nil
	case ',':
		lx.pos++
		return token{tokComma, ",", start}, nil
	case '"':
		end := lx.pos + 1
		for end < len(lx.src) && lx.src[end] != '"' {
			if lx.src[end] == '\n' {
				lx.line++
			}
			end++
		}
		if end >= len(lx.src) {
			return token{}, lx.errf("unterminated string")
		}
		s := lx.src[lx.pos+1 : end]
		lx.pos = end + 1
		return token{tokString, s, start}, nil
	}
	// Identifier / number / unit: consume until a delimiter.
	end := lx.pos
	for end < len(lx.src) {
		c := lx.src[end]
		if c == '(' || c == ')' || c == '{' || c == '}' || c == ':' || c == ';' ||
			c == ',' || c == '"' || c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			break
		}
		end++
	}
	if end == lx.pos {
		return token{}, lx.errf("unexpected character %q", c)
	}
	s := lx.src[lx.pos:end]
	lx.pos = end
	return token{tokIdent, s, start}, nil
}

type parser struct {
	lx   lexer
	tok  token
	peek *token
}

func (p *parser) advance() error {
	if p.peek != nil {
		p.tok = *p.peek
		p.peek = nil
		return nil
	}
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) peekTok() (token, error) {
	if p.peek == nil {
		t, err := p.lx.next()
		if err != nil {
			return token{}, err
		}
		p.peek = &t
	}
	return *p.peek, nil
}

// ParseGroups parses Liberty source text into its top-level groups (normally
// a single `library (...) { ... }` group).
func ParseGroups(src string) ([]*Group, error) {
	p := &parser{lx: lexer{src: src, line: 1}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	var groups []*Group
	for p.tok.kind != tokEOF {
		g, err := p.parseGroup()
		if err != nil {
			return nil, err
		}
		groups = append(groups, g)
	}
	return groups, nil
}

// parseGroup parses `name (args) { body }` with p.tok at the name.
func (p *parser) parseGroup() (*Group, error) {
	if p.tok.kind != tokIdent {
		return nil, fmt.Errorf("liberty: line %d: expected group name, got %q", p.tok.line, p.tok.text)
	}
	g := &Group{Name: p.tok.text}
	if err := p.advance(); err != nil {
		return nil, err
	}
	if p.tok.kind != tokLParen {
		return nil, fmt.Errorf("liberty: line %d: expected '(' after %q", p.tok.line, g.Name)
	}
	args, err := p.parseParenList()
	if err != nil {
		return nil, err
	}
	g.Args = args
	if p.tok.kind != tokLBrace {
		return nil, fmt.Errorf("liberty: line %d: expected '{' in group %q", p.tok.line, g.Name)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	for p.tok.kind != tokRBrace {
		if p.tok.kind == tokEOF {
			return nil, fmt.Errorf("liberty: unexpected EOF in group %q", g.Name)
		}
		if p.tok.kind != tokIdent {
			return nil, fmt.Errorf("liberty: line %d: expected statement in group %q, got %q",
				p.tok.line, g.Name, p.tok.text)
		}
		name := p.tok.text
		nxt, err := p.peekTok()
		if err != nil {
			return nil, err
		}
		switch nxt.kind {
		case tokColon:
			// Simple attribute: name : value ;
			if err := p.advance(); err != nil { // to ':'
				return nil, err
			}
			if err := p.advance(); err != nil { // to value
				return nil, err
			}
			var val strings.Builder
			for p.tok.kind == tokIdent || p.tok.kind == tokString {
				if val.Len() > 0 {
					val.WriteByte(' ')
				}
				val.WriteString(p.tok.text)
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			if p.tok.kind == tokSemi {
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			g.Attrs = append(g.Attrs, Attr{Name: name, Values: []string{val.String()}})
		case tokLParen:
			// Complex attribute or nested group; decide by what follows ')'.
			save := *p
			if err := p.advance(); err != nil { // to '('
				return nil, err
			}
			vals, err := p.parseParenList()
			if err != nil {
				return nil, err
			}
			if p.tok.kind == tokLBrace {
				// It was a nested group after all; rewind and reparse.
				*p = save
				sub, err := p.parseGroup()
				if err != nil {
					return nil, err
				}
				g.Groups = append(g.Groups, sub)
			} else {
				if p.tok.kind == tokSemi {
					if err := p.advance(); err != nil {
						return nil, err
					}
				}
				g.Attrs = append(g.Attrs, Attr{Name: name, Values: vals})
			}
		default:
			return nil, fmt.Errorf("liberty: line %d: expected ':' or '(' after %q", p.tok.line, name)
		}
	}
	return g, p.advance() // consume '}'
}

// parseParenList parses `( v1, v2, ... )` with p.tok at '(' and leaves p.tok
// at the token after ')'.
func (p *parser) parseParenList() ([]string, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	var vals []string
	for p.tok.kind != tokRParen {
		switch p.tok.kind {
		case tokIdent, tokString:
			vals = append(vals, p.tok.text)
		case tokComma:
			// separator
		case tokEOF:
			return nil, fmt.Errorf("liberty: unexpected EOF in argument list")
		default:
			return nil, fmt.Errorf("liberty: line %d: unexpected %q in argument list", p.tok.line, p.tok.text)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	return vals, p.advance() // consume ')'
}

// Parse reads Liberty source and interprets the library it defines.
func Parse(src string) (*Library, error) {
	groups, err := ParseGroups(src)
	if err != nil {
		return nil, err
	}
	var libGroup *Group
	for _, g := range groups {
		if g.Name == "library" {
			libGroup = g
			break
		}
	}
	if libGroup == nil {
		return nil, fmt.Errorf("liberty: no library group found")
	}
	lib := &Library{}
	if len(libGroup.Args) > 0 {
		lib.Name = libGroup.Args[0]
	}
	if lib.WireResPerDBU, err = libGroup.attrFloat("dtgp_wire_res_per_dbu", 0); err != nil {
		return nil, err
	}
	if lib.WireCapPerDBU, err = libGroup.attrFloat("dtgp_wire_cap_per_dbu", 0); err != nil {
		return nil, err
	}
	if lib.DefaultMaxTransition, err = libGroup.attrFloat("default_max_transition", 0); err != nil {
		return nil, err
	}
	var axes axisPool
	for _, g := range libGroup.Groups {
		if g.Name != "cell" {
			continue
		}
		cell, err := parseCell(g, &axes)
		if err != nil {
			return nil, err
		}
		lib.Cells = append(lib.Cells, *cell)
	}
	lib.BuildIndex()
	if err := lib.Validate(); err != nil {
		return nil, err
	}
	return lib, nil
}

func parseCell(g *Group, axes *axisPool) (*Cell, error) {
	if len(g.Args) == 0 {
		return nil, fmt.Errorf("liberty: cell group without a name")
	}
	c := &Cell{Name: g.Args[0]}
	var err error
	if c.Area, err = g.attrFloat("area", 0); err != nil {
		return nil, err
	}
	if c.Width, err = g.attrFloat("dtgp_width", 0); err != nil {
		return nil, err
	}
	if c.Height, err = g.attrFloat("dtgp_height", 0); err != nil {
		return nil, err
	}
	// First pass: pins, so arc pin references resolve.
	for _, sub := range g.Groups {
		if sub.Name != "pin" {
			continue
		}
		if len(sub.Args) == 0 {
			return nil, fmt.Errorf("liberty: cell %q: pin group without a name", c.Name)
		}
		p := Pin{Name: sub.Args[0]}
		if dir, ok := sub.attr("direction"); ok {
			switch dir {
			case "input":
				p.Dir = DirInput
			case "output":
				p.Dir = DirOutput
			case "inout":
				p.Dir = DirInout
			default:
				return nil, fmt.Errorf("liberty: cell %q pin %q: unknown direction %q", c.Name, p.Name, dir)
			}
		}
		if p.Cap, err = sub.attrFloat("capacitance", 0); err != nil {
			return nil, err
		}
		if p.MaxCap, err = sub.attrFloat("max_capacitance", 0); err != nil {
			return nil, err
		}
		if v, ok := sub.attr("clock"); ok && (v == "true" || v == "1") {
			p.IsClock = true
		}
		if p.Offset.X, err = sub.attrFloat("dtgp_offset_x", 0); err != nil {
			return nil, err
		}
		if p.Offset.Y, err = sub.attrFloat("dtgp_offset_y", 0); err != nil {
			return nil, err
		}
		c.Pins = append(c.Pins, p)
	}
	c.buildIndex()
	// Second pass: timing arcs inside pin groups.
	for _, sub := range g.Groups {
		if sub.Name != "pin" {
			continue
		}
		toPin := c.PinByName(sub.Args[0])
		for _, tg := range sub.Groups {
			if tg.Name != "timing" {
				continue
			}
			arc, err := parseArc(c, tg, toPin, axes)
			if err != nil {
				return nil, fmt.Errorf("liberty: cell %q pin %q: %w", c.Name, sub.Args[0], err)
			}
			c.Arcs = append(c.Arcs, *arc)
			if arc.Kind == ArcClockToQ || arc.IsCheck() {
				c.IsSequential = true
			}
		}
	}
	return c, nil
}

func parseArc(c *Cell, g *Group, toPin int, axes *axisPool) (*TimingArc, error) {
	related, ok := g.attr("related_pin")
	if !ok {
		return nil, fmt.Errorf("timing group missing related_pin")
	}
	from := c.PinByName(related)
	if from < 0 {
		return nil, fmt.Errorf("related_pin %q not found", related)
	}
	arc := &TimingArc{From: from, To: toPin, Kind: ArcCombinational, Unate: NonUnate}
	if sense, ok := g.attr("timing_sense"); ok {
		switch sense {
		case "positive_unate":
			arc.Unate = PositiveUnate
		case "negative_unate":
			arc.Unate = NegativeUnate
		case "non_unate":
			arc.Unate = NonUnate
		default:
			return nil, fmt.Errorf("unknown timing_sense %q", sense)
		}
	}
	if typ, ok := g.attr("timing_type"); ok {
		switch typ {
		case "combinational":
			arc.Kind = ArcCombinational
		case "rising_edge", "falling_edge":
			arc.Kind = ArcClockToQ
		case "setup_rising", "setup_falling":
			arc.Kind = ArcSetup
		case "hold_rising", "hold_falling":
			arc.Kind = ArcHold
		default:
			return nil, fmt.Errorf("unsupported timing_type %q", typ)
		}
	}
	for _, tbl := range g.Groups {
		lut, err := parseTable(tbl, axes)
		if err != nil {
			return nil, err
		}
		switch tbl.Name {
		case "cell_rise":
			arc.CellRise = lut
		case "cell_fall":
			arc.CellFall = lut
		case "rise_transition":
			arc.RiseTransition = lut
		case "fall_transition":
			arc.FallTransition = lut
		case "rise_constraint":
			arc.RiseConstraint = lut
		case "fall_constraint":
			arc.FallConstraint = lut
		}
	}
	return arc, nil
}

// axisPool holds the distinct table axes of one library. A table's
// template fixes its axes, so the tables of a library repeat a few of
// them; intern hands every table the pool's slice for an axis it has seen,
// and a query located on one table's axis is then located on all of them.
type axisPool [][]float64

// intern returns the pooled axis with axis's bits, adding axis if the pool
// has none.
func (p *axisPool) intern(axis []float64) []float64 {
	for _, a := range *p {
		if len(a) == len(axis) && equalBits(a, axis) {
			return a
		}
	}
	*p = append(*p, axis)
	return axis
}

// equalBits reports whether a and b, of equal length, hold the same bits.
func equalBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func parseTable(g *Group, axes *axisPool) (*LUT, error) {
	var idx1, idx2, values []float64
	var err error
	for _, a := range g.Attrs {
		switch a.Name {
		case "index_1":
			if idx1, err = parseFloatList(a.Values); err != nil {
				return nil, err
			}
		case "index_2":
			if idx2, err = parseFloatList(a.Values); err != nil {
				return nil, err
			}
		case "values":
			if values, err = parseFloatList(a.Values); err != nil {
				return nil, err
			}
		}
	}
	if len(idx1) == 0 {
		idx1 = []float64{0}
	}
	if len(idx2) == 0 {
		idx2 = []float64{0}
	}
	return NewLUT(axes.intern(idx1), axes.intern(idx2), values)
}

// parseFloatList flattens Liberty's quoted, comma-separated numeric lists.
// Values may arrive as separate tokens or as quoted strings like
// "1.0, 2.0, 3.0".
func parseFloatList(raw []string) ([]float64, error) {
	var out []float64
	for _, chunk := range raw {
		for _, f := range strings.FieldsFunc(chunk, func(r rune) bool {
			return r == ',' || r == ' ' || r == '\t' || r == '\n' || r == '\\'
		}) {
			v, err := parseNumber(f)
			if err != nil {
				return nil, fmt.Errorf("liberty: bad number %q: %w", f, err)
			}
			out = append(out, v)
		}
	}
	return out, nil
}
