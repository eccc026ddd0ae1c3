// Package scenario is the declarative integration-test harness: YAML
// scenario specs declare sources with schemas and seed rows, an annotated
// VDP, the delay vocabulary of Theorem 7.2, and a multi-step timeline
// (update bursts, queries, source crashes, announcement gaps,
// re-annotations, group-commit flushes) with assertion steps checked
// against the recorded run. Execution happens entirely on internal/sim
// virtual time, so a minutes-long chaos timeline completes in
// milliseconds and is bit-for-bit deterministic: the same spec always
// produces a byte-identical transcript, which golden files pin in CI.
//
// The YAML dialect accepted here is a strict, small subset — block
// mappings and sequences, flow lists/maps, quoted and plain scalars,
// comments — parsed by hand so the module needs no dependency and so
// every rejection names its line. Unknown keys and type mismatches are
// errors, never silently ignored; FuzzScenarioSpec keeps the parser
// panic-free on arbitrary bytes.
package scenario

import (
	"fmt"
	"strconv"
	"strings"
)

// nodeKind discriminates the three YAML value shapes the subset allows.
type nodeKind uint8

const (
	kindScalar nodeKind = iota
	kindMap
	kindList
)

// node is one parsed YAML value. Map entry order is preserved: attribute
// declarations are order-significant (they define the schema).
type node struct {
	kind   nodeKind
	line   int
	scalar string // kindScalar: raw text (unquoted form)
	quoted bool   // kindScalar: was quoted, always a string
	keys   []string
	vals   map[string]*node // kindMap (keys preserves order)
	list   []*node          // kindList
}

func (n *node) kindName() string {
	switch n.kind {
	case kindMap:
		return "mapping"
	case kindList:
		return "list"
	default:
		if n.quoted {
			return "string"
		}
		return fmt.Sprintf("scalar %q", n.scalar)
	}
}

// yamlError is a parse/bind failure pinned to a 1-based line.
type yamlError struct {
	line int
	msg  string
}

func (e *yamlError) Error() string { return fmt.Sprintf("line %d: %s", e.line, e.msg) }

func errAt(line int, format string, args ...any) error {
	return &yamlError{line: line, msg: fmt.Sprintf(format, args...)}
}

// srcLine is one significant input line.
type srcLine struct {
	num    int
	indent int
	text   string // content after indent, comments stripped
}

// parseYAML parses a whole document into a node tree.
func parseYAML(data []byte) (*node, error) {
	lines, err := scanLines(string(data))
	if err != nil {
		return nil, err
	}
	if len(lines) == 0 {
		return nil, errAt(1, "empty document")
	}
	p := &yparser{lines: lines}
	root, err := p.parseBlock(lines[0].indent)
	if err != nil {
		return nil, err
	}
	if p.pos < len(p.lines) {
		l := p.lines[p.pos]
		return nil, errAt(l.num, "unexpected content %q (bad indentation?)", l.text)
	}
	return root, nil
}

// scanLines splits the input into significant lines, stripping comments
// and blank lines, measuring indentation, and rejecting tabs.
func scanLines(s string) ([]srcLine, error) {
	var out []srcLine
	for num, raw := range strings.Split(s, "\n") {
		line := strings.TrimRight(raw, " \r")
		indent := 0
		for indent < len(line) && line[indent] == ' ' {
			indent++
		}
		rest := line[indent:]
		if rest == "" {
			continue
		}
		if strings.HasPrefix(rest, "\t") || strings.Contains(line[:indent], "\t") {
			return nil, errAt(num+1, "tab in indentation (use spaces)")
		}
		if stripped, ok := stripComment(rest); ok {
			rest = strings.TrimRight(stripped, " ")
			if rest == "" {
				continue
			}
		}
		if rest == "---" {
			continue // document marker: tolerated, single-document only
		}
		out = append(out, srcLine{num: num + 1, indent: indent, text: rest})
	}
	return out, nil
}

// stripComment removes a trailing " #..." comment outside quotes. The
// second return is whether anything changed or the line started with #.
func stripComment(s string) (string, bool) {
	if strings.HasPrefix(s, "#") {
		return "", true
	}
	inS, inD := false, false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\'':
			if !inD {
				inS = !inS
			}
		case '"':
			if !inS {
				inD = !inD
			}
		case '#':
			if !inS && !inD && i > 0 && s[i-1] == ' ' {
				return s[:i], true
			}
		}
	}
	return s, false
}

type yparser struct {
	lines []srcLine
	pos   int
	// pushed holds a synthetic line (the remainder of a "- key: val"
	// dash item re-interpreted as a map at a deeper indent).
	pushed *srcLine
}

func (p *yparser) peek() (srcLine, bool) {
	if p.pushed != nil {
		return *p.pushed, true
	}
	if p.pos >= len(p.lines) {
		return srcLine{}, false
	}
	return p.lines[p.pos], true
}

func (p *yparser) next() (srcLine, bool) {
	if p.pushed != nil {
		l := *p.pushed
		p.pushed = nil
		return l, true
	}
	if p.pos >= len(p.lines) {
		return srcLine{}, false
	}
	l := p.lines[p.pos]
	p.pos++
	return l, true
}

// parseBlock parses the block starting at exactly indent `at`.
func (p *yparser) parseBlock(at int) (*node, error) {
	l, ok := p.peek()
	if !ok {
		return nil, fmt.Errorf("unexpected end of document")
	}
	if l.indent != at {
		return nil, errAt(l.num, "expected content at indent %d, got %d", at, l.indent)
	}
	if l.text == "-" || strings.HasPrefix(l.text, "- ") {
		return p.parseListBlock(at)
	}
	return p.parseMapBlock(at)
}

func (p *yparser) parseListBlock(at int) (*node, error) {
	out := &node{kind: kindList, line: 0}
	for {
		l, ok := p.peek()
		if !ok || l.indent != at || !(l.text == "-" || strings.HasPrefix(l.text, "- ")) {
			break
		}
		p.next()
		if out.line == 0 {
			out.line = l.num
		}
		if l.text == "-" {
			// Item is the nested block below, indented deeper.
			nl, ok := p.peek()
			if !ok || nl.indent <= at {
				return nil, errAt(l.num, "empty list item (nothing indented under '-')")
			}
			item, err := p.parseBlock(nl.indent)
			if err != nil {
				return nil, err
			}
			out.list = append(out.list, item)
			continue
		}
		rest := strings.TrimLeft(l.text[2:], " ")
		pad := l.indent + (len(l.text) - len(rest))
		if isMapStart(rest) {
			// "- key: ..." starts a map item: re-interpret the
			// remainder as the first line of a map block at the
			// item's inner indent.
			p.pushed = &srcLine{num: l.num, indent: pad, text: rest}
			item, err := p.parseMapBlock(pad)
			if err != nil {
				return nil, err
			}
			out.list = append(out.list, item)
			continue
		}
		item, err := parseFlow(rest, l.num)
		if err != nil {
			return nil, err
		}
		out.list = append(out.list, item)
	}
	if out.line == 0 {
		l, _ := p.peek()
		return nil, errAt(l.num, "expected list")
	}
	return out, nil
}

func (p *yparser) parseMapBlock(at int) (*node, error) {
	out := &node{kind: kindMap, vals: map[string]*node{}}
	for {
		l, ok := p.peek()
		if !ok || l.indent != at {
			break
		}
		if l.text == "-" || strings.HasPrefix(l.text, "- ") {
			break
		}
		key, rest, ok := splitKey(l.text)
		if !ok {
			return nil, errAt(l.num, "expected 'key: value', got %q", l.text)
		}
		p.next()
		if out.line == 0 {
			out.line = l.num
		}
		if _, dup := out.vals[key]; dup {
			return nil, errAt(l.num, "duplicate key %q", key)
		}
		var val *node
		if rest == "" {
			nl, ok := p.peek()
			if !ok || nl.indent <= at {
				return nil, errAt(l.num, "key %q has no value (indent a block under it, or write [] / {})", key)
			}
			var err error
			val, err = p.parseBlock(nl.indent)
			if err != nil {
				return nil, err
			}
		} else {
			var err error
			val, err = parseFlow(rest, l.num)
			if err != nil {
				return nil, err
			}
		}
		out.keys = append(out.keys, key)
		out.vals[key] = val
	}
	if out.line == 0 {
		if l, ok := p.peek(); ok {
			return nil, errAt(l.num, "expected mapping, got %q", l.text)
		}
		return nil, fmt.Errorf("expected mapping at end of document")
	}
	return out, nil
}

// isMapStart reports whether a flow-less line begins a map entry:
// a key followed by ':' (and a space or end of line).
func isMapStart(s string) bool {
	_, _, ok := splitKey(s)
	return ok
}

// splitKey splits "key: rest" or "key:"; a key is a plain scalar (no
// quotes, no flow characters) or a quoted one (quotedKey).
func splitKey(s string) (key, rest string, ok bool) {
	key, after, ok := quotedKey(s)
	if !ok {
		i := strings.IndexByte(s, ':')
		if i <= 0 || strings.ContainsAny(s[:i], "\"'[]{},#") {
			return "", "", false
		}
		key, after = strings.TrimSpace(s[:i]), s[i+1:]
	}
	if after == "" {
		return key, "", true
	}
	if after[0] != ' ' {
		return "", "", false
	}
	return key, strings.TrimSpace(after), true
}

// quotedKey parses a non-empty single- or double-quoted mapping key from
// the front of s — how a spec names a key a plain scalar cannot spell,
// such as the primed node "R'". after is what follows the key's ':'; ok
// is false when s does not start with one.
func quotedKey(s string) (key, after string, ok bool) {
	if s == "" || (s[0] != '"' && s[0] != '\'') {
		return "", "", false
	}
	n, rest, err := parseFlowValue(s, 0, false)
	rest = strings.TrimLeft(rest, " ")
	if err != nil || n.scalar == "" || !strings.HasPrefix(rest, ":") {
		return "", "", false
	}
	return n.scalar, rest[1:], true
}

// parseFlow parses an inline value: a flow list [..], a flow map {..},
// a quoted string, or a plain scalar.
func parseFlow(s string, line int) (*node, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, errAt(line, "empty value")
	}
	v, rest, err := parseFlowValue(s, line, false)
	if err != nil {
		return nil, err
	}
	if strings.TrimSpace(rest) != "" {
		return nil, errAt(line, "trailing content %q after value", strings.TrimSpace(rest))
	}
	return v, nil
}

// parseFlowValue parses one value from the front of s. inFlow is true
// inside [..] or {..}, where an unquoted scalar ends at the next flow
// delimiter; at block level a plain scalar runs to the end of the line.
func parseFlowValue(s string, line int, inFlow bool) (*node, string, error) {
	s = strings.TrimLeft(s, " ")
	if s == "" {
		return nil, "", errAt(line, "missing value")
	}
	switch s[0] {
	case '[':
		out := &node{kind: kindList, line: line}
		s = strings.TrimLeft(s[1:], " ")
		if strings.HasPrefix(s, "]") {
			return out, s[1:], nil
		}
		for {
			item, rest, err := parseFlowValue(s, line, true)
			if err != nil {
				return nil, "", err
			}
			out.list = append(out.list, item)
			rest = strings.TrimLeft(rest, " ")
			if strings.HasPrefix(rest, ",") {
				s = rest[1:]
				continue
			}
			if strings.HasPrefix(rest, "]") {
				return out, rest[1:], nil
			}
			return nil, "", errAt(line, "expected ',' or ']' in flow list, got %q", rest)
		}
	case '{':
		out := &node{kind: kindMap, line: line, vals: map[string]*node{}}
		s = strings.TrimLeft(s[1:], " ")
		if strings.HasPrefix(s, "}") {
			return out, s[1:], nil
		}
		for {
			key, after, ok := quotedKey(s)
			if !ok {
				i := strings.IndexByte(s, ':')
				if i <= 0 {
					return nil, "", errAt(line, "expected 'key: value' in flow map, got %q", s)
				}
				key, after = strings.TrimSpace(s[:i]), s[i+1:]
				if strings.ContainsAny(key, "\"'[]{},") {
					return nil, "", errAt(line, "bad flow-map key %q", key)
				}
			}
			if _, dup := out.vals[key]; dup {
				return nil, "", errAt(line, "duplicate key %q", key)
			}
			item, rest, err := parseFlowValue(after, line, true)
			if err != nil {
				return nil, "", err
			}
			out.keys = append(out.keys, key)
			out.vals[key] = item
			rest = strings.TrimLeft(rest, " ")
			if strings.HasPrefix(rest, ",") {
				s = strings.TrimLeft(rest[1:], " ")
				continue
			}
			if strings.HasPrefix(rest, "}") {
				return out, rest[1:], nil
			}
			return nil, "", errAt(line, "expected ',' or '}' in flow map, got %q", rest)
		}
	case '\'':
		end := strings.IndexByte(s[1:], '\'')
		if end < 0 {
			return nil, "", errAt(line, "unterminated single-quoted string")
		}
		return &node{kind: kindScalar, line: line, scalar: s[1 : 1+end], quoted: true}, s[2+end:], nil
	case '"':
		var b strings.Builder
		i := 1
		for i < len(s) {
			c := s[i]
			if c == '"' {
				return &node{kind: kindScalar, line: line, scalar: b.String(), quoted: true}, s[i+1:], nil
			}
			if c == '\\' {
				if i+1 >= len(s) {
					break
				}
				i++
				switch s[i] {
				case 'n':
					b.WriteByte('\n')
				case 't':
					b.WriteByte('\t')
				case '\\', '"':
					b.WriteByte(s[i])
				default:
					return nil, "", errAt(line, "unsupported escape \\%c", s[i])
				}
				i++
				continue
			}
			b.WriteByte(c)
			i++
		}
		return nil, "", errAt(line, "unterminated double-quoted string")
	default:
		// Plain scalar: inside flow it runs to the next delimiter; at
		// block level it runs to the end of the line.
		var raw, rest string
		if end := strings.IndexAny(s, ",]}"); inFlow && end >= 0 {
			raw, rest = s[:end], s[end:]
		} else {
			raw, rest = s, ""
		}
		raw = strings.TrimSpace(raw)
		if raw == "" {
			return nil, "", errAt(line, "missing value")
		}
		return &node{kind: kindScalar, line: line, scalar: raw}, rest, nil
	}
}

// ---- typed scalar accessors (the bind layer's vocabulary) ----

func (n *node) asString() (string, error) {
	if n.kind != kindScalar {
		return "", errAt(n.line, "expected a string, got %s", n.kindName())
	}
	return n.scalar, nil
}

func (n *node) asInt() (int64, error) {
	if n.kind != kindScalar || n.quoted {
		return 0, errAt(n.line, "expected an integer, got %s", n.kindName())
	}
	v, err := strconv.ParseInt(n.scalar, 10, 64)
	if err != nil {
		return 0, errAt(n.line, "expected an integer, got %q", n.scalar)
	}
	return v, nil
}

func (n *node) asBool() (bool, error) {
	if n.kind != kindScalar || n.quoted {
		return false, errAt(n.line, "expected true/false, got %s", n.kindName())
	}
	switch n.scalar {
	case "true":
		return true, nil
	case "false":
		return false, nil
	}
	return false, errAt(n.line, "expected true/false, got %q", n.scalar)
}

func (n *node) asMap() (*node, error) {
	if n.kind != kindMap {
		return nil, errAt(n.line, "expected a mapping, got %s", n.kindName())
	}
	return n, nil
}

func (n *node) asList() ([]*node, error) {
	if n.kind != kindList {
		return nil, errAt(n.line, "expected a list, got %s", n.kindName())
	}
	return n.list, nil
}

func (n *node) asStringList() ([]string, error) {
	items, err := n.asList()
	if err != nil {
		return nil, err
	}
	out := make([]string, len(items))
	for i, it := range items {
		s, err := it.asString()
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// binder walks a kindMap node recording which keys were consumed, so
// unknown keys are rejected with their line number.
type binder struct {
	n    *node
	used map[string]bool
}

func bindMap(n *node) (*binder, error) {
	m, err := n.asMap()
	if err != nil {
		return nil, err
	}
	return &binder{n: m, used: map[string]bool{}}, nil
}

// get returns the child node for key, or nil when absent.
func (b *binder) get(key string) *node {
	b.used[key] = true
	return b.n.vals[key]
}

// need returns the child node for key or an error naming the map's line.
func (b *binder) need(key string) (*node, error) {
	if v := b.get(key); v != nil {
		return v, nil
	}
	return nil, errAt(b.n.line, "missing required key %q", key)
}

// finish rejects any keys the caller never consumed.
func (b *binder) finish(context string) error {
	for _, k := range b.n.keys {
		if !b.used[k] {
			return errAt(b.n.vals[k].line, "unknown key %q in %s", k, context)
		}
	}
	return nil
}
