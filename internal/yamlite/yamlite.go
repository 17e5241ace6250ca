// Package yamlite implements a small YAML subset used throughout
// Digibox for model documents, Infrastructure-as-Code configuration
// files, and scene-repository objects.
//
// The subset covers everything that appears in the paper's Fig. 3 model
// files and the generated setup configs:
//
//   - block mappings and block sequences nested by indentation
//   - flow sequences ("[L1, O1]") and flow mappings ("{a: 1, b: 2}")
//   - plain, single-quoted, and double-quoted scalars
//   - bool, int, float, and null scalar typing with string fallback
//   - "#" comments and blank lines
//   - multi-document streams separated by "---"
//
// Decoded values use the dynamic Go forms map[string]any, []any,
// string, int64, float64, bool, and nil. Encode is the inverse and
// round-trips every value Decode can produce.
package yamlite

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ErrMalformed is wrapped by every parse error, so callers can gate on
// errors.Is(err, yamlite.ErrMalformed) without caring whether the
// failure carries a line number.
var ErrMalformed = errors.New("yamlite: malformed document")

// A SyntaxError describes a malformed document and the line on which
// the problem was detected (1-based).
type SyntaxError struct {
	Line int
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("yamlite: line %d: %s", e.Line, e.Msg)
}

// Unwrap makes every SyntaxError match ErrMalformed.
//
//dbox:allow deadcode -- errors.Is reaches it through an anonymous interface: the ErrMalformed contract
func (e *SyntaxError) Unwrap() error { return ErrMalformed }

func errf(line int, format string, args ...any) error {
	return &SyntaxError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Decode parses a single-document stream. It fails if the stream
// contains more than one document; use DecodeAll for multi-document
// streams. An empty stream decodes to nil.
func Decode(data []byte) (any, error) {
	docs, err := DecodeAll(data)
	if err != nil {
		return nil, err
	}
	switch len(docs) {
	case 0:
		return nil, nil
	case 1:
		return docs[0], nil
	default:
		return nil, fmt.Errorf("%w: expected one document, found %d", ErrMalformed, len(docs))
	}
}

// DecodeAll parses a (possibly multi-document) stream and returns one
// value per document.
func DecodeAll(data []byte) ([]any, error) {
	lines := splitLines(string(data))
	var docs []any
	i := 0
	for i < len(lines) {
		// Skip leading blanks/comments and document separators.
		for i < len(lines) && (lines[i].blank || lines[i].text == "---") {
			i++
		}
		if i >= len(lines) {
			break
		}
		p := &parser{lines: lines}
		v, next, err := p.parseBlock(i, lines[i].indent)
		if err != nil {
			return nil, err
		}
		docs = append(docs, v)
		i = next
	}
	return docs, nil
}

// line is one physical line with its indentation pre-computed.
type line struct {
	num    int    // 1-based line number
	indent int    // count of leading spaces
	text   string // content with indentation stripped, comments removed
	blank  bool   // blank or comment-only
}

func splitLines(s string) []line {
	raw := strings.Split(s, "\n")
	out := make([]line, 0, len(raw))
	for i, r := range raw {
		r = strings.TrimRight(r, "\r")
		indent := 0
		for indent < len(r) && r[indent] == ' ' {
			indent++
		}
		body := r[indent:]
		if strings.HasPrefix(body, "\t") {
			// Normalise tabs to two spaces to be forgiving; YAML
			// proper forbids tabs in indentation.
			expanded := strings.ReplaceAll(r, "\t", "  ")
			indent = 0
			for indent < len(expanded) && expanded[indent] == ' ' {
				indent++
			}
			body = expanded[indent:]
		}
		body = stripComment(body)
		body = strings.TrimRight(body, " ")
		out = append(out, line{
			num:    i + 1,
			indent: indent,
			text:   body,
			blank:  body == "",
		})
	}
	return out
}

// stripComment removes a trailing "# ..." comment, respecting quotes.
func stripComment(s string) string {
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
			if !inS && !inD && (i == 0 || s[i-1] == ' ') {
				return strings.TrimRight(s[:i], " ")
			}
		}
	}
	return s
}

type parser struct {
	lines []line
}

// parseBlock parses the block value starting at index i whose items
// must be indented exactly `indent` spaces. It returns the value and
// the index of the first line after the block.
func (p *parser) parseBlock(i, indent int) (any, int, error) {
	// Decide the block kind from the first significant line.
	ln := p.lines[i]
	switch {
	case strings.HasPrefix(ln.text, "- ") || ln.text == "-":
		return p.parseSequence(i, indent)
	default:
		if keyOf(ln.text) != "" {
			return p.parseMapping(i, indent)
		}
		// Bare scalar document.
		v, err := parseScalar(ln.text, ln.num)
		return v, i + 1, err
	}
}

func (p *parser) parseSequence(i, indent int) (any, int, error) {
	var seq []any
	for i < len(p.lines) {
		ln := p.lines[i]
		if ln.blank {
			i++
			continue
		}
		if ln.text == "---" || ln.indent < indent {
			break
		}
		if ln.indent > indent {
			return nil, i, errf(ln.num, "unexpected indentation %d (sequence expects %d)", ln.indent, indent)
		}
		if ln.text != "-" && !strings.HasPrefix(ln.text, "- ") {
			break // end of the sequence; a sibling mapping key follows
		}
		rest := strings.TrimPrefix(strings.TrimPrefix(ln.text, "-"), " ")
		if rest == "" {
			// The item's value is the nested block on following lines.
			j := nextSignificant(p.lines, i+1)
			if j >= len(p.lines) || p.lines[j].indent <= indent {
				seq = append(seq, nil)
				i++
				continue
			}
			v, next, err := p.parseBlock(j, p.lines[j].indent)
			if err != nil {
				return nil, i, err
			}
			seq = append(seq, v)
			i = next
			continue
		}
		// "- key: value" and "- - item" start an inline block (mapping
		// or nested sequence) whose lines align after the "- ".
		if keyOf(rest) != "" || rest == "-" || strings.HasPrefix(rest, "- ") {
			inner := p.cloneShiftedItem(i, indent+2, rest)
			v, _, err := inner.parseBlock(0, 0)
			if err != nil {
				return nil, i, err
			}
			seq = append(seq, v)
			i += 1 + inner.consumedFollowers
			continue
		}
		v, err := parseScalar(rest, ln.num)
		if err != nil {
			return nil, i, err
		}
		seq = append(seq, v)
		i++
	}
	return seq, i, nil
}

// cloneShiftedItem builds a sub-parser for a "- key: value" sequence
// item: the first virtual line is the text after "- ", and subsequent
// lines belonging to the item (indent >= itemIndent) are re-based so
// the sub-parser sees a standalone mapping at indent 0.
type itemParser struct {
	parser
	consumedFollowers int
}

func (p *parser) cloneShiftedItem(i, itemIndent int, first string) *itemParser {
	ip := &itemParser{}
	ip.lines = append(ip.lines, line{num: p.lines[i].num, indent: 0, text: first})
	j := i + 1
	for j < len(p.lines) {
		ln := p.lines[j]
		if ln.blank {
			ip.lines = append(ip.lines, ln)
			j++
			continue
		}
		if ln.text == "---" || ln.indent < itemIndent {
			break
		}
		shifted := ln
		shifted.indent -= itemIndent
		ip.lines = append(ip.lines, shifted)
		j++
	}
	ip.consumedFollowers = j - (i + 1)
	return ip
}

func (p *parser) parseMapping(i, indent int) (any, int, error) {
	m := map[string]any{}
	for i < len(p.lines) {
		ln := p.lines[i]
		if ln.blank {
			i++
			continue
		}
		if ln.text == "---" || ln.indent < indent {
			break
		}
		if ln.indent > indent {
			return nil, i, errf(ln.num, "unexpected indentation %d (mapping expects %d)", ln.indent, indent)
		}
		key := keyOf(ln.text)
		if key == "" {
			return nil, i, errf(ln.num, "expected 'key: value', got %q", ln.text)
		}
		rawKey, rest := splitKey(ln.text)
		k, err := unquoteKey(rawKey, ln.num)
		if err != nil {
			return nil, i, err
		}
		if _, dup := m[k]; dup {
			return nil, i, errf(ln.num, "duplicate key %q", k)
		}
		if rest == "" {
			// Value is a nested block (or null if nothing deeper).
			j := nextSignificant(p.lines, i+1)
			if j >= len(p.lines) || p.lines[j].text == "---" || p.lines[j].indent <= indent {
				m[k] = nil
				i++
				continue
			}
			v, next, err := p.parseBlock(j, p.lines[j].indent)
			if err != nil {
				return nil, i, err
			}
			m[k] = v
			i = next
			continue
		}
		v, err := parseScalar(rest, ln.num)
		if err != nil {
			return nil, i, err
		}
		m[k] = v
		i++
	}
	return m, i, nil
}

func nextSignificant(lines []line, i int) int {
	for i < len(lines) && lines[i].blank {
		i++
	}
	return i
}

// keyOf returns the raw key if the line looks like "key: ..." or
// "key:", otherwise "".
func keyOf(s string) string {
	k, _ := splitKey(s)
	return k
}

// splitKey splits "key: value" respecting quoted keys and flow
// brackets. Returns ("", "") if the line is not a mapping entry.
func splitKey(s string) (key, rest string) {
	inS, inD := false, false
	depth := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch c {
		case '\\':
			if inD {
				i++ // an escaped character cannot close the string
			}
		case '\'':
			if !inD {
				inS = !inS
			}
		case '"':
			if !inS {
				inD = !inD
			}
		case '[', '{':
			if !inS && !inD {
				depth++
			}
		case ']', '}':
			if !inS && !inD {
				depth--
			}
		case ':':
			if inS || inD || depth > 0 {
				continue
			}
			if i+1 == len(s) {
				return strings.TrimSpace(s[:i]), ""
			}
			if s[i+1] == ' ' {
				return strings.TrimSpace(s[:i]), strings.TrimSpace(s[i+1:])
			}
		}
	}
	return "", ""
}

func unquoteKey(k string, lnum int) (string, error) {
	if len(k) >= 2 && (k[0] == '"' || k[0] == '\'') {
		v, err := parseScalar(k, lnum)
		if err != nil {
			return "", err
		}
		s, ok := v.(string)
		if !ok {
			return "", errf(lnum, "invalid quoted key %q", k)
		}
		return s, nil
	}
	if k == "" {
		return "", errf(lnum, "empty mapping key")
	}
	return k, nil
}

// parseScalar parses a flow value: scalar, flow sequence, or flow map.
func parseScalar(s string, lnum int) (any, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "":
		return nil, nil
	case s[0] == '[':
		return parseFlowSeq(s, lnum)
	case s[0] == '{':
		return parseFlowMap(s, lnum)
	case s[0] == '"':
		if len(s) < 2 || s[len(s)-1] != '"' {
			return nil, errf(lnum, "unterminated double-quoted string %q", s)
		}
		return unescapeDouble(s[1:len(s)-1], lnum)
	case s[0] == '\'':
		if len(s) < 2 || s[len(s)-1] != '\'' {
			return nil, errf(lnum, "unterminated single-quoted string %q", s)
		}
		return strings.ReplaceAll(s[1:len(s)-1], "''", "'"), nil
	}
	switch s {
	case "null", "~", "Null", "NULL":
		return nil, nil
	case "true", "True", "TRUE":
		return true, nil
	case "false", "False", "FALSE":
		return false, nil
	}
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return i, nil
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil && looksNumeric(s) {
		return f, nil
	}
	return s, nil
}

// looksNumeric guards against ParseFloat accepting exotic spellings
// ("Inf", "nan") that we prefer to keep as strings.
func looksNumeric(s string) bool {
	for _, c := range s {
		switch {
		case c >= '0' && c <= '9':
		case c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E':
		default:
			return false
		}
	}
	return true
}

func unescapeDouble(s string, lnum int) (string, error) {
	if !strings.ContainsRune(s, '\\') {
		return s, nil
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' {
			b.WriteByte(s[i])
			continue
		}
		i++
		if i >= len(s) {
			return "", errf(lnum, "dangling escape in %q", s)
		}
		switch s[i] {
		case 'n':
			b.WriteByte('\n')
		case 't':
			b.WriteByte('\t')
		case 'r':
			b.WriteByte('\r')
		case 'a':
			b.WriteByte('\a')
		case 'b':
			b.WriteByte('\b')
		case 'f':
			b.WriteByte('\f')
		case 'v':
			b.WriteByte('\v')
		case '"':
			b.WriteByte('"')
		case '\\':
			b.WriteByte('\\')
		// The hex and unicode forms the encoder's strconv.Quote
		// rendering produces for non-printable content.
		case 'x':
			v, err := hexEscape(s, i+1, 2, lnum)
			if err != nil {
				return "", err
			}
			b.WriteByte(byte(v))
			i += 2
		case 'u':
			v, err := hexEscape(s, i+1, 4, lnum)
			if err != nil {
				return "", err
			}
			b.WriteRune(rune(v))
			i += 4
		case 'U':
			v, err := hexEscape(s, i+1, 8, lnum)
			if err != nil {
				return "", err
			}
			if v > 0x10FFFF {
				return "", errf(lnum, "escape \\U%08x is not a rune", v)
			}
			b.WriteRune(rune(v))
			i += 8
		default:
			return "", errf(lnum, "unsupported escape \\%c", s[i])
		}
	}
	return b.String(), nil
}

// hexEscape reads the n hex digits of a \x, \u, or \U escape.
func hexEscape(s string, start, n, lnum int) (uint64, error) {
	if start+n > len(s) {
		return 0, errf(lnum, "truncated hex escape in %q", s)
	}
	v, err := strconv.ParseUint(s[start:start+n], 16, 64)
	if err != nil {
		return 0, errf(lnum, "bad hex escape %q", s[start:start+n])
	}
	return v, nil
}

// parseFlowSeq parses "[a, b, [c]]".
func parseFlowSeq(s string, lnum int) (any, error) {
	items, err := splitFlow(s, '[', ']', lnum)
	if err != nil {
		return nil, err
	}
	seq := make([]any, 0, len(items))
	for _, it := range items {
		v, err := parseScalar(it, lnum)
		if err != nil {
			return nil, err
		}
		seq = append(seq, v)
	}
	return seq, nil
}

// parseFlowMap parses "{a: 1, b: two}".
func parseFlowMap(s string, lnum int) (any, error) {
	items, err := splitFlow(s, '{', '}', lnum)
	if err != nil {
		return nil, err
	}
	m := make(map[string]any, len(items))
	for _, it := range items {
		rawKey, rest := splitKey(it)
		if rawKey == "" {
			// Accept "key:value" without a space inside flow maps.
			if idx := strings.Index(it, ":"); idx > 0 {
				rawKey, rest = strings.TrimSpace(it[:idx]), strings.TrimSpace(it[idx+1:])
			} else {
				return nil, errf(lnum, "invalid flow map entry %q", it)
			}
		}
		k, err := unquoteKey(rawKey, lnum)
		if err != nil {
			return nil, err
		}
		v, err := parseScalar(rest, lnum)
		if err != nil {
			return nil, err
		}
		m[k] = v
	}
	return m, nil
}

// splitFlow splits the comma-separated items of a flow collection,
// respecting nesting and quotes.
func splitFlow(s string, open, close byte, lnum int) ([]string, error) {
	if len(s) < 2 || s[0] != open || s[len(s)-1] != close {
		return nil, errf(lnum, "malformed flow collection %q", s)
	}
	body := s[1 : len(s)-1]
	var items []string
	depth := 0
	inS, inD := false, false
	start := 0
	for i := 0; i < len(body); i++ {
		c := body[i]
		switch c {
		case '\\':
			if inD {
				i++ // an escaped character cannot close the string
			}
		case '\'':
			if !inD {
				inS = !inS
			}
		case '"':
			if !inS {
				inD = !inD
			}
		case '[', '{':
			if !inS && !inD {
				depth++
			}
		case ']', '}':
			if !inS && !inD {
				depth--
			}
		case ',':
			if !inS && !inD && depth == 0 {
				items = append(items, strings.TrimSpace(body[start:i]))
				start = i + 1
			}
		}
	}
	if depth != 0 || inS || inD {
		return nil, errf(lnum, "unbalanced flow collection %q", s)
	}
	last := strings.TrimSpace(body[start:])
	if last != "" || len(items) > 0 {
		items = append(items, last)
	}
	// Drop a trailing empty item from "[a, ]".
	if n := len(items); n > 0 && items[n-1] == "" {
		items = items[:n-1]
	}
	return items, nil
}
