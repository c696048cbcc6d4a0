package graphio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"unicode/utf8"

	"repro/internal/graph"
)

// readJSON parses {"n": <n>, "edges": [[u,v], ...]} with a strict byte
// scanner over the reader's buffer, feeding each edge straight into the
// Builder. Keys may appear in either order and may be escaped; unknown
// and duplicate keys are rejected. A number is accepted iff its float64
// value is integral (2, 2.0, 1e2, -0). Exactly one JSON value is
// allowed: anything but white space after it is an error.
func readJSON(br *bufio.Reader, maxNodes int) (*graph.Graph, error) {
	s := jsonScanner{br: br}
	in := newIngest(JSON, maxNodes)
	if err := s.expect('{'); err != nil {
		return nil, err
	}
	sawN, sawEdges := false, false
	if c, err := s.skipSpace(); err == nil && c == '}' {
		s.i++
	} else {
		for {
			key, err := s.key()
			if err != nil {
				return nil, err
			}
			switch string(key) {
			case "n":
				if sawN {
					return nil, parseErrf(JSON, 0, "duplicate key %q", key)
				}
				sawN = true
				if err := s.expect(':'); err != nil {
					return nil, err
				}
				n, err := s.integer()
				if err != nil {
					return nil, err
				}
				if n < 0 {
					return nil, parseErrf(JSON, 0, "negative n %d", n)
				}
				if err := in.declare(0, int(n), -1); err != nil {
					return nil, err
				}
			case "edges":
				if sawEdges {
					return nil, parseErrf(JSON, 0, "duplicate key %q", key)
				}
				sawEdges = true
				if err := s.expect(':'); err != nil {
					return nil, err
				}
				if err := s.edges(in); err != nil {
					return nil, err
				}
			default:
				return nil, parseErrf(JSON, 0, "unknown key %q", key)
			}
			c, err := s.skipSpace()
			if err == nil && c == '}' {
				s.i++
				break
			}
			if err != nil || c != ',' {
				return nil, s.unexpected(c, err, `"," or "}"`)
			}
			s.i++
		}
	}
	if !sawN {
		return nil, parseErrf(JSON, 0, "missing key \"n\"")
	}
	if !sawEdges {
		return nil, parseErrf(JSON, 0, "missing key \"edges\"")
	}
	switch _, err := s.skipSpace(); err {
	case io.EOF:
	case nil:
		return nil, parseErrf(JSON, 0, "trailing data after graph object")
	default:
		return nil, s.unexpected(0, err, "end of input")
	}
	return in.build()
}

// jsonScanner reads JSON tokens straight out of a bufio.Reader's
// buffer: buf holds the buffered bytes, of which buf[i:] are unread.
// Read errors are sticky.
type jsonScanner struct {
	br  *bufio.Reader
	buf []byte
	i   int
	err error
	tok []byte // scratch: the current number literal or key
}

// fill discards the consumed bytes and exposes the next buffered ones,
// reading more when the buffer is empty. It returns io.EOF at the end
// of input.
func (s *jsonScanner) fill() error {
	if s.err != nil {
		return s.err
	}
	// Discarding and peeking bytes already buffered cannot fail.
	_, _ = s.br.Discard(s.i)
	s.i = 0
	if _, err := s.br.Peek(1); err != nil {
		s.buf, s.err = nil, err
		return err
	}
	s.buf, _ = s.br.Peek(s.br.Buffered())
	return nil
}

// peek returns the next byte without consuming it.
func (s *jsonScanner) peek() (byte, error) {
	if s.i < len(s.buf) {
		return s.buf[s.i], nil
	}
	if err := s.fill(); err != nil {
		return 0, err
	}
	return s.buf[0], nil
}

// skipSpace consumes JSON white space and returns the next byte
// without consuming it.
func (s *jsonScanner) skipSpace() (byte, error) {
	for {
		for s.i < len(s.buf) {
			switch c := s.buf[s.i]; c {
			case ' ', '\t', '\n', '\r':
				s.i++
			default:
				return c, nil
			}
		}
		if err := s.fill(); err != nil {
			return 0, err
		}
	}
}

// unexpected reports byte c (or read error err) where want was due.
func (s *jsonScanner) unexpected(c byte, err error, want string) error {
	switch err {
	case nil:
		return parseErrf(JSON, 0, "unexpected token %q (want %s)", c, want)
	case io.EOF:
		return parseErrf(JSON, 0, "unexpected end of input (want %s)", want)
	default:
		return &ParseError{Format: JSON, Msg: err.Error(), Err: err}
	}
}

// expect consumes white space and then the delimiter d.
func (s *jsonScanner) expect(d byte) error {
	c, err := s.skipSpace()
	if err != nil || c != d {
		return s.unexpected(c, err, strconv.QuoteRune(rune(d)))
	}
	s.i++
	return nil
}

// digits consumes a run of decimal digits into s.tok and returns its
// length.
func (s *jsonScanner) digits() int {
	k := 0
	for {
		for s.i < len(s.buf) {
			c := s.buf[s.i]
			if c < '0' || c > '9' {
				return k
			}
			s.tok = append(s.tok, c)
			s.i++
			k++
		}
		if s.fill() != nil {
			return k
		}
	}
}

// integer scans one JSON number,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its value
// when that is integral. The value is what decoding the number into a
// float64 gives: plain integers of up to 18 digits are exact, anything
// longer or with a fraction or exponent goes through
// strconv.ParseFloat.
func (s *jsonScanner) integer() (int64, error) {
	c, err := s.skipSpace()
	if err != nil || (c != '-' && (c < '0' || c > '9')) {
		return 0, s.unexpected(c, err, "integer")
	}
	s.tok = s.tok[:0]
	if c == '-' {
		s.tok = append(s.tok, c)
		s.i++
	}
	intStart := len(s.tok)
	if k := s.digits(); k == 0 || (k > 1 && s.tok[intStart] == '0') {
		return 0, s.badNumber()
	}
	plain := true
	if c, err := s.peek(); err == nil && c == '.' {
		s.tok = append(s.tok, c)
		s.i++
		if s.digits() == 0 {
			return 0, s.badNumber()
		}
		plain = false
	}
	if c, err := s.peek(); err == nil && (c == 'e' || c == 'E') {
		s.tok = append(s.tok, c)
		s.i++
		if c, err := s.peek(); err == nil && (c == '+' || c == '-') {
			s.tok = append(s.tok, c)
			s.i++
		}
		if s.digits() == 0 {
			return 0, s.badNumber()
		}
		plain = false
	}
	if s.err != nil && s.err != io.EOF {
		return 0, s.unexpected(0, s.err, "integer")
	}
	if plain && len(s.tok)-intStart <= 18 {
		var v int64
		for _, d := range s.tok[intStart:] {
			v = v*10 + int64(d-'0')
		}
		if intStart > 0 {
			v = -v
		}
		return v, nil
	}
	f, err := strconv.ParseFloat(string(s.tok), 64)
	if err != nil {
		return 0, parseErrf(JSON, 0, "number %s out of range", s.tok)
	}
	// |f| >= 2^63 does not fit an int64 (the conversion below would be
	// implementation-defined), so it is rejected like a fraction.
	if f >= 1<<63 || f < -(1<<63) || f != float64(int64(f)) {
		return 0, parseErrf(JSON, 0, "non-integer number %s", s.tok)
	}
	return int64(f), nil
}

// badNumber reports a malformed number literal (or the read error that
// cut it short).
func (s *jsonScanner) badNumber() error {
	if s.err != nil && s.err != io.EOF {
		return s.unexpected(0, s.err, "integer")
	}
	c, err := s.peek()
	if err != nil {
		return parseErrf(JSON, 0, "unexpected end of input in number %q", s.tok)
	}
	return parseErrf(JSON, 0, "invalid character %q in number %q", c, s.tok)
}

// key scans an object key; escapes are decoded (\u006e is "n"). The
// only valid keys are "n" and "edges", so the scan fails as soon as the
// key cannot be either: at an escape that decodes to anything but
// ASCII, or a sixth character. The result aliases s.tok.
func (s *jsonScanner) key() ([]byte, error) {
	c, err := s.skipSpace()
	if err != nil || c != '"' {
		return nil, s.unexpected(c, err, "object key")
	}
	s.i++
	s.tok = s.tok[:0]
	for {
		c, err := s.peek()
		if err != nil {
			return nil, s.unexpected(c, err, `closing '"'`)
		}
		s.i++
		switch c {
		case '"':
			return s.tok, nil
		case '\\':
			// Of the escapes, only \uXXXX can decode to a letter.
			if c, err = s.peek(); err != nil {
				return nil, s.unexpected(c, err, "escape")
			}
			if c != 'u' {
				return nil, parseErrf(JSON, 0, "unknown key %q…", s.tok)
			}
			s.i++
			r, err := s.hex4()
			if err != nil {
				return nil, err
			}
			if r >= utf8.RuneSelf {
				return nil, parseErrf(JSON, 0, "unknown key %q…", s.tok)
			}
			c = byte(r)
		}
		if len(s.tok) == len("edges") {
			return nil, parseErrf(JSON, 0, "unknown key %q…", s.tok)
		}
		s.tok = append(s.tok, c)
	}
}

// hex4 consumes the four hex digits of a \u escape.
func (s *jsonScanner) hex4() (rune, error) {
	var r rune
	for k := 0; k < 4; k++ {
		c, err := s.peek()
		if err != nil {
			return 0, s.unexpected(c, err, "hex digit")
		}
		var d byte
		switch {
		case '0' <= c && c <= '9':
			d = c - '0'
		case 'a' <= c && c <= 'f':
			d = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			d = c - 'A' + 10
		default:
			return 0, s.unexpected(c, nil, "hex digit")
		}
		s.i++
		r = r<<4 | rune(d)
	}
	return r, nil
}

// edges scans the edge array [[u,v], ...] into in.
func (s *jsonScanner) edges(in *ingest) error {
	if err := s.expect('['); err != nil {
		return err
	}
	c, err := s.skipSpace()
	if err == nil && c == ']' {
		s.i++
		return nil
	}
	for {
		if err := s.expect('['); err != nil {
			return err
		}
		u, err := s.integer()
		if err != nil {
			return err
		}
		if err := s.expect(','); err != nil {
			return err
		}
		v, err := s.integer()
		if err != nil {
			return err
		}
		c, err := s.skipSpace()
		if err == nil && c == ',' {
			return parseErrf(JSON, 0, "edge with more than two endpoints")
		}
		if err != nil || c != ']' {
			return s.unexpected(c, err, `"]"`)
		}
		s.i++
		if err := in.add(0, int(u), int(v)); err != nil {
			return err
		}
		c, err = s.skipSpace()
		if err != nil || (c != ',' && c != ']') {
			return s.unexpected(c, err, `"," or "]"`)
		}
		s.i++
		if c == ']' {
			return nil
		}
	}
}

// writeJSON emits the compact canonical encoding with n before edges.
func writeJSON(bw *bufio.Writer, g *graph.Graph) error {
	if _, err := fmt.Fprintf(bw, "{\"n\":%d,\"edges\":[", g.N()); err != nil {
		return err
	}
	first := true
	err := eachEdge(g, func(u, v int) error {
		sep := ","
		if first {
			sep, first = "", false
		}
		_, err := fmt.Fprintf(bw, "%s[%d,%d]", sep, u, v)
		return err
	})
	if err != nil {
		return err
	}
	_, err = bw.WriteString("]}\n")
	return err
}
