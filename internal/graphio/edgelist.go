package graphio

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/graph"
)

// edgeListHeader is the comment header the writer emits so that node
// counts (including isolated trailing nodes) survive round trips.
// Readers treat any other '#' line as a plain comment.
const edgeListHeaderPrefix = "# graphio edge-list "

// readEdgeList parses whitespace-separated "u v" lines. Blank lines and
// '#' comments are skipped; the optional writer header pins n and m.
func readEdgeList(br *bufio.Reader, maxNodes int) (*graph.Graph, error) {
	in := newIngest(EdgeList, maxNodes)
	err := eachLine(br, func(line int, t []byte) error {
		switch {
		case len(t) == 0:
		case hasPrefix(t, edgeListHeaderPrefix):
			if in.n >= 0 || in.edges > 0 {
				return parseErrf(EdgeList, line, "header after data")
			}
			n, m, herr := parseEdgeListHeader(string(t))
			if herr != nil {
				return parseErrf(EdgeList, line, "%v", herr)
			}
			return in.declare(line, n, m)
		case t[0] == '#':
		default:
			u, v, perr := parseEdgePair(t)
			if perr != nil {
				return parseErrf(EdgeList, line, "bad edge line %q: %v", t, perr)
			}
			return in.add(line, u, v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return in.build()
}

// parseEdgeListHeader parses "# graphio edge-list n=<n> m=<m>".
func parseEdgeListHeader(t string) (n, m int, err error) {
	n, m = -1, -1
	for _, field := range strings.Fields(t[len(edgeListHeaderPrefix):]) {
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return 0, 0, fmt.Errorf("bad header field %q", field)
		}
		x, err := strconv.Atoi(val)
		if err != nil || x < 0 {
			return 0, 0, fmt.Errorf("bad header value %q", field)
		}
		switch key {
		case "n":
			n = x
		case "m":
			m = x
		default:
			return 0, 0, fmt.Errorf("unknown header field %q", field)
		}
	}
	if n < 0 {
		return 0, 0, fmt.Errorf("header missing n")
	}
	return n, m, nil
}

// parseEdgePair parses exactly two integers separated by spaces or
// tabs, each in strconv.Atoi syntax. t has no trailing white space.
func parseEdgePair(t []byte) (u, v int, err error) {
	us, rest := cutField(trimLeftSpace(t))
	if len(us) == 0 {
		return 0, 0, errors.New("want two fields")
	}
	vs, rest := cutField(rest)
	if len(rest) != 0 {
		return 0, 0, fmt.Errorf("trailing data %q", rest)
	}
	if u, err = atoi(us); err != nil {
		return 0, 0, err
	}
	if v, err = atoi(vs); err != nil {
		return 0, 0, err
	}
	return u, v, nil
}

// cutField splits s at its first space or tab, trimming the white
// space that leads the rest.
func cutField(s []byte) (field, rest []byte) {
	for i, c := range s {
		if c == ' ' || c == '\t' {
			return s[:i], trimLeftSpace(s[i:])
		}
	}
	return s, nil
}

// trimLeftSpace drops leading white space, Unicode included, like the
// left half of bytes.TrimSpace.
func trimLeftSpace(s []byte) []byte {
	for len(s) > 0 {
		switch c := s[0]; {
		case c >= utf8.RuneSelf:
			return bytes.TrimLeftFunc(s, unicode.IsSpace)
		case c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r':
			s = s[1:]
		default:
			return s
		}
	}
	return s
}

// atoi is strconv.Atoi over a byte slice: an optional sign, then one or
// more decimal digits, within the range of int.
func atoi(s []byte) (int, error) {
	d := s
	if len(d) > 0 && (d[0] == '+' || d[0] == '-') {
		d = d[1:]
	}
	if len(d) == 0 || len(d) > 18 { // 18 digits cannot overflow; leave the rest to strconv
		return strconv.Atoi(string(s))
	}
	x := 0
	for _, c := range d {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("invalid integer %q", s)
		}
		x = x*10 + int(c-'0')
	}
	if s[0] == '-' {
		x = -x
	}
	return x, nil
}

// writeEdgeList emits the header plus one "u v" line per edge in
// canonical sorted order.
func writeEdgeList(bw *bufio.Writer, g *graph.Graph) error {
	if _, err := fmt.Fprintf(bw, "%sn=%d m=%d\n", edgeListHeaderPrefix, g.N(), g.M()); err != nil {
		return err
	}
	return eachEdge(g, func(u, v int) error {
		_, err := fmt.Fprintf(bw, "%d %d\n", u, v)
		return err
	})
}
