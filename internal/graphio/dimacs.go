package graphio

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// readDIMACS parses the DIMACS edge format: 'c' comment lines, exactly
// one 'p edge <n> <m>' problem line before any edge, and m 'e <u> <v>'
// lines with 1-based endpoints.
func readDIMACS(br *bufio.Reader, maxNodes int) (*graph.Graph, error) {
	in := newIngest(DIMACS, maxNodes)
	err := eachLine(br, func(line int, t []byte) error {
		switch {
		case len(t) == 0 || t[0] == 'c':
		case hasPrefix(t, "p "):
			if in.n >= 0 {
				return parseErrf(DIMACS, line, "duplicate problem line")
			}
			f := strings.Fields(string(t))
			if len(f) != 4 || f[1] != "edge" {
				return parseErrf(DIMACS, line, "bad problem line %q (want \"p edge n m\")", t)
			}
			n, err1 := strconv.Atoi(f[2])
			m, err2 := strconv.Atoi(f[3])
			if err1 != nil || err2 != nil || n < 0 || m < 0 {
				return parseErrf(DIMACS, line, "bad problem line %q", t)
			}
			return in.declare(line, n, m)
		case hasPrefix(t, "e "):
			if in.n < 0 {
				return parseErrf(DIMACS, line, "edge before problem line")
			}
			u, v, perr := parseEdgePair(t[2:])
			if perr != nil {
				return parseErrf(DIMACS, line, "bad edge line %q: %v", t, perr)
			}
			if u < 1 || v < 1 {
				return parseErrf(DIMACS, line, "node below 1 in edge line %q (DIMACS is 1-based)", t)
			}
			return in.add(line, u-1, v-1)
		default:
			return parseErrf(DIMACS, line, "unknown record %q", t)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if in.n < 0 {
		return nil, parseErrf(DIMACS, 0, "missing problem line")
	}
	return in.build()
}

// writeDIMACS emits the problem line plus 1-based edges in canonical
// sorted order.
func writeDIMACS(bw *bufio.Writer, g *graph.Graph) error {
	if _, err := fmt.Fprintf(bw, "p edge %d %d\n", g.N(), g.M()); err != nil {
		return err
	}
	return eachEdge(g, func(u, v int) error {
		_, err := fmt.Fprintf(bw, "e %d %d\n", u+1, v+1)
		return err
	})
}
