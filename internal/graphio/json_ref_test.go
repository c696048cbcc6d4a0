package graphio

import (
	"encoding/json"
	"io"

	"repro/internal/graph"
)

// refReadJSON is the encoding/json token reader that the byte scanner
// in json.go replaced, kept as the reference FuzzJSONVsReference checks
// the scanner against. It parses {"n": <n>, "edges": [[u,v], ...]}
// token by token: keys in either order, unknown and duplicate keys
// rejected, numbers accepted iff their float64 value is integral, and
// exactly one JSON value (trailing data errors).
func refReadJSON(r io.Reader, maxNodes int) (*graph.Graph, error) {
	dec := json.NewDecoder(r)
	if err := refExpectDelim(dec, '{'); err != nil {
		return nil, err
	}
	n := -1
	sawEdges := false
	acc, err := newRefAccum(maxNodes, -1)
	if err != nil {
		return nil, err
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return nil, refJSONErr(err)
		}
		key, ok := tok.(string)
		if !ok {
			return nil, parseErrf(JSON, 0, "unexpected token %v for object key", tok)
		}
		switch key {
		case "n":
			if n >= 0 {
				return nil, parseErrf(JSON, 0, "duplicate key %q", key)
			}
			var v int64
			if err := refDecodeInt(dec, &v); err != nil {
				return nil, err
			}
			if v < 0 {
				return nil, parseErrf(JSON, 0, "negative n %d", v)
			}
			n = int(v)
			prev := acc.edges
			if acc, err = newRefAccum(maxNodes, n); err != nil {
				return nil, err
			}
			// Re-validate any edges parsed before n was known.
			for _, e := range prev {
				if aerr := acc.add(0, int(e.U), int(e.V)); aerr != nil {
					return nil, aerr
				}
			}
		case "edges":
			if sawEdges {
				return nil, parseErrf(JSON, 0, "duplicate key %q", key)
			}
			sawEdges = true
			if err := refExpectDelim(dec, '['); err != nil {
				return nil, err
			}
			for dec.More() {
				if err := refExpectDelim(dec, '['); err != nil {
					return nil, err
				}
				var u, v int64
				if err := refDecodeInt(dec, &u); err != nil {
					return nil, err
				}
				if err := refDecodeInt(dec, &v); err != nil {
					return nil, err
				}
				if dec.More() {
					return nil, parseErrf(JSON, 0, "edge with more than two endpoints")
				}
				if err := refExpectDelim(dec, ']'); err != nil {
					return nil, err
				}
				if aerr := acc.add(0, int(u), int(v)); aerr != nil {
					return nil, aerr
				}
			}
			if err := refExpectDelim(dec, ']'); err != nil {
				return nil, err
			}
		default:
			return nil, parseErrf(JSON, 0, "unknown key %q", key)
		}
	}
	if err := refExpectDelim(dec, '}'); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, parseErrf(JSON, 0, "missing key \"n\"")
	}
	if !sawEdges {
		return nil, parseErrf(JSON, 0, "missing key \"edges\"")
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, parseErrf(JSON, 0, "trailing data after graph object")
	}
	return acc.build()
}

func refJSONErr(err error) error {
	return parseErrf(JSON, 0, "%v", err)
}

// expectDelim consumes one token and requires it to be the delimiter d.
func refExpectDelim(dec *json.Decoder, d rune) error {
	tok, err := dec.Token()
	if err != nil {
		return refJSONErr(err)
	}
	if got, ok := tok.(json.Delim); !ok || rune(got) != d {
		return parseErrf(JSON, 0, "unexpected token %v (want %q)", tok, string(d))
	}
	return nil
}

// decodeInt consumes one token and requires an integral JSON number.
func refDecodeInt(dec *json.Decoder, out *int64) error {
	tok, err := dec.Token()
	if err != nil {
		return refJSONErr(err)
	}
	num, ok := tok.(float64)
	if !ok {
		return parseErrf(JSON, 0, "unexpected token %v (want integer)", tok)
	}
	v := int64(num)
	if float64(v) != num {
		return parseErrf(JSON, 0, "non-integer number %v", num)
	}
	*out = v
	return nil
}

// refAccum is the reference reader's edge buffer: a flat copy of every
// edge, bounds-checked against n (or, while n < 0 is unknown, against
// the cap) and handed to a Builder only at the end.
type refAccum struct {
	maxNodes int
	n        int
	edges    []graph.Edge
	maxNode  int
}

func newRefAccum(maxNodes, n int) (*refAccum, error) {
	if n > maxNodes {
		return nil, parseErrf(JSON, 0, "node count %d exceeds the %d limit", n, maxNodes)
	}
	return &refAccum{maxNodes: maxNodes, n: n, maxNode: -1}, nil
}

func (a *refAccum) add(line, u, v int) error {
	if u == v {
		return parseErrf(JSON, line, "self-loop at node %d", u)
	}
	if u < 0 || v < 0 {
		return parseErrf(JSON, line, "negative node in edge (%d,%d)", u, v)
	}
	hi := max(u, v)
	if a.n >= 0 && hi >= a.n {
		return parseErrf(JSON, line, "edge (%d,%d) out of range [0,%d)", u, v, a.n)
	}
	if hi >= a.maxNodes {
		return parseErrf(JSON, line, "edge (%d,%d) exceeds the %d-node limit", u, v, a.maxNodes)
	}
	a.maxNode = max(a.maxNode, hi)
	a.edges = append(a.edges, graph.NormEdge(u, v))
	return nil
}

func (a *refAccum) build() (*graph.Graph, error) {
	b := graph.NewBuilder(a.n)
	for _, e := range a.edges {
		b.AddEdge(int(e.U), int(e.V))
	}
	g := b.Build()
	if g.M() != len(a.edges) {
		return nil, parseErrf(JSON, 0, "%d duplicate edges", len(a.edges)-g.M())
	}
	return g, nil
}
