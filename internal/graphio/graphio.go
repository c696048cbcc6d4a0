// Package graphio provides streaming readers and writers for the graph
// interchange formats understood by the serving layer and the CLIs:
// plain edge lists, DIMACS, JSON, and a compact delta-encoded binary
// format. Every reader validates as it parses — node bounds, self-loops,
// duplicate edges, malformed records, a node cap checked before
// anything is allocated — and feeds edges straight into one
// graph.Builder, scanning bytes in the reader's buffer with O(1)
// allocations per graph. The repository benchmark's traced serve-mixed
// workload reports the throughput as graphio.decode_mb_per_s per
// format; three runs on a 2-vCPU host read 40–61 (edge-list), 56–81
// (DIMACS), 34–65 (JSON) and 25–31 (binary) MB/s over graphs of 10^3
// to 10^5 nodes. Writers are
// deterministic: the edge stream is emitted in canonical sorted order,
// so Write∘Read∘Write round-trips are byte-identical for every format
// (exercised by the round-trip property tests).
//
// The package also defines the canonical content hash of a graph
// (Hash), the basis of the service layer's content-addressed result
// cache: two graphs hash equally iff they are the same labeled graph.
package graphio

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/graph"
)

// Format identifies a graph interchange format.
type Format int

// Supported formats.
const (
	// Auto sniffs the format from the input's leading bytes (and, for
	// ReadFile, the file extension).
	Auto Format = iota
	// EdgeList is whitespace-separated "u v" lines with '#' comments.
	// The writer emits a "# graphio edge-list n=<n> m=<m>" header so
	// isolated trailing nodes survive round trips; headerless files
	// infer n as maxNode+1.
	EdgeList
	// DIMACS is the classic "p edge n m" / "e u v" 1-based format.
	DIMACS
	// JSON is {"n": <n>, "edges": [[u,v], ...]}, keys in either order.
	JSON
	// Binary is the compact format: "PGB1" magic, uvarint n and m, then
	// delta-encoded uvarint edge gaps over the canonical sorted order.
	Binary
)

// String implements fmt.Stringer with the names ParseFormat accepts.
func (f Format) String() string {
	switch f {
	case Auto:
		return "auto"
	case EdgeList:
		return "edge-list"
	case DIMACS:
		return "dimacs"
	case JSON:
		return "json"
	case Binary:
		return "binary"
	default:
		return fmt.Sprintf("format(%d)", int(f))
	}
}

// ParseFormat maps a format name (as accepted by CLI flags and the HTTP
// API) to its Format.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "auto":
		return Auto, nil
	case "edge-list", "edgelist", "edges", "txt":
		return EdgeList, nil
	case "dimacs", "col":
		return DIMACS, nil
	case "json":
		return JSON, nil
	case "binary", "bin", "pgb":
		return Binary, nil
	default:
		return Auto, fmt.Errorf("graphio: unknown format %q (want edge-list|dimacs|json|binary|auto)", s)
	}
}

// Formats lists the four concrete formats (excluding Auto), for tests
// and CLIs that iterate over all of them.
func Formats() []Format { return []Format{EdgeList, DIMACS, JSON, Binary} }

// ParseError reports a malformed input with its location.
type ParseError struct {
	Format Format
	Line   int // 1-based line for text formats, 0 for binary
	Msg    string
	Err    error // underlying cause (ErrNodeLimit, a read error), or nil
}

// Error implements error.
func (e *ParseError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("graphio: %s line %d: %s", e.Format, e.Line, e.Msg)
	}
	return fmt.Sprintf("graphio: %s: %s", e.Format, e.Msg)
}

// Unwrap returns the underlying cause, so errors.Is(err, ErrNodeLimit)
// and errors.As on a read error see through the ParseError.
func (e *ParseError) Unwrap() error { return e.Err }

func parseErrf(f Format, line int, format string, args ...any) error {
	return &ParseError{Format: f, Line: line, Msg: fmt.Sprintf(format, args...)}
}

// MaxNodes bounds the node counts a reader accepts, protecting servers
// against tiny inputs that declare astronomically large graphs (e.g. a
// 12-byte binary header requesting a 2^60-node allocation).
const MaxNodes = 1 << 28

// ErrNodeLimit is wrapped by the *ParseError a reader returns when the
// input declares or references more nodes than the reader's cap. The
// check runs before the graph is allocated.
var ErrNodeLimit = errors.New("graphio: node count over the cap")

// ingest validates the edges of one reader pass and feeds them straight
// into a single graph.Builder. The node count n is declared by a header
// (or JSON's "n") or, when n < 0, not known yet: endpoints are then
// checked against the cap and the Builder grows to the largest one.
type ingest struct {
	f        Format
	maxNodes int
	n        int // declared node count, -1 while unknown
	wantM    int // declared edge count, -1 when unknown
	b        *graph.Builder
	edges    int // edges added, repeats included
	maxNode  int // largest endpoint added while n was unknown, -1 if none
}

func newIngest(f Format, maxNodes int) *ingest {
	return &ingest{f: f, maxNodes: min(maxNodes, MaxNodes), n: -1, wantM: -1, b: graph.NewBuilder(0), maxNode: -1}
}

// overCap reports a node count beyond the cap.
func (in *ingest) overCap(line int, n uint64) error {
	return &ParseError{Format: in.f, Line: line, Err: ErrNodeLimit,
		Msg: fmt.Sprintf("node count %d exceeds the %d-node limit", n, in.maxNodes)}
}

// declare fixes the node count n and, when m >= 0, the edge count.
// Edges added before it must lie below n.
func (in *ingest) declare(line, n, m int) error {
	if n > in.maxNodes {
		return in.overCap(line, uint64(n))
	}
	if in.maxNode >= n {
		return parseErrf(in.f, line, "edge endpoint %d out of range [0,%d)", in.maxNode, n)
	}
	in.n, in.wantM = n, m
	in.b.GrowNodes(n)
	if m > 0 && m <= 3*n { // planar-scale hint; oversized claims fall back to append growth
		in.b.Reserve(m)
	}
	return nil
}

func (in *ingest) add(line, u, v int) error {
	if u == v {
		return parseErrf(in.f, line, "self-loop at node %d", u)
	}
	if u < 0 || v < 0 {
		return parseErrf(in.f, line, "negative node in edge (%d,%d)", u, v)
	}
	hi := max(u, v)
	switch {
	case in.n >= 0:
		if hi >= in.n {
			return parseErrf(in.f, line, "edge (%d,%d) out of range [0,%d)", u, v, in.n)
		}
	case hi >= in.maxNodes:
		return &ParseError{Format: in.f, Line: line, Err: ErrNodeLimit,
			Msg: fmt.Sprintf("edge (%d,%d) exceeds the %d-node limit", u, v, in.maxNodes)}
	case hi > in.maxNode:
		in.maxNode = hi
		in.b.GrowNodes(hi + 1)
	}
	in.b.AddEdge(u, v)
	in.edges++
	return nil
}

// build finalizes the Builder, detecting repeated edges (Build drops
// them silently, so fewer edges than were added means the input
// repeated one) and a mismatch against a declared m.
func (in *ingest) build() (*graph.Graph, error) {
	if in.wantM >= 0 && in.edges != in.wantM {
		return nil, parseErrf(in.f, 0, "declared m=%d but found %d edges", in.wantM, in.edges)
	}
	g := in.b.Build()
	if g.M() != in.edges {
		return nil, parseErrf(in.f, 0, "%d duplicate edges", in.edges-g.M())
	}
	return g, nil
}

// eachLine calls fn with every line of br, trimmed of surrounding white
// space, and its 1-based number. The slice aliases the reader's buffer
// and is valid only during the call; a line longer than the buffer is
// assembled in one scratch slice.
func eachLine(br *bufio.Reader, fn func(line int, t []byte) error) error {
	var long []byte
	for line := 1; ; line++ {
		s, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			long = append(long[:0], s...)
			for err == bufio.ErrBufferFull {
				s, err = br.ReadSlice('\n')
				long = append(long, s...)
			}
			s = long
		}
		if len(s) > 0 {
			if ferr := fn(line, bytes.TrimSpace(s)); ferr != nil {
				return ferr
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// hasPrefix is bytes.HasPrefix against a string prefix.
func hasPrefix(t []byte, p string) bool {
	return len(t) >= len(p) && string(t[:len(p)]) == p
}

// eachEdge calls fn for every edge (u < v) in canonical sorted order,
// streaming straight off the adjacency lists (no Edges() slice).
func eachEdge(g *graph.Graph, fn func(u, v int) error) error {
	for u := 0; u < g.N(); u++ {
		for _, w := range g.Neighbors(u) {
			if v := int(w); u < v {
				if err := fn(u, v); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Read parses a graph from r in the given format; Auto sniffs the
// format first (see Detect). Inputs of more than MaxNodes nodes are
// rejected.
func Read(r io.Reader, f Format) (*graph.Graph, error) {
	return ReadLimit(r, f, MaxNodes)
}

// ReadLimit is Read with a node cap: an input that declares or
// references more than maxNodes nodes (at most MaxNodes) fails with a
// *ParseError wrapping ErrNodeLimit before the graph is allocated.
func ReadLimit(r io.Reader, f Format, maxNodes int) (*graph.Graph, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	if f == Auto {
		var err error
		if f, err = Detect(br); err != nil {
			return nil, err
		}
	}
	switch f {
	case EdgeList:
		return readEdgeList(br, maxNodes)
	case DIMACS:
		return readDIMACS(br, maxNodes)
	case JSON:
		return readJSON(br, maxNodes)
	case Binary:
		return readBinary(br, maxNodes)
	default:
		return nil, fmt.Errorf("graphio: cannot read format %v", f)
	}
}

// Write serializes g to w in the given format (Auto is not writable).
// Output is deterministic: a canonical sorted edge stream, so writing
// the same graph always produces the same bytes.
func Write(w io.Writer, g *graph.Graph, f Format) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var err error
	switch f {
	case EdgeList:
		err = writeEdgeList(bw, g)
	case DIMACS:
		err = writeDIMACS(bw, g)
	case JSON:
		err = writeJSON(bw, g)
	case Binary:
		err = writeBinary(bw, g)
	default:
		err = fmt.Errorf("graphio: cannot write format %v", f)
	}
	if err != nil {
		return err
	}
	return bw.Flush()
}

// Detect sniffs the format from the reader's buffered prefix without
// consuming it: binary magic, a leading '{' for JSON, DIMACS 'c'/'p'
// lines, otherwise an edge list.
func Detect(br *bufio.Reader) (Format, error) {
	prefix, err := br.Peek(512)
	if len(prefix) == 0 {
		if err != nil && err != io.EOF {
			return Auto, err
		}
		return Auto, fmt.Errorf("graphio: empty input")
	}
	return DetectBytes(prefix), nil
}

// DetectBytes classifies a prefix of the input (see Detect).
func DetectBytes(prefix []byte) Format {
	if len(prefix) >= len(binaryMagic) && string(prefix[:len(binaryMagic)]) == binaryMagic {
		return Binary
	}
	for _, line := range strings.Split(string(prefix), "\n") {
		s := strings.TrimSpace(line)
		if s == "" {
			continue
		}
		switch {
		case s[0] == '{':
			return JSON
		case s[0] == 'c' || s[0] == 'p' || s[0] == 'e':
			// A DIMACS record ('c comment', 'p edge n m', 'e u v'); a bare
			// edge list line starts with a digit.
			return DIMACS
		case s[0] == '#':
			continue // edge-list comment; keep scanning
		default:
			return EdgeList
		}
	}
	return EdgeList
}

// DetectPath guesses a format from a file extension, falling back to
// Auto (content sniffing) for unknown extensions.
func DetectPath(path string) Format {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".txt", ".edges", ".el":
		return EdgeList
	case ".col", ".dimacs":
		return DIMACS
	case ".json":
		return JSON
	case ".pgb", ".bin":
		return Binary
	default:
		return Auto
	}
}

// ReadFile reads a graph from path. Format Auto tries the file
// extension first, then content sniffing.
func ReadFile(path string, f Format) (*graph.Graph, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	if f == Auto {
		f = DetectPath(path)
	}
	return Read(fh, f)
}

// WriteFile writes g to path in the given format (Auto: by extension,
// defaulting to EdgeList).
func WriteFile(path string, g *graph.Graph, f Format) error {
	if f == Auto {
		if f = DetectPath(path); f == Auto {
			f = EdgeList
		}
	}
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(fh, g, f); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}
