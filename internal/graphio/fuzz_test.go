package graphio

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"repro/internal/graph"
)

// FuzzReadBinary throws arbitrary bytes at the binary reader: it must
// never panic, and anything it accepts must re-encode byte-identically
// (the format has exactly one encoding per graph).
func FuzzReadBinary(f *testing.F) {
	seed := func(g *graph.Graph) {
		var buf bytes.Buffer
		if err := Write(&buf, g, Binary); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed(graph.NewBuilder(0).Build())
	seed(graph.Path(9))
	seed(graph.Grid(4, 5))
	seed(graph.Complete(6))
	f.Add([]byte("PGB1"))
	f.Add([]byte("PGB1\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"))

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Read(bytes.NewReader(data), Binary)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := Write(&out, g, Binary); err != nil {
			t.Fatalf("re-encode of accepted input failed: %v", err)
		}
		if !bytes.Equal(data, out.Bytes()) {
			t.Fatalf("accepted %q but re-encoded as %q", data, out.Bytes())
		}
	})
}

// fuzzMaxNodes is the node cap the text-reader fuzzers read under, so
// a few bytes declaring a huge graph (e.g. "44444440 0") fail fast
// instead of allocating gigabytes.
const fuzzMaxNodes = 1 << 12

// checkNodeCap asserts the cap's contract for data read as format f:
// an accepted graph of n nodes fits the cap, and reading the same bytes
// under the cap n-1 fails with a *ParseError wrapping ErrNodeLimit.
func checkNodeCap(t *testing.T, data []byte, f Format, g *graph.Graph) {
	t.Helper()
	if g.N() > fuzzMaxNodes {
		t.Fatalf("accepted n=%d over the %d-node cap", g.N(), fuzzMaxNodes)
	}
	if g.N() == 0 {
		return
	}
	_, err := ReadLimit(bytes.NewReader(data), f, g.N()-1)
	var pe *ParseError
	if !errors.Is(err, ErrNodeLimit) || !errors.As(err, &pe) {
		t.Fatalf("n=%d input under cap %d: got %v, want a *ParseError wrapping ErrNodeLimit", g.N(), g.N()-1, err)
	}
}

// FuzzReadAuto exercises format sniffing plus every text reader: no
// input may panic, every rejection of a non-empty input is a
// *ParseError, the node cap holds, and accepted graphs must round-trip
// through their detected format.
func FuzzReadAuto(f *testing.F) {
	f.Add([]byte("0 1\n1 2\n"))
	f.Add([]byte("# graphio edge-list n=3 m=1\n0 1\n"))
	f.Add([]byte("p edge 3 2\ne 1 2\ne 2 3\n"))
	f.Add([]byte(`{"n":3,"edges":[[0,1],[1,2]]}`))
	f.Add([]byte("PGB1\x03\x02\x00\x00\x01\x00"))
	f.Add([]byte("44444440 0"))
	f.Add([]byte("p edge 268435000 0\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadLimit(bytes.NewReader(data), Auto, fuzzMaxNodes)
		if err != nil {
			var pe *ParseError
			if len(data) > 0 && !errors.As(err, &pe) {
				t.Fatalf("rejection %v (%T) is not a *ParseError", err, err)
			}
			return
		}
		fmtDetected := DetectBytes(data)
		checkNodeCap(t, data, fmtDetected, g)
		var out bytes.Buffer
		if err := Write(&out, g, fmtDetected); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		got, err := Read(&out, fmtDetected)
		if err != nil {
			t.Fatalf("canonical re-encoding rejected: %v", err)
		}
		if got.N() != g.N() || got.M() != g.M() {
			t.Fatalf("round trip changed size: n=%d m=%d vs n=%d m=%d", got.N(), got.M(), g.N(), g.M())
		}
	})
}

// FuzzJSONVsReference checks the byte-scanning JSON reader against the
// encoding/json token reader it replaced (json_ref_test.go): both must
// accept exactly the same inputs and build the same adjacency, and the
// scanner must reject everything else with a *ParseError.
func FuzzJSONVsReference(f *testing.F) {
	for _, s := range []string{
		`{"n":3,"edges":[[0,1],[1,2]]}`,
		`{"edges":[[1,0]],"n":2}`,
		` { "n" : 4 , "edges" : [ [ 0 , 3 ] , [2,1] ] } ` + "\n",
		`{"\u006e":2,"\u0065dges":[[0,1]]}`,
		`{"n":1e1,"edges":[[0,1.0],[2E0,3e+0],[4,50e-1]]}`,
		`{"n":-0,"edges":[]}`,
		`{"n":1.5,"edges":[]}`,
		`{"n":01,"edges":[]}`,
		`{"n":2,"edges":[[0,1],[1,0]]}`,
		`{"n":2,"edges":[[0,1]],"n":2}`,
		`{"n":2,"edges":[[0,1,1]]}`,
		`{"n":2,"edges":[[0,1],]}`,
		`{"n":2,"edges":[]} x`,
		`{"n":5000,"edges":[]}`,
		`{"edges":[[0,4095]],"n":4096}`,
		`{"n":3,"edges":[[0,9007199254740993]]}`,
		`{"n":3,"edges":[[0,1e400]]}`,
		`{"n":3,"edges":[[0,1e-400]]}`,
		`{"n\ud800":1}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadLimit(bytes.NewReader(data), JSON, fuzzMaxNodes)
		want, refErr := refReadJSON(bytes.NewReader(data), fuzzMaxNodes)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("scanner error %v, reference error %v", err, refErr)
		}
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("rejection %v (%T) is not a *ParseError", err, err)
			}
			return
		}
		if got.N() != want.N() || got.M() != want.M() {
			t.Fatalf("scanner built n=%d m=%d, reference n=%d m=%d", got.N(), got.M(), want.N(), want.M())
		}
		for v := 0; v < want.N(); v++ {
			if !slices.Equal(got.Neighbors(v), want.Neighbors(v)) {
				t.Fatalf("node %d: scanner neighbors %v, reference %v", v, got.Neighbors(v), want.Neighbors(v))
			}
		}
		checkNodeCap(t, data, JSON, got)
	})
}
