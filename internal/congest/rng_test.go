package congest

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// rngTestDraws crosses both register boundaries: draw 273, where the
// register is built, and draw 607, where the feed cursor wraps.
const rngTestDraws = 2000

// rngEdgeSeeds are the seeds math/rand's seed reduction treats specially:
// zero and the multiples of 2^31−1 reduce to zero (replaced by 89482311),
// negative seeds wrap, and the int64 extremes.
func rngEdgeSeeds() []int64 {
	seeds := []int64{0, 1, -1, 89482311, -89482311, math.MinInt64, math.MaxInt64,
		lehmerMod - 1, lehmerMod + 1, -(lehmerMod + 1)}
	for _, k := range []int64{1, 2, 3, 1000, math.MaxInt64 / lehmerMod} {
		seeds = append(seeds, k*lehmerMod, -k*lehmerMod)
	}
	return seeds
}

// checkRawStream compares draws raw values of a nodeSource with those
// of rand.NewSource(seed), alternating Uint64 and Int63.
func checkRawStream(t testing.TB, seed int64, draws int) {
	t.Helper()
	want := rand.NewSource(seed).(rand.Source64)
	var got nodeSource
	got.Seed(seed)
	for k := 0; k < draws; k++ {
		if k%2 == 0 {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d draw %d: Uint64 %#x, math/rand %#x", seed, k, g, w)
			}
		} else if w, g := want.Int63(), got.Int63(); w != g {
			t.Fatalf("seed %d draw %d: Int63 %#x, math/rand %#x", seed, k, g, w)
		}
	}
	if got.k != uint64(draws) {
		t.Fatalf("seed %d: counted %d draws, made %d", seed, got.k, draws)
	}
}

// checkRandStream compares the two sources through the rand.Rand methods
// the algorithms call (ExpFloat64 is the Elkin–Neiman shift) until at
// least draws source draws were made.
func checkRandStream(t testing.TB, seed int64, draws int) {
	t.Helper()
	want := rand.New(rand.NewSource(seed))
	var src nodeSource
	src.Seed(seed)
	got := rand.New(&src)
	for i := 0; src.k < uint64(draws); i++ {
		var w, g any
		switch i % 5 {
		case 0:
			w, g = want.Float64(), got.Float64()
		case 1:
			n := 1 + i%1000
			w, g = want.Intn(n), got.Intn(n)
		case 2:
			n := int64(1)<<62 + int64(i) // rejection sampling redraws often
			w, g = want.Int63n(n), got.Int63n(n)
		case 3:
			w, g = want.ExpFloat64(), got.ExpFloat64()
		case 4:
			w, g = want.Perm(7), got.Perm(7)
		}
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("seed %d call %d (draw %d): got %v, math/rand %v", seed, i, src.k, g, w)
		}
	}
}

// TestNodeSourceMatchesMathRand: the per-node source reproduces
// rand.NewSource's stream exactly, for the seed-reduction edge cases and
// for the node seeds of two runs.
func TestNodeSourceMatchesMathRand(t *testing.T) {
	seeds := rngEdgeSeeds()
	for _, run := range []int64{1, 902} {
		for node := 0; node < 1000; node++ {
			seeds = append(seeds, nodeSeed(run, node))
		}
	}
	for _, seed := range seeds {
		checkRawStream(t, seed, rngTestDraws)
		checkRandStream(t, seed, rngTestDraws)
	}
}

func FuzzNodeSourceVsMathRand(f *testing.F) {
	for _, seed := range rngEdgeSeeds() {
		f.Add(seed, uint16(rngTestDraws))
	}
	f.Add(int64(42), uint16(rngTap))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		checkRawStream(t, seed, int(draws))
		// A source skipped past draws continues the stream.
		want := rand.NewSource(seed).(rand.Source64)
		for range draws {
			want.Uint64()
		}
		var got nodeSource
		got.Seed(seed)
		got.skip(uint64(draws))
		for k := range 16 {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d: draw %d after skipping %d: %#x, math/rand %#x", seed, k, draws, g, w)
			}
		}
	})
}

// TestNodeSourceRestoreContinues: a checkpoint stores a node's draw
// count; the source the restore path rebuilds from it continues the
// stream exactly, on either side of the register's creation and of the
// first feed wrap.
func TestNodeSourceRestoreContinues(t *testing.T) {
	e := &engine{seed: 902, rngs: make([]*nodeRand, 8)}
	for _, at := range []int{0, 1, 272, 273, 274, 606, 607, 1500} {
		live := e.newNodeRand(5, 0)
		for range at {
			live.rand.Int63()
		}
		restored := e.newNodeRand(5, live.src.k)
		if restored.src.k != uint64(at) {
			t.Fatalf("restored at %d: count %d", at, restored.src.k)
		}
		for k := range 1000 {
			if w, g := live.rand.Uint64(), restored.rand.Uint64(); w != g {
				t.Fatalf("restored at %d: draw %d is %#x, uninterrupted %#x", at, k, g, w)
			}
		}
	}
}

// BenchmarkNodeRand measures a node's randomness as the engine creates
// it on first use — seeding plus the first draw, and a 1,000-draw
// stream — against the rand.NewSource it replaces.
func BenchmarkNodeRand(b *testing.B) {
	for _, draws := range []int{1, 1000} {
		name := map[int]string{1: "first-draw", 1000: "stream-1000"}[draws]
		b.Run(name+"/node", func(b *testing.B) {
			b.ReportAllocs()
			e := &engine{rngs: make([]*nodeRand, 1)}
			for b.Loop() {
				e.seed++
				r := e.newNodeRand(0, 0).rand
				for range draws {
					r.Int63()
				}
			}
		})
		b.Run(name+"/math-rand", func(b *testing.B) {
			b.ReportAllocs()
			var seed int64
			for b.Loop() {
				seed++
				r := rand.New(rand.NewSource(nodeSeed(seed, 0)))
				for range draws {
					r.Int63()
				}
			}
		})
	}
}
