package congest

import "math/rand"

// Per-node randomness. Every node draws from the stream that
// rand.NewSource(nodeSeed(run seed, node)) would produce, but without
// paying for math/rand's 607-word register up front.
//
// math/rand's source is an additive lagged-Fibonacci generator with
// lags 607 and 273 over a register that seeding fills with words
//
//	W(i) = x[21+3i]<<40 ^ x[22+3i]<<20 ^ x[23+3i] ^ rngCooked[i],
//
// where x[t] = 48271^t·x0 mod (2^31−1) is a Lehmer generator started
// at the reduced seed x0. Draw k adds the register words at its feed
// position 333−k and its tap 606−k (mod 607) and stores the sum at the
// feed. Until draw 273 the tap has not yet reached a word an earlier
// draw wrote, so draw k < 273 is W(333−k) + W(606−k): a closed form in
// the seed. nodeSource computes those draws directly and builds the
// register only for a 274th draw, in the exact state math/rand would
// hold after 273 draws.

const (
	rngLen    = 607 // register length (long lag)
	rngTap    = 273 // short lag: draws before it read only seed words
	lehmerMod = 1<<31 - 1
	lehmerMul = 48271
)

var (
	// lehmerPow[t] = 48271^t mod (2^31−1), so x[t] = lehmerPow[t]·x0 mod (2^31−1).
	lehmerPow [21 + 3*rngLen]uint64
	// rngCooked is math/rand's seeding table, recovered at init from the
	// stream of the linked math/rand so that no copy of it is kept here.
	rngCooked [rngLen]uint64
)

func init() {
	p := uint64(1)
	for t := range lehmerPow {
		lehmerPow[t] = p
		p = p * lehmerMul % lehmerMod
	}
	// Solve rand.NewSource(1)'s initial register v from its first rngLen
	// outputs y. Draw k ≥ 273 adds the untouched word at its feed
	// position to draw k−273's output (stored at its tap); draw k < 273
	// adds two untouched words, the one at its tap already solved.
	src := rand.NewSource(1).(rand.Source64)
	var y, v [rngLen]uint64
	for k := range y {
		y[k] = src.Uint64()
	}
	for k := rngTap; k < rngLen; k++ {
		v[feedPos(k)] = y[k] - y[k-rngTap]
	}
	for k := 0; k < rngTap; k++ {
		v[feedPos(k)] = y[k] - v[rngLen-1-k]
	}
	var one nodeSource
	one.Seed(1)
	for i := range rngCooked {
		rngCooked[i] = v[i] ^ one.lehmerWord(i)
	}
}

// feedPos is the register position draw k (k < rngLen) writes.
func feedPos(k int) int { return (2*rngLen - rngTap - 1 - k) % rngLen }

// nodeSource is a rand.Source64 whose stream equals that of
// rand.NewSource with the same seed. It also counts its draws, which is
// all a checkpoint needs to restore it (snapshot.go).
type nodeSource struct {
	reg       *[rngLen]uint64 // the ALFG register; nil until draw rngTap
	k         uint64          // draws so far
	x0        uint32          // reduced seed: the Lehmer generator's start state
	tap, feed uint16          // register cursors, valid once reg is set
}

// nodeSeed is the per-node seeding rule: it depends only on the run
// seed and the node index, so creation order never matters.
func nodeSeed(seed int64, node int) int64 {
	return seed ^ (0x5E3779B97F4A7C15 * int64(node+1))
}

// Seed resets the source to the start of rand.NewSource(seed)'s stream.
func (s *nodeSource) Seed(seed int64) {
	seed %= lehmerMod
	if seed < 0 {
		seed += lehmerMod
	}
	if seed == 0 {
		seed = 89482311 // math/rand's replacement for the Lehmer fixed point
	}
	*s = nodeSource{x0: uint32(seed)}
}

// skip fast-forwards a freshly seeded source past draws draws.
func (s *nodeSource) skip(draws uint64) {
	s.k = min(draws, rngTap) // the stateless prefix needs only the count
	for s.k < draws {
		s.Uint64()
	}
}

// lehmerWord is W(i) without the rngCooked term.
func (s *nodeSource) lehmerWord(i int) uint64 {
	t, x := 21+3*i, uint64(s.x0)
	return (lehmerPow[t]*x%lehmerMod)<<40 ^
		(lehmerPow[t+1]*x%lehmerMod)<<20 ^
		lehmerPow[t+2]*x%lehmerMod
}

// word is the seeded register word W(i).
func (s *nodeSource) word(i int) uint64 { return s.lehmerWord(i) ^ rngCooked[i] }

// Uint64 returns the next value of the stream.
func (s *nodeSource) Uint64() uint64 {
	k := s.k
	s.k++
	if k < rngTap {
		return s.word(feedPos(int(k))) + s.word(rngLen-1-int(k))
	}
	if s.reg == nil {
		// Seed the register as math/rand does, then replay the first
		// rngTap draws on it.
		s.reg = new([rngLen]uint64)
		for i := range s.reg {
			s.reg[i] = s.word(i)
		}
		s.tap, s.feed = 0, rngLen-rngTap
		for range rngTap {
			s.step()
		}
	}
	return s.step()
}

// step is math/rand's register update.
func (s *nodeSource) step() uint64 {
	if s.tap == 0 {
		s.tap = rngLen
	}
	s.tap--
	if s.feed == 0 {
		s.feed = rngLen
	}
	s.feed--
	x := s.reg[s.feed] + s.reg[s.tap]
	s.reg[s.feed] = x
	return x
}

// Int63 returns the next value of the stream with its top bit cleared.
func (s *nodeSource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// nodeRand is a node's lazily created randomness: the *rand.Rand handed
// to the program and the counting source behind it.
type nodeRand struct {
	src  nodeSource
	rand *rand.Rand
}

// rand returns node v's randomness, creating it on first use.
func (e *engine) rand(v int32) *rand.Rand {
	r := e.rngs[v]
	if r == nil {
		r = e.newNodeRand(int(v), 0)
	}
	return r.rand
}

// newNodeRand seeds node's source by the per-node rule, skips it past
// draws draws (0 on first use, the checkpointed count on restore), and
// installs it.
func (e *engine) newNodeRand(node int, draws uint64) *nodeRand {
	r := &nodeRand{}
	r.src.Seed(nodeSeed(e.seed, node))
	r.src.skip(draws)
	r.rand = rand.New(&r.src)
	e.rngs[node] = r
	return r
}
