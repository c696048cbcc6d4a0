package congest

// calendar is the wake-round calendar of parked nodes whose deadline
// lies beyond the next round (nodes due at round+1 sit in
// engine.nrList). It keeps one bucket of node ids per distinct wake
// round and a min-heap of those rounds, so filing a barrier's parks
// costs one append per run of equal wake rounds and finding the next
// wake round costs a heap peek — not one heap operation per node
// (DESIGN.md §6, §8).
//
// Entries are invalidated lazily, exactly like the deadline heap they
// replace: a node that was woken by mail and re-parked elsewhere, or
// that finished, leaves a stale entry behind, recognized by the
// phase/deadline test when its bucket is examined. engine.heapDl
// suppresses duplicate entries of a node re-parked to the same round.
type calendar struct {
	slot    map[int64]int32 // wake round → index into buckets
	buckets []calBucket
	free    []int32 // recycled bucket indices
	rounds  []int64 // min-heap of the rounds present in slot
}

// calBucket holds the nodes filed for one wake round, in filing order.
type calBucket struct {
	nodes []int32
	head  int   // entries before head were dropped as stale
	fill  int64 // the one barrier that filed every entry; -1: several did
}

// calRun is a run of consecutively parked nodes with the same wake
// round: the next n entries of a blockPark's later list.
type calRun struct {
	round int64
	n     int32
}

func newCalendar() calendar {
	return calendar{slot: make(map[int64]int32)}
}

// add files nodes for round, recording that barrier filed them. The
// entries of one barrier arrive in ascending node order, so a bucket
// filled by a single barrier is ascending and free of duplicates.
func (c *calendar) add(round int64, nodes []int32, barrier int64) {
	idx, ok := c.slot[round]
	if !ok {
		if k := len(c.free); k > 0 {
			idx = c.free[k-1]
			c.free = c.free[:k-1]
		} else {
			idx = int32(len(c.buckets))
			c.buckets = append(c.buckets, calBucket{})
		}
		c.buckets[idx].fill = barrier
		c.slot[round] = idx
		c.push(round)
	}
	b := &c.buckets[idx]
	if b.fill != barrier {
		b.fill = -1
	}
	b.nodes = append(b.nodes, nodes...)
}

// min returns the earliest round in the calendar and its bucket, or
// (0, nil) when the calendar is empty.
func (c *calendar) min() (int64, *calBucket) {
	if len(c.rounds) == 0 {
		return 0, nil
	}
	return c.rounds[0], &c.buckets[c.slot[c.rounds[0]]]
}

// popMin removes the earliest round's bucket and hands its node buffer
// back for reuse through buf: the bucket keeps buf's storage, and the
// returned slice is the bucket's former contents.
func (c *calendar) popMin(buf []int32) []int32 {
	round := c.rounds[0]
	idx := c.slot[round]
	delete(c.slot, round)
	b := &c.buckets[idx]
	nodes := b.nodes[b.head:]
	*b = calBucket{nodes: buf[:0]}
	c.free = append(c.free, idx)
	h := c.rounds
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		l, r, s := 2*i+1, 2*i+2, i
		if l < len(h) && h[l] < h[s] {
			s = l
		}
		if r < len(h) && h[r] < h[s] {
			s = r
		}
		if s == i {
			break
		}
		h[i], h[s] = h[s], h[i]
		i = s
	}
	c.rounds = h
	return nodes
}

func (c *calendar) push(round int64) {
	h := append(c.rounds, round)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	c.rounds = h
}
