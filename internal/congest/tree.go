package congest

// Tree is a node's local view of a rooted spanning tree of (a subgraph of)
// the network: the port leading to its parent and the ports leading to its
// children. The tree operations are in tree_step.go.
type Tree struct {
	ParentPort int // -1 at the root
	ChildPorts []int
}

// IsRoot reports whether this node is the tree root.
func (t Tree) IsRoot() bool { return t.ParentPort < 0 }

func (t Tree) isChildPort(p int) bool {
	for _, c := range t.ChildPorts {
		if c == p {
			return true
		}
	}
	return false
}

// pipeItem wraps a single pipelined payload.
// The wrapped size is computed once at boxing time: the same boxed item
// is re-routed at every tree hop, and the engine checks Bits() per hop.
type pipeItem struct {
	payload Message
	bits    int
}

func (p pipeItem) Bits() int { return p.bits }

// pipeBatch packs consecutive pipelined payloads into a single message.
// The pipelined primitives use the full CONGEST bit bound this way: a
// stream of small items (rotation entries, edge ids) moves in
// ceil(total bits / B) rounds instead of one round per item, exactly
// like the paper's own label chunking (§2.2.2) exploits B-bit messages.
// The size is computed once at packing time.
type pipeBatch struct {
	payloads []Message
	bits     int
}

func (p pipeBatch) Bits() int { return p.bits }

// packPipe packs a maximal prefix of items into one pipelined message
// within bitBound bits and returns it with the count consumed (see
// packLen). The returned batch aliases items, so callers must not
// rewrite consumed slots while the message may be in flight (popping a
// prefix and appending is fine).
func packPipe(items []Message, bitBound int) (Message, int) {
	n, bits := packLen(items, bitBound)
	if n == 1 {
		return pipeItem{payload: items[0], bits: bits}, 1
	}
	return pipeBatch{payloads: items[:n:n], bits: bits}, n
}

// packLen returns how many items the next pipelined message packs and
// its size: a batch header of 1 bit plus 1+Bits() per payload (mirroring
// pipeItem's framing), within bitBound. A single payload travels as a
// bare pipeItem — also the fallback when the batch framing would not fit
// the bound.
func packLen(items []Message, bitBound int) (n, bits int) {
	first := items[0].Bits()
	bits = 1 + 1 + first
	if bits > bitBound {
		return 1, 1 + first
	}
	n = 1
	for n < len(items) {
		nb := 1 + items[n].Bits()
		if bits+nb > bitBound {
			break
		}
		bits += nb
		n++
	}
	if n == 1 {
		return 1, 1 + first
	}
	return n, bits
}

// pushPipePayloads appends the payloads of a received pipeItem/pipeBatch
// to a relay queue.
// It reports false for messages that are not pipelined items.
func pushPipePayloads(queue []Message, m Message) ([]Message, bool) {
	switch pm := m.(type) {
	case pipeItem:
		return append(queue, pm.payload), true
	case pipeBatch:
		return append(queue, pm.payloads...), true
	}
	return queue, false
}

// pipeEnd marks the end of a pipelined stream.
type pipeEnd struct{}

func (pipeEnd) Bits() int { return 1 }
