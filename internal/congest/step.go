package congest

import (
	"fmt"
	"math/rand"

	"repro/internal/obs"
)

// StepProgram is a node program expressed as an explicit state machine:
// the engine calls Step once per round in which the node is awake, handing
// it the messages delivered at the current barrier. The returned Status
// tells the engine when to wake the node next. Step runs to completion
// without blocking, which lets the engine drive all nodes in a plain loop
// — no goroutines and no channel operations on the hot path (DESIGN.md §2).
//
// The inbox slice is owned by the engine and is only valid until the next
// Step call for the same node; programs must copy anything they retain.
type StepProgram interface {
	Step(api *StepAPI, inbox []Inbound) Status
}

// StepFunc adapts a plain function to StepProgram.
type StepFunc func(api *StepAPI, inbox []Inbound) Status

// Step implements StepProgram.
func (f StepFunc) Step(api *StepAPI, inbox []Inbound) Status { return f(api, inbox) }

type statusKind uint8

const (
	statusRunning statusKind = iota
	statusSleep
	statusDone
	statusBecomeStep
)

// Status is a StepProgram's yield instruction: it completes the node's
// current round and tells the engine when to call Step again. The zero
// value is Running().
//
// Status must stay at most 32 bytes in at most four fields: the compiler
// keeps only such structs in registers. Every wake's result passes
// through engine.computeNode, and a larger Status is spilled to the
// stack and reloaded with loads that straddle the spill's stores — a
// failed store-to-load forward that stalls each wake on the store
// buffer (DESIGN.md §8). TestStatusFitsInRegisters guards the size.
type Status struct {
	kind     statusKind
	wake     int
	contStep StepProgram
}

// Running completes the round and wakes the node at the next round.
func Running() Status { return Status{kind: statusRunning} }

// Sleep completes the round and wakes the node when a message arrives or
// the global round reaches `untilRound`, whichever comes first.
func Sleep(untilRound int) Status { return Status{kind: statusSleep, wake: untilRound} }

// wakeRound is the round a node parked with status s at round wakes by
// at the latest: a Sleep's target when it lies ahead, else round+1.
func (s Status) wakeRound(round int) int64 {
	if s.kind == statusSleep && s.wake > round {
		return int64(s.wake)
	}
	return int64(round) + 1
}

// Done terminates the node. Messages sent to it afterwards are dropped
// (counted in Metrics.DroppedToDone).
func Done() Status { return Status{kind: statusDone} }

// BecomeStep switches the node to a different StepProgram: cont's first
// Step runs immediately, in the same round in which BecomeStep was
// returned, exactly as if both programs had been one state machine. Use
// it to chain independently written step phases (e.g. Stage I hands
// over to Stage II).
func BecomeStep(cont StepProgram) Status { return Status{kind: statusBecomeStep, contStep: cont} }

// StepAPI is a node's handle to the network inside Step calls. It is
// only valid during the node's Step call and is not safe for concurrent
// use.
//
// The handle itself is a 32-byte view: per-round mutable state (outbox,
// duplicate-send bits, verdict/charge flags) lives in the engine's
// struct-of-arrays slabs, indexed by the node id, so accessors write
// dense arrays the barrier merge then streams through (DESIGN.md §8).
type StepAPI struct {
	eng     *engine
	node    int32 // slab index of this node
	degree  int32
	sentOff int32 // first word of this node's bitset in eng.sentBits
	id      int64
}

// ID returns this node's CONGEST identifier.
func (a *StepAPI) ID() int64 { return a.id }

// Index returns the node's simulation index (0..n-1). Exposed for tests
// and output collection; faithful algorithms use ID and ports only.
func (a *StepAPI) Index() int { return int(a.node) }

// N returns the number of nodes in the network (standard CONGEST
// assumption: n is global knowledge).
func (a *StepAPI) N() int { return a.eng.n }

// Degree returns the number of incident edges (ports 0..Degree()-1).
func (a *StepAPI) Degree() int { return int(a.degree) }

// BitBound returns the per-message bit bound B of this network, so that
// algorithms can chunk long logical payloads into B-bit messages.
func (a *StepAPI) BitBound() int { return a.eng.bitBound }

// Rand returns this node's private deterministic randomness source: the
// stream of rand.NewSource seeded from the run seed and the node index
// only, so creation order never matters. It is created on first use.
// The source holds no register until its 274th draw (rng.go), and
// counts its draws so a checkpoint can restore it (snapshot.go).
func (a *StepAPI) Rand() *rand.Rand { return a.eng.rand(a.node) }

// Round returns the current global round number.
func (a *StepAPI) Round() int { return a.eng.round }

// Send queues m on the given port for delivery at the next round. Sending
// twice on one port in a single round violates the CONGEST model and
// panics, as does an out-of-range port.
func (a *StepAPI) Send(port int, m Message) {
	if port < 0 || port >= int(a.degree) {
		panic(fmt.Sprintf("congest: node %d: send on invalid port %d (degree %d)", a.node, port, a.degree))
	}
	e := a.eng
	w, b := int(a.sentOff)+(port>>6), uint64(1)<<(port&63)
	if e.sentBits[w]&b != 0 {
		panic(fmt.Sprintf("congest: node %d: two messages on port %d in one round", a.node, port))
	}
	e.sentBits[w] |= b
	e.outbox[a.node] = append(e.outbox[a.node], outMsg{port: port, msg: m})
}

// SendAll queues m on every port.
func (a *StepAPI) SendAll(m Message) {
	for p := 0; p < int(a.degree); p++ {
		a.Send(p, m)
	}
}

// Output records this node's verdict. The last call wins; a node that
// never calls Output contributes VerdictNone. Only this node's slab
// slots are written, so Output is safe from parallel workers; the engine
// folds the reject flag into its global state at the barrier.
func (a *StepAPI) Output(v Verdict) {
	a.eng.verdicts[a.node] = v
	if v == VerdictReject {
		a.eng.rejFlag[a.node] = true
	}
}

// ChargeModeledRounds adds r to the modeled-rounds counter, accounting for
// the documented black-box substitutions (DESIGN.md §3). Charges are
// per-node and summed into Metrics.ModeledRounds when the run ends.
func (a *StepAPI) ChargeModeledRounds(r int) {
	a.eng.modeled[a.node] += int64(r)
}

// ChargeTraffic charges one fast-forward window: msgs messages totaling
// bits bits, the largest of maxBits bits. Programs that elide exchanges
// whose content is provably fixed — Stage I's forest-decomposition
// fast-forward (DESIGN.md §10) — charge exactly the traffic the elided
// rounds would have sent, so Metrics.Messages, TotalBits and
// MaxMessageBits stay identical to an unbatched run. The barrier merge
// folds the charge into Metrics exactly like the node's routed sends of
// this round. A charged message must fit the bit bound: maxBits above it
// panics.
func (a *StepAPI) ChargeTraffic(msgs, bits int64, maxBits int) {
	if maxBits > a.eng.bitBound {
		panic(fmt.Sprintf("congest: node %d charged a %d-bit message, bound is %d", a.node, maxBits, a.eng.bitBound))
	}
	a.eng.charged[a.node].add(msgs, bits, maxBits)
	if a.eng.pWinCnt != nil {
		// Per-phase attribution: record the fast-forward window so the
		// barrier fold can count it and trace it (obs.go).
		a.eng.pWinCnt[a.node]++
		a.eng.pWinMsgs[a.node] += msgs
		a.eng.pWinBits[a.node] += bits
	}
}

// charge is traffic a node accounted for in its current Step without
// routing it; see engine.charged.
type charge struct {
	msgs, bits int64
	max        int
}

func (c *charge) add(msgs, bits int64, maxBits int) {
	c.msgs += msgs
	c.bits += bits
	if maxBits > c.max {
		c.max = maxBits
	}
}

// PhaseEnter announces that this node is entering the named phase (an
// ID interned on the run's obs.Probe before the run started). The
// engine folds announcements at the next barrier in due order — the
// last announcing node in ascending index order decides the current
// phase — and attributes subsequent cost to it. Safe from parallel
// workers (each node writes only its own slot) and a no-op when the run
// has no probe (one nil check). PhaseEnter(0) is a no-op: ID 0 is the
// implicit root phase "run".
func (a *StepAPI) PhaseEnter(id obs.PhaseID) {
	if a.eng.pReq != nil {
		a.eng.pReq[a.node] = int32(id)
	}
}

// clearRound resets the per-round send state after the engine drained the
// outbox. Buffers are retained to avoid per-round allocation. A node
// that sent nothing has nothing to clear (every set bit in sentBits is
// paired with an outbox append), so silent nodes skip the word loop.
func (a *StepAPI) clearRound() {
	e := a.eng
	if len(e.outbox[a.node]) == 0 {
		return
	}
	e.outbox[a.node] = e.outbox[a.node][:0]
	for w, end := int(a.sentOff), int(a.sentOff)+(int(a.degree)+63)/64; w < end; w++ {
		e.sentBits[w] = 0
	}
}
