package congest

import (
	"math/rand"

	"repro/internal/obs"
)

// API is a node's handle to the network under the blocking compatibility
// model. It is valid only inside the node's Program goroutine and is not
// safe for use from other goroutines. It wraps the same engine-side core
// (StepAPI) that native step programs use, so both execution models share
// identical send, verdict, and randomness semantics.
type API struct {
	s  *StepAPI
	sh *shim
}

// ID returns this node's CONGEST identifier.
func (a *API) ID() int64 { return a.s.ID() }

// Index returns the node's simulation index (0..n-1). Exposed for tests
// and output collection; faithful algorithms use ID and ports only.
func (a *API) Index() int { return a.s.Index() }

// N returns the number of nodes in the network (standard CONGEST
// assumption: n is global knowledge).
func (a *API) N() int { return a.s.N() }

// Degree returns the number of incident edges (ports 0..Degree()-1).
func (a *API) Degree() int { return a.s.Degree() }

// BitBound returns the per-message bit bound B of this network, so that
// algorithms can chunk long logical payloads into B-bit messages.
func (a *API) BitBound() int { return a.s.BitBound() }

// Rand returns this node's private deterministic randomness source.
func (a *API) Rand() *rand.Rand { return a.s.Rand() }

// Round returns the current global round number.
func (a *API) Round() int { return a.s.Round() }

// Send queues m on the given port for delivery at the next round. Sending
// twice on one port in a single round violates the CONGEST model and
// panics, as does an out-of-range port.
func (a *API) Send(port int, m Message) { a.s.Send(port, m) }

// SendAll queues m on every port.
func (a *API) SendAll(m Message) { a.s.SendAll(m) }

// NextRound completes the current round and blocks until the next one,
// returning the messages delivered to this node (sorted by sender). The
// returned slice is reused by the engine: it is only valid until the next
// NextRound/SleepUntil/Idle call.
func (a *API) NextRound() []Inbound {
	return a.sh.await(Running())
}

// SleepUntil completes the current round and blocks until either a message
// arrives (returning at its delivery round) or the global round reaches
// `round`, whichever comes first. It returns the delivered messages (empty
// on timeout). Messages queued with Send are still delivered. The returned
// slice is only valid until the next NextRound/SleepUntil/Idle call.
func (a *API) SleepUntil(round int) []Inbound {
	return a.sh.await(Sleep(round))
}

// Idle advances exactly `rounds` rounds, discarding any received messages.
// Use only where the algorithm's schedule guarantees silence.
func (a *API) Idle(rounds int) {
	target := a.Round() + rounds
	for a.Round() < target {
		a.SleepUntil(target)
	}
}

// Output records this node's verdict. The last call wins; a node that
// never calls Output contributes VerdictNone.
func (a *API) Output(v Verdict) { a.s.Output(v) }

// Verdict returns the verdict this node has recorded so far.
func (a *API) Verdict() Verdict { return a.s.Verdict() }

// ChargeModeledRounds adds r to the modeled-rounds counter, accounting for
// the documented black-box substitutions (DESIGN.md §3).
func (a *API) ChargeModeledRounds(r int) { a.s.ChargeModeledRounds(r) }

// PhaseEnter announces a phase transition for per-phase attribution
// (see StepAPI.PhaseEnter). A no-op when the run has no obs.Probe.
func (a *API) PhaseEnter(id obs.PhaseID) { a.s.PhaseEnter(id) }

// shim runs a blocking Program on its own goroutine and adapts it to the
// StepProgram interface: each Step resumes the goroutine with the round's
// inbox and blocks until the program yields again. The handoff is strictly
// sequential (one node at a time), so the two channel operations per wake
// stay on the uncontended direct-switch path of the runtime scheduler —
// still far costlier than a native Step call, which is why hot paths are
// ported to StepProgram (DESIGN.md §2).
type shim struct {
	prog     Program
	api      *API
	resume   chan []Inbound
	yield    chan Status // the program's scheduling request at each yield
	started  bool
	closed   bool
	panicVal any // set by the goroutine before it yields statusPanic
}

func newShim(prog Program) *shim {
	return &shim{
		prog:   prog,
		resume: make(chan []Inbound),
		yield:  make(chan Status),
	}
}

// Step implements StepProgram by resuming the blocking goroutine for one
// round. The first call starts the goroutine; the program's round-0 code
// (or, after Become, its current-round code) runs immediately.
func (sh *shim) Step(api *StepAPI, inbox []Inbound) Status {
	if !sh.started {
		sh.started = true
		sh.api = &API{s: api, sh: sh}
		api.eng.wg.Add(1)
		go sh.run()
	} else {
		sh.resume <- inbox
	}
	return <-sh.yield
}

// await is the blocking side of the handoff: yield the given status to the
// engine and park until the engine delivers the next inbox.
func (sh *shim) await(st Status) []Inbound {
	sh.yield <- st
	inbox, ok := <-sh.resume
	if !ok {
		panic(errAborted) // engine-initiated shutdown
	}
	return inbox
}

func (sh *shim) run() {
	defer sh.api.s.eng.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			if r == errAborted {
				return // engine-initiated shutdown; engine is not listening
			}
			sh.panicVal = r
			sh.yield <- Status{kind: statusPanic}
			return
		}
		sh.yield <- Done()
	}()
	sh.prog(sh.api)
}
