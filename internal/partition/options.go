// Package partition implements Stage I of the paper — the distributed
// partitioning algorithm (§2.1) — together with its randomized variant
// (§4, Theorem 4) and the Elkin–Neiman-style random-shift clustering
// baseline mentioned in §1.1. All algorithms run as node programs on the
// CONGEST simulator (package congest) and produce, at every node, the part
// root identity and the rooted spanning tree structure of Lemma 6.
//
// The deterministic variant's round structure mirrors Theorem 3: each of
// the Phases() merging phases runs superRounds(n) = Θ(log n) forest-
// decomposition super-rounds (package forest supplies the per-level
// peeling rule), and each super-round spends 2D+1 engine rounds — a
// status broadcast down the part tree, a cross-edge activity exchange,
// and a convergecast back up — at the phase's diameter budget D =
// phaseBudget(phase). The decomposition is monotone and usually reaches
// its fixed point well before the worst-case super-round count, so the
// step interpreter detects the fixed point and fast-forwards the dead
// tail, charging exactly the traffic the skipped exchanges would have
// sent; the phase's contraction cascades (levels, parity weights,
// contraction parities over the marked trees) get the same treatment
// once their deepest part is reached. Results are byte-identical either
// way (DESIGN.md §10, Options.NoSuperRoundBatching).
package partition

import (
	"math"

	"repro/internal/congest"
	"repro/internal/forest"
	"repro/internal/obs"
)

// Variant selects the Stage I flavor.
type Variant int

// Variants.
const (
	// Deterministic is the paper's Stage I: Barenboim–Elkin forest
	// decomposition per phase plus heaviest-out-edge merging (Theorem 3).
	Deterministic Variant = iota + 1
	// Randomized skips the forest decomposition and uses weighted random
	// edge selection (Theorem 4); it requires a minor-free promise for
	// its cut guarantee.
	Randomized
)

// Schedule selects the phase-count rule.
type Schedule int

// Schedules.
const (
	// PaperSchedule uses the worst-case phase count from Claim 1:
	// ceil(12*alpha*ln(2/eps)) phases guarantee w(G_{t+1}) <= eps*m/2.
	PaperSchedule Schedule = iota + 1
	// PracticalSchedule uses ceil(log2(2/eps))+2 phases, matching the
	// empirically observed per-phase contraction (about 1/2); it voids
	// the worst-case cut guarantee but keeps round counts small. The
	// claims rows E1 and E5 (docs/claims.txt) run it next to the paper
	// schedule.
	PracticalSchedule
)

// Options configures Stage I.
type Options struct {
	// Epsilon is the edge-cut parameter; the deterministic algorithm
	// guarantees at most eps*m/2 cut edges when the input is planar.
	Epsilon float64
	// Alpha is the arboricity bound verified per phase (3 for planarity).
	// Zero means 3.
	Alpha int
	// Variant selects Deterministic (default) or Randomized.
	Variant Variant
	// Schedule selects the phase-count rule (default PaperSchedule).
	Schedule Schedule
	// Delta is the failure probability of the Randomized variant
	// (weighted-edge selection repeats Theta(log(1/Delta)) times).
	// Zero means 1/8.
	Delta float64
	// MaxPhases, when positive, caps the number of phases below the
	// schedule (the per-phase claims rows E3/E4 in docs/claims.txt use it
	// to observe the partition after exactly k phases).
	MaxPhases int
	// NoSuperRoundBatching disables the forest-decomposition fixed-point
	// fast-forward of the step interpreter (DESIGN.md §10) so every
	// super-round executes literally. Both settings produce byte-identical
	// Results (TestStageIBatchingEquivalence); the toggle exists for that
	// test and for profiling the unbatched schedule.
	NoSuperRoundBatching bool
	// Probe, when non-nil, enables per-phase attribution: the step
	// interpreter interns one phase name per merging phase
	// ("stage1/p01", "stage1/p02", ...) and announces each phase entry
	// through StepAPI.PhaseEnter, so engine Results carry a per-phase
	// PhaseBreakdown. nil (the default) announces nothing; all
	// deterministic Result fields are identical either way.
	Probe *obs.Probe
}

func (o Options) withDefaults() Options {
	if o.Alpha == 0 {
		o.Alpha = 3
	}
	if o.Variant == 0 {
		o.Variant = Deterministic
	}
	if o.Schedule == 0 {
		o.Schedule = PaperSchedule
	}
	if o.Delta == 0 {
		o.Delta = 1.0 / 8
	}
	if o.Epsilon <= 0 || o.Epsilon > 1 {
		panic("partition: Epsilon must be in (0,1]")
	}
	return o
}

// Phases returns the number of merging phases t for the configured
// schedule. Every node computes the same value from global knowledge.
func (o Options) Phases() int {
	alpha := o.Alpha
	if alpha == 0 {
		alpha = 3
	}
	var t int
	switch o.Schedule {
	case PracticalSchedule:
		t = int(math.Ceil(math.Log2(2/o.Epsilon))) + 2
	default:
		// (1 - 1/(12*alpha))^t <= eps/2 with -ln(1-x) >= x.
		t = int(math.Ceil(12 * float64(alpha) * math.Log(2/o.Epsilon)))
	}
	if o.MaxPhases > 0 && o.MaxPhases < t {
		t = o.MaxPhases
	}
	return t
}

// SelectionTrials returns the number of weighted-edge-selection trials s
// for the Randomized variant: Theta(log(1/delta)).
func (o Options) SelectionTrials() int {
	s := int(math.Ceil(math.Log2(1 / o.Delta)))
	if s < 1 {
		s = 1
	}
	return s + 1
}

// diamCap bounds per-phase diameter budgets so that round counters stay
// far from overflow even on adversarial schedules; parts on real inputs
// merge (and exit) long before this matters.
const diamCap = 1 << 34

// DiamBound returns the Claim 4 diameter bound for parts of phase i
// (1-based): d_1 = 0 and d_{i+1} = 3*d_i + 2, i.e. d_i = 3^(i-1) - 1.
func DiamBound(i int) int {
	d := 1
	for k := 1; k < i; k++ {
		d *= 3
		if d > diamCap {
			return diamCap
		}
	}
	return d - 1
}

// phaseBudget is the round budget of a single tree operation in phase i:
// the diameter bound plus slack so that no message is ever in flight when
// an operation's deadline expires.
func phaseBudget(i int) int {
	return DiamBound(i) + 2
}

// Outcome is the per-node result of Stage I.
type Outcome struct {
	// RootID identifies the node's part (the id of the part's root).
	RootID int64
	// Tree is the node's view of the part's rooted spanning tree
	// (Lemma 6): parent port and child ports within the part.
	Tree congest.Tree
	// Rejected is true when this node holds evidence that the graph has
	// arboricity greater than alpha at some contraction level (the
	// forest-decomposition step did not terminate), which for alpha=3
	// certifies non-planarity.
	Rejected bool
	// PhasesRun counts the phases this node's part actually executed
	// (parts exit early once they span their whole component).
	PhasesRun int
	// EarlyExit is true when the part exited before the full schedule
	// because it had no remaining cross edges.
	EarlyExit bool
}

// superRounds returns the number of forest-decomposition super-rounds
// (plus one resolution round), Theta(log n) per §2.1.1.
func superRounds(n int) int {
	return forest.HPartitionRounds(n) + 1
}
