package service

import (
	"errors"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/graphio"
)

// Admission-control errors reported by Submit (and mapped by the HTTP
// layer to 503 + Retry-After and 413 respectively).
var (
	// ErrOverloaded means the byte budget is saturated: the request was
	// shed before allocating and is safe to retry after backoff.
	ErrOverloaded = errors.New("service: byte budget saturated")
	// ErrTooLarge means the request alone exceeds the whole byte
	// budget; retrying cannot help.
	ErrTooLarge = errors.New("service: request exceeds the byte budget")
)

// byteBudget is the global admission meter: every byte a request pins —
// its body while it streams in, its decoded graph while the job is
// queued or running — is acquired up front and released when the
// holder lets go. Acquisition never blocks; overflow is shed at the
// door (ErrOverloaded) so the process degrades with 503s instead of
// growing toward OOM. total <= 0 disables the bound (usage is still
// tracked for the inflight_graph_bytes gauge).
type byteBudget struct {
	total int64
	used  atomic.Int64
}

// tryAcquire reserves n bytes or reports why it cannot.
func (b *byteBudget) tryAcquire(n int64) error {
	if n <= 0 {
		return nil
	}
	for {
		u := b.used.Load()
		if b.total > 0 && u+n > b.total {
			if n > b.total {
				return ErrTooLarge
			}
			return ErrOverloaded
		}
		if b.used.CompareAndSwap(u, u+n) {
			return nil
		}
	}
}

// release returns n reserved bytes.
func (b *byteBudget) release(n int64) {
	if n > 0 {
		b.used.Add(-n)
	}
}

// saturated reports whether the budget is currently full — the /readyz
// signal for load balancers to route elsewhere before requests fail.
func (b *byteBudget) saturated() bool {
	return b.total > 0 && b.used.Load() >= b.total
}

// GraphMemBytes estimates the resident bytes a decoded graph pins: two
// int32 endpoints per undirected edge plus 24 bytes per node, doubled
// for the reverse-port table the engine materializes lazily. The graph
// itself keeps an 8-byte CSR offset per node, so the per-node term is
// an upper bound. This is the admission unit for queued and running
// jobs (deliberately not the full per-run algorithm state, which
// belongs to the run pool bound, not the ingest bound).
func GraphMemBytes(g *graph.Graph) int64 {
	if g == nil {
		return 0
	}
	return graphMemBytes(int64(g.N()), int64(g.M()))
}

func graphMemBytes(n, m int64) int64 { return 2 * (24*n + 8*m) }

// graphNodeCap is the node cap the graph readers enforce: the largest
// node count whose decoded graph fits the whole byte budget, so a body
// declaring more nodes is refused before the reader allocates for it.
// An unbounded budget keeps graphio.MaxNodes.
func (m *Manager) graphNodeCap() int {
	if m.budget.total <= 0 {
		return graphio.MaxNodes
	}
	return int(min(m.budget.total/graphMemBytes(1, 0), graphio.MaxNodes))
}
