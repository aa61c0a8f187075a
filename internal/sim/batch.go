package sim

import (
	"repro/internal/model"
	"repro/internal/timeu"
)

// Batch runs many variants of one task graph — different seeds, release
// offsets, exec models, or observer sets — through a single Engine
// lifetime. The per-graph setup (channel topology, origin indexing,
// static task records) happens once in NewBatch, and the job/token
// pools, heap storage, fingerprint buffers, and release calendar reach
// their steady-state capacity in the first run and are reused by every
// run after it: a thousand-variant batch allocates like a single run.
//
// Offsets are passed per run (Config.Offsets) instead of being written
// into the shared graph, so batches are usable on graphs shared with
// concurrent readers. A Batch itself is single-goroutine, like the
// Engine it wraps; shard variants across Batches for parallelism.
type Batch struct {
	eng  *Engine
	base Config
}

// BatchRun is one variant in a batch. Zero-valued fields inherit the
// batch's base configuration.
type BatchRun struct {
	// Seed seeds the run's private random source.
	Seed int64
	// Offsets, when non-nil, overrides the release offsets for this run
	// (indexed by task ID, length NumTasks, none negative).
	Offsets []timeu.Time
	// Exec, when non-nil, overrides the base exec model.
	Exec ExecModel
	// Observers, when non-nil, replaces the base observer set. Batched
	// sweeps typically pass fresh observers per run so per-run extrema
	// stay separable.
	Observers []Observer
}

// BatchResult pairs one run's statistics with its jump-ahead outcome.
type BatchResult struct {
	Stats *Stats
	Jump  JumpStats
}

// NewBatch validates the graph and builds the shared engine. The base
// configuration supplies everything BatchRun does not override —
// horizon, warm-up-free defaults, tracing, DisableJumpAhead.
func NewBatch(g *model.Graph, base Config) (*Batch, error) {
	eng, err := NewEngine(g)
	if err != nil {
		return nil, err
	}
	return &Batch{eng: eng, base: base}, nil
}

// Engine exposes the shared engine (e.g. for LastJump after a Run).
func (b *Batch) Engine() *Engine { return b.eng }

// Run executes one variant and returns its statistics and jump-ahead
// outcome. Results are identical to a fresh Engine running the merged
// configuration — the reuse is purely an allocation optimization,
// which the engine-reuse differential enforces.
func (b *Batch) Run(r BatchRun) (*BatchResult, error) {
	cfg := b.base
	cfg.Seed = r.Seed
	if r.Offsets != nil {
		cfg.Offsets = r.Offsets
	}
	if r.Exec != nil {
		cfg.Exec = r.Exec
	}
	if r.Observers != nil {
		cfg.Observers = r.Observers
	}
	stats, err := b.eng.Run(cfg)
	if err != nil {
		return nil, err
	}
	return &BatchResult{Stats: stats, Jump: b.eng.LastJump()}, nil
}

// RunAll executes every variant in order. It stops at the first error;
// the returned slice holds the results of the completed prefix.
func (b *Batch) RunAll(runs []BatchRun) ([]BatchResult, error) {
	out := make([]BatchResult, 0, len(runs))
	for i := range runs {
		res, err := b.Run(runs[i])
		if err != nil {
			return out, err
		}
		out = append(out, *res)
	}
	return out, nil
}
