// Package explain is the decision-telemetry layer of the analysis
// pipeline: it turns the engine's opaque go/no-go choices — did
// steady-state jump-ahead engage or why did it fall back, how hard did
// the dominance prune bite, did chain enumeration truncate — into one structured, golden-testable decision
// record per run, plus a concrete worst-case witness (see witness.go)
// for the argmax pair behind a disparity bound.
//
// The design follows internal/trace/span's discipline: a nil *Recorder
// is a valid disabled recorder whose every method is a no-op, so
// callers thread one pointer and never branch, and the enabled path
// stays off the hot loops — engine decisions are read back as deltas
// of the existing internal/metrics counters between New and Record,
// not pushed through per-pair or per-job callbacks. Explain-enabled
// and explain-disabled runs are therefore bit-identical in every
// analysis and simulation result (the differential test in
// explain_test.go holds this).
package explain

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/timeu"
)

// GraphInfo identifies the analyzed workload.
type GraphInfo struct {
	Label string `json:"label"`
	Tasks int    `json:"tasks"`
	Edges int    `json:"edges"`
}

// PairStats reports the trie fast path's per-pair decisions: how many
// chain pairs were fully bounded, how many the per-pair dominance
// prune skipped, how many whole subtree-pair blocks (and the pairs
// inside them) the branch-and-bound descent skipped before
// enumeration, and whether the block-parallel reduction engaged.
// PruneRatio and SubtreePruneRatio are fractions of the total pair
// volume bounded + pruned + subtree-pruned.
type PairStats struct {
	Bounded           int64   `json:"bounded"`
	Pruned            int64   `json:"pruned"`
	PruneRatio        float64 `json:"prune_ratio"`
	SubtreePruned     int64   `json:"subtree_pruned,omitempty"`
	SubtreePruneRatio float64 `json:"subtree_prune_ratio,omitempty"`
	BlocksPruned      int64   `json:"blocks_pruned,omitempty"`
	ParallelRuns      int64   `json:"parallel_runs"`
}

// ChainStats reports chain enumeration volume and truncation: a
// non-zero Truncated means at least one enumeration hit a limit and
// the bounds cover a partial chain set. Cause names the limit —
// "max-chains-cap" (chain count), "node-budget" (trie node budget on
// adversarial graphs), or "mixed" when a run hit both.
//
// The mask fields report the path-bitset decision behind the c=1 fast
// test per built index. The masks hold one bit per shared task (a task
// at two or more trie nodes): MasksWord counts one-word tables (≤ 64
// shared tasks, among them in-tree fleets, which share none),
// MasksMulti exact multi-word tables, MasksSkipped indexes whose table
// would exceed the word budget — those evaluate every pair through the
// full decomposition. MaskMode summarizes ("word", "multi", "skipped",
// or "mixed").
type ChainStats struct {
	Indexed            int64  `json:"indexed"`
	Enumerated         int64  `json:"enumerated"`
	Truncated          int64  `json:"truncated"`
	DisparityTruncated int64  `json:"disparity_truncated"`
	Cause              string `json:"cause,omitempty"`
	MasksWord          int64  `json:"masks_word,omitempty"`
	MasksMulti         int64  `json:"masks_multi,omitempty"`
	MasksSkipped       int64  `json:"masks_skipped,omitempty"`
	MaskMode           string `json:"mask_mode,omitempty"`
}

// JumpOutcome is one simulation run's (or run group's) steady-state
// jump-ahead decision in record form.
type JumpOutcome struct {
	// Code is the stable reason-code taxonomy of sim.JumpStats.Code:
	// "engaged", "armed-no-repeat", or an ineligibility/deactivation
	// code such as "random-exec" or "snapshot-cap".
	Code    string `json:"code"`
	Reason  string `json:"reason,omitempty"`
	Engaged bool   `json:"engaged"`
	// HyperperiodNS, CycleNS, Skipped, and SkippedNS mirror
	// sim.JumpStats when the feature armed. A run jumps at most once:
	// CycleNS is its cycle, Skipped and SkippedNS the whole cycles it
	// fast-forwarded and their span.
	HyperperiodNS timeu.Time `json:"hyperperiod_ns,omitempty"`
	CycleNS       timeu.Time `json:"cycle_ns,omitempty"`
	Skipped       int64      `json:"skipped,omitempty"`
	SkippedNS     timeu.Time `json:"skipped_ns,omitempty"`
}

// JumpFrom converts engine jump statistics into record form.
func JumpFrom(j sim.JumpStats) JumpOutcome {
	return JumpOutcome{
		Code:          j.Code(),
		Reason:        j.Reason,
		Engaged:       j.Engaged,
		HyperperiodNS: j.Hyperperiod,
		CycleNS:       j.Cycle,
		Skipped:       j.Skipped,
		SkippedNS:     j.SkippedTime,
	}
}

// ArgMaxInfo describes the chain pair attaining a method's bound.
type ArgMaxInfo struct {
	Lambda   string     `json:"lambda"`
	Nu       string     `json:"nu"`
	BoundNS  timeu.Time `json:"bound_ns"`
	SameHead bool       `json:"same_head,omitempty"`
	X1       int64      `json:"x1,omitempty"`
	Y1       int64      `json:"y1,omitempty"`
}

// MethodRecord is one bounding method's evaluation outcome.
type MethodRecord struct {
	Method    string      `json:"method"`
	BoundNS   timeu.Time  `json:"bound_ns"`
	NumPairs  int64       `json:"num_pairs"`
	Truncated bool        `json:"truncated,omitempty"`
	ArgMax    *ArgMaxInfo `json:"argmax,omitempty"`
}

// MethodFrom records a task bound m computed on g: its value, pair
// count and truncation, and the pair attaining it when there is one.
func MethodFrom(g *model.Graph, m core.Method, td *core.TaskDisparity) MethodRecord {
	mr := MethodRecord{Method: m.String(), BoundNS: td.Bound, NumPairs: int64(td.NumPairs), Truncated: td.Truncated}
	if td.ArgMax >= 0 {
		pb := td.Pairs[td.ArgMax]
		mr.ArgMax = &ArgMaxInfo{
			Lambda: pb.Lambda.Format(g), Nu: pb.Nu.Format(g),
			BoundNS: pb.Bound, SameHead: pb.SameHead, X1: pb.X1, Y1: pb.Y1,
		}
	}
	return mr
}

// SimRecord is one frontend-level simulation activity summary.
type SimRecord struct {
	Label string      `json:"label"`
	Runs  int         `json:"runs"`
	Jobs  int64       `json:"jobs"`
	Jump  JumpOutcome `json:"jump"`
}

// Record is the per-run decision record the -explain flag emits. All
// engine-level sections (Pairs, Chains, JumpRuns) are metric
// deltas between Recorder creation and Record, so they cover exactly
// the run in flight even though the underlying registry is
// process-global.
type Record struct {
	Command  string           `json:"command"`
	Graph    *GraphInfo       `json:"graph,omitempty"`
	Methods  []MethodRecord   `json:"methods,omitempty"`
	Sim      []SimRecord      `json:"sim,omitempty"`
	Pairs    *PairStats       `json:"pairs,omitempty"`
	Chains   *ChainStats      `json:"chains,omitempty"`
	JumpRuns map[string]int64 `json:"jump_runs,omitempty"`
	Witness  *Witness         `json:"witness,omitempty"`
}

// Recorder accumulates one run's decision record. The nil Recorder is
// the disabled recorder: every method is a nil-safe no-op, so call
// sites need no enablement branches. A non-nil Recorder is safe for
// concurrent use (sweep workers may record sim outcomes in parallel).
type Recorder struct {
	mu   sync.Mutex
	rec  Record
	base map[string]int64
}

// New returns an enabled Recorder for one command run, snapshotting
// the global counter registry so Record can report per-run deltas.
func New(command string) *Recorder {
	return &Recorder{
		rec:  Record{Command: command},
		base: metrics.Default.Export().CounterValues(),
	}
}

// Enabled reports whether the recorder records anything.
func (r *Recorder) Enabled() bool { return r != nil }

// SetGraph attaches the workload identity. No-op on nil.
func (r *Recorder) SetGraph(label string, tasks, edges int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.rec.Graph = &GraphInfo{Label: label, Tasks: tasks, Edges: edges}
	r.mu.Unlock()
}

// Method appends one bounding method's outcome. No-op on nil.
func (r *Recorder) Method(m MethodRecord) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.rec.Methods = append(r.rec.Methods, m)
	r.mu.Unlock()
}

// Sim appends one simulation activity summary. No-op on nil.
func (r *Recorder) Sim(s SimRecord) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.rec.Sim = append(r.rec.Sim, s)
	r.mu.Unlock()
}

// SetWitness attaches the worst-case witness. No-op on nil.
func (r *Recorder) SetWitness(w *Witness) {
	if r == nil || w == nil {
		return
	}
	r.mu.Lock()
	r.rec.Witness = w
	r.mu.Unlock()
}

// Record materializes the decision record: the explicitly recorded
// sections plus the engine sections Derive computes from the counter
// deltas since New. It can be called repeatedly; each call re-reads
// the registry. Returns nil on a nil recorder.
func (r *Recorder) Record() *Record {
	if r == nil {
		return nil
	}
	delta := metrics.Default.Export().CounterValues()
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, v := range r.base {
		delta[name] -= v
	}
	d := Derive(delta)
	rec := r.rec // shallow copy; slices are append-only
	rec.Pairs, rec.Chains, rec.JumpRuns = d.Pairs, d.Chains, d.JumpRuns
	return &rec
}

// CountJump tallies one simulation run's jump-ahead outcome on the
// exp.sim.jump.* counters that Derive reads back as JumpRuns:
// exp.sim.jump.engaged, or exp.sim.jump.fallback.<code> with the run's
// reason code. Every frontend that runs the engine calls it once per
// run, so the -explain record, -metrics and the /metrics gauge all see
// the same tally.
func CountJump(j sim.JumpStats) {
	if j.Engaged {
		metrics.C("exp.sim.jump.engaged").Inc()
		return
	}
	metrics.C("exp.sim.jump.fallback." + j.Code()).Inc()
}

// Derive computes a record's engine sections — Pairs, Chains and
// JumpRuns — from counter values keyed by metrics name. It is the one
// definition of the decision statistics: Recorder.Record applies it to
// one run's counter deltas, and the -telemetry gauges to the
// registry's totals. A section with no underlying activity stays nil.
func Derive(c map[string]int64) Record {
	var rec Record
	bounded, pruned := c["core.pairs.bounded"], c["core.pairs.pruned"]
	subtree := c["core.pairs.subtree_pruned"]
	if total := bounded + pruned + subtree; total > 0 {
		rec.Pairs = &PairStats{
			Bounded:           bounded,
			Pruned:            pruned,
			PruneRatio:        float64(pruned) / float64(total),
			SubtreePruned:     subtree,
			SubtreePruneRatio: float64(subtree) / float64(total),
			BlocksPruned:      c["core.blocks.pruned"],
			ParallelRuns:      c["core.bound.parallel"],
		}
	}

	indexed, enumerated := c["chains.indexed"], c["chains.enumerated"]
	truncated := c["chains.truncated"]
	if indexed+enumerated+truncated > 0 {
		cs := &ChainStats{
			Indexed: indexed, Enumerated: enumerated,
			Truncated: truncated, DisparityTruncated: c["core.disparity.truncated"],
			MasksWord:    c["chains.masks.word"],
			MasksMulti:   c["chains.masks.multi"],
			MasksSkipped: c["chains.masks.skipped"],
		}
		if truncated > 0 {
			switch nodes := c["chains.truncated.nodes"]; {
			case nodes == 0:
				cs.Cause = "max-chains-cap"
			case nodes == truncated:
				cs.Cause = "node-budget"
			default:
				cs.Cause = "mixed"
			}
		}
		cs.MaskMode = maskMode(cs.MasksWord, cs.MasksMulti, cs.MasksSkipped)
		rec.Chains = cs
	}

	for name, v := range c {
		code, ok := strings.CutPrefix(name, "exp.sim.jump.")
		if !ok || v == 0 {
			continue
		}
		if rec.JumpRuns == nil {
			rec.JumpRuns = make(map[string]int64)
		}
		// Keys are bare reason codes: "engaged", "random-exec", ...
		rec.JumpRuns[strings.TrimPrefix(code, "fallback.")] += v
	}
	return rec
}

// JumpEngagement is the fraction of the tallied simulation runs whose
// steady-state jump-ahead engaged; 0 when JumpRuns is empty.
func (r *Record) JumpEngagement() float64 {
	var total int64
	for _, n := range r.JumpRuns {
		total += n
	}
	if total == 0 {
		return 0
	}
	return float64(r.JumpRuns["engaged"]) / float64(total)
}

// MaskExact is the fraction of built indexes whose c=1 fast test ran
// on exact path masks (single- or multi-word) rather than the full
// per-pair decomposition; 0 when no index requested masks.
func (c *ChainStats) MaskExact() float64 {
	total := c.MasksWord + c.MasksMulti + c.MasksSkipped
	if total == 0 {
		return 0
	}
	return float64(c.MasksWord+c.MasksMulti) / float64(total)
}

// WriteJSON finalizes and writes the decision record as indented JSON.
// No-op on nil.
func (r *Recorder) WriteJSON(w io.Writer) error {
	if r == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Record())
}

// WriteFile writes the decision record to path. No-op on nil.
func (r *Recorder) WriteFile(path string) error {
	if r == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteSummary renders the record as the human-readable "explain:"
// section the CLI frontends print. No-op on nil.
func (r *Recorder) WriteSummary(w io.Writer) error {
	if r == nil {
		return nil
	}
	rec := r.Record()
	var b strings.Builder
	b.WriteString("\nexplain:\n")
	if rec.Pairs != nil {
		fmt.Fprintf(&b, "  pair bounds:  %d evaluated, %d pruned (%.1f%% prune ratio), parallel x%d\n",
			rec.Pairs.Bounded, rec.Pairs.Pruned, 100*rec.Pairs.PruneRatio, rec.Pairs.ParallelRuns)
		if rec.Pairs.SubtreePruned > 0 {
			fmt.Fprintf(&b, "  subtree prune: %d pairs in %d blocks skipped before enumeration (%.1f%% of pair volume)\n",
				rec.Pairs.SubtreePruned, rec.Pairs.BlocksPruned, 100*rec.Pairs.SubtreePruneRatio)
		}
	}
	if rec.Chains != nil {
		trunc := "none"
		if rec.Chains.Truncated > 0 {
			trunc = fmt.Sprintf("%d enumerations hit a limit (%s)", rec.Chains.Truncated, rec.Chains.Cause)
		}
		fmt.Fprintf(&b, "  chains:       %d indexed, truncation: %s\n", rec.Chains.Indexed, trunc)
		if mode := rec.Chains.MaskMode; mode != "" {
			detail := ""
			if mode == "mixed" || rec.Chains.MasksSkipped > 0 {
				detail = fmt.Sprintf(" (word x%d, multi x%d, skipped x%d)",
					rec.Chains.MasksWord, rec.Chains.MasksMulti, rec.Chains.MasksSkipped)
			}
			fmt.Fprintf(&b, "  path masks:   %s%s\n", mode, detail)
		}
	}
	for _, s := range rec.Sim {
		fmt.Fprintf(&b, "  sim %-9s %d runs, %d jobs, jump-ahead: %s\n", s.Label+":", s.Runs, s.Jobs, s.Jump.Code)
	}
	if len(rec.JumpRuns) > 0 {
		codes := make([]string, 0, len(rec.JumpRuns))
		for code := range rec.JumpRuns {
			codes = append(codes, code)
		}
		sort.Strings(codes)
		parts := make([]string, 0, len(codes))
		for _, code := range codes {
			parts = append(parts, fmt.Sprintf("%s x%d", code, rec.JumpRuns[code]))
		}
		fmt.Fprintf(&b, "  jump-ahead:   %s\n", strings.Join(parts, ", "))
	}
	for _, m := range rec.Methods {
		line := fmt.Sprintf("  %-13s %v over %d pairs", m.Method+":", m.BoundNS, m.NumPairs)
		if m.ArgMax != nil {
			line += fmt.Sprintf(", argmax %s | %s", m.ArgMax.Lambda, m.ArgMax.Nu)
		}
		if m.Truncated {
			line += " (truncated)"
		}
		b.WriteString(line + "\n")
	}
	if wt := rec.Witness; wt != nil {
		fmt.Fprintf(&b, "  witness:      %s | %s attains %v (bound %v) at %s job k=%d, releases k_lambda=%d k_nu=%d, jump-ahead: %s\n",
			wt.Lambda, wt.Nu, wt.AttainedNS, wt.BoundNS, wt.Watch, wt.Job.K, wt.JobLambda, wt.JobNu, wt.Jump.Code)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// maskMode names the run's path-bitset outcome: the single mode when
// every index agreed, "mixed" otherwise, "" with no index builds.
func maskMode(word, multi, skipped int64) string {
	modes := []struct {
		name string
		n    int64
	}{{"word", word}, {"multi", multi}, {"skipped", skipped}}
	active := ""
	for _, m := range modes {
		if m.n == 0 {
			continue
		}
		if active != "" {
			return "mixed"
		}
		active = m.name
	}
	return active
}
