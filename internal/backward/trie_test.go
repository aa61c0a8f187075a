package backward

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/chains"
	"repro/internal/model"
	"repro/internal/randgraph"
	"repro/internal/sched"
	"repro/internal/timeu"
	"repro/internal/waters"
)

// TestTrieBoundsMatchDirect pins the per-node cumulative tables to the
// direct per-chain sums: for every trie node u and every ancestor v,
// Bounds(u, v) must equal Analyzer.Bounds on the materialized segment —
// bit-identical, across methods, semantics, and buffered edges.
func TestTrieBoundsMatchDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		n := 6 + rng.Intn(10)
		g, err := randgraph.GNM(n, 2*n, randgraph.DefaultConfig(), rng)
		if err != nil {
			t.Fatal(err)
		}
		waters.Populate(g, rng)
		if trial%3 == 1 {
			for i := 0; i < g.NumTasks(); i++ {
				g.Task(model.TaskID(i)).Sem = model.LET
			}
		}
		if trial%4 == 2 {
			for _, e := range g.Edges() {
				if rng.Intn(2) == 0 {
					if err := g.SetBuffer(e.Src, e.Dst, 1+rng.Intn(3)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		res := sched.Analyze(g, sched.NonPreemptiveFP)
		sink := g.Sinks()[0]
		idx := chains.NewIndex(g, sink, 0)
		for _, method := range []Method{NonPreemptive, Duerr} {
			direct := NewAnalyzer(g, res, method)
			tb := direct.TrieBounds(idx)
			for u := int32(0); u < int32(idx.NumNodes()); u++ {
				// Materialize the path u..root once; prefixes of it are
				// the segments u..v for every ancestor v.
				var path model.Chain
				for n := u; n >= 0; n = idx.NodeParent(n) {
					path = append(path, idx.NodeTask(n))
				}
				v := u
				for k := 0; k < len(path); k++ {
					seg := path[:k+1]
					wantW, wantB := direct.Bounds(seg)
					gotW, gotB := tb.Bounds(u, v)
					if gotW != wantW || gotB != wantB {
						t.Fatalf("trial %d %v: segment %v bounds = (%v, %v), direct (%v, %v)",
							trial, method, seg, gotW, gotB, wantW, wantB)
					}
					v = idx.NodeParent(v)
				}
			}
		}
	}
}

// TestTrieBoundsMixedSemanticsPanics matches WCBT/BCBT's loud rejection
// of chains that mix LET and implicit scheduled tasks.
func TestTrieBoundsMixedSemanticsPanics(t *testing.T) {
	g := model.NewGraph()
	ecu := g.AddECU("e", model.Compute)
	ms := model.Task{WCET: 1, BCET: 1, Period: 1000, ECU: ecu}
	a := ms
	a.Name, a.Prio = "a", 0
	b := ms
	b.Name, b.Prio, b.Sem = "b", 1, model.LET
	ida := g.AddTask(a)
	idb := g.AddTask(b)
	if err := g.AddEdge(ida, idb); err != nil {
		t.Fatal(err)
	}
	res := sched.Analyze(g, sched.NonPreemptiveFP)
	an := NewAnalyzer(g, res, NonPreemptive)
	idx := chains.NewIndex(g, idb, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("mixed-semantics trie did not panic")
		}
	}()
	an.TrieBounds(idx)
}

// TestSubtreeAggsMatchBruteForce pins the per-subtree key envelopes to
// the exact segment API over the same randomized corpus as
// TestTrieBoundsMatchDirect: for every trie node f, the brute-force
// min/max of Bounds(leaf, f) over f's leaf range must equal the
// SubtreeAggs keys completed by BlockOffsets — exactly for 𝒲 always and
// for ℬ on LET-free graphs, and within the two-candidate hull when the
// graph schedules LET tasks (each leaf's true ℬ is one candidate, so
// the hull may be loose but must never be violated).
func TestSubtreeAggsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 30; trial++ {
		n := 6 + rng.Intn(10)
		g, err := randgraph.GNM(n, 2*n, randgraph.DefaultConfig(), rng)
		if err != nil {
			t.Fatal(err)
		}
		waters.Populate(g, rng)
		if trial%3 == 1 {
			for i := 0; i < g.NumTasks(); i++ {
				g.Task(model.TaskID(i)).Sem = model.LET
			}
		}
		if trial%4 == 2 {
			for _, e := range g.Edges() {
				if rng.Intn(2) == 0 {
					if err := g.SetBuffer(e.Src, e.Dst, 1+rng.Intn(3)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		res := sched.Analyze(g, sched.NonPreemptiveFP)
		sink := g.Sinks()[0]
		for _, method := range []Method{NonPreemptive, Duerr} {
			an := NewAnalyzer(g, res, method)
			idx, tb := an.IndexBounds(g, sink, 0)
			aggs, hasLET := tb.SubtreeAggs()
			for f := int32(0); f < int32(idx.NumNodes()); f++ {
				lo, hi := idx.LeafSpan(f)
				if lo >= hi {
					t.Fatalf("trial %d %v: empty subtree %d on a full index", trial, method, f)
				}
				wOff, bOff, bletOff := tb.BlockOffsets(f)
				minW, maxW := timeu.Time(math.MaxInt64), timeu.Time(math.MinInt64)
				minB, maxB := timeu.Time(math.MaxInt64), timeu.Time(math.MinInt64)
				for i := lo; i < hi; i++ {
					w, b := tb.Bounds(idx.Leaf(int(i)), f)
					minW, maxW = timeu.Min(minW, w), timeu.Max(maxW, w)
					minB, maxB = timeu.Min(minB, b), timeu.Max(maxB, b)
				}
				if minW != aggs[f].MinW+wOff || maxW != aggs[f].MaxW+wOff {
					t.Fatalf("trial %d %v node %d: brute 𝒲 [%v, %v], aggregate [%v, %v]",
						trial, method, f, minW, maxW, aggs[f].MinW+wOff, aggs[f].MaxW+wOff)
				}
				if !hasLET {
					if minB != aggs[f].MinB+bOff || maxB != aggs[f].MaxB+bOff {
						t.Fatalf("trial %d %v node %d: brute ℬ [%v, %v], aggregate [%v, %v]",
							trial, method, f, minB, maxB, aggs[f].MinB+bOff, aggs[f].MaxB+bOff)
					}
				} else {
					hullLo := timeu.Min(aggs[f].MinB+bOff, aggs[f].MinBLET+bletOff)
					hullHi := timeu.Max(aggs[f].MaxB+bOff, aggs[f].MaxBLET+bletOff)
					if minB < hullLo || maxB > hullHi {
						t.Fatalf("trial %d %v node %d: brute ℬ [%v, %v] escapes hull [%v, %v]",
							trial, method, f, minB, maxB, hullLo, hullHi)
					}
				}
			}
		}
	}
}

// TestTrieBoundsSplitAtTask pins the split identities behind the S-diff
// descent's closed-form prune: for trie nodes x below t below y on one
// path, 𝒲(x..y) = 𝒲(x..t) + 𝒲(t..y) and ℬ(x..y) = ℬ(x..t) + ℬ(t..y) +
// SplitExcess(t), exactly, and SplitExcess is never negative — on
// random tries under Lemma 5 and Dürr, all-implicit and all-LET, with
// buffered edges and with sporadic tasks.
func TestTrieBoundsSplitAtTask(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	var checked, positive int
	for trial := 0; trial < 40; trial++ {
		n := 6 + rng.Intn(10)
		g, err := randgraph.GNM(n, 2*n, randgraph.DefaultConfig(), rng)
		if err != nil {
			t.Fatal(err)
		}
		waters.Populate(g, rng)
		switch trial % 4 {
		case 1:
			for i := 0; i < g.NumTasks(); i++ {
				g.Task(model.TaskID(i)).Sem = model.LET
			}
		case 2:
			for _, e := range g.Edges() {
				if rng.Intn(2) == 0 {
					if err := g.SetBuffer(e.Src, e.Dst, 2+rng.Intn(3)); err != nil {
						t.Fatal(err)
					}
				}
			}
		case 3:
			for i := 0; i < g.NumTasks(); i++ {
				if tsk := g.Task(model.TaskID(i)); rng.Intn(3) == 0 {
					tsk.MaxPeriod = tsk.Period + tsk.Period/2
				}
			}
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		res := sched.Analyze(g, sched.NonPreemptiveFP)
		idx := chains.NewIndex(g, g.Sinks()[0], 0)
		for _, method := range []Method{NonPreemptive, Duerr} {
			tb := NewAnalyzer(g, res, method).TrieBounds(idx)
			for x := int32(0); x < int32(idx.NumNodes()); x++ {
				for tn := idx.NodeParent(x); tn >= 0; tn = idx.NodeParent(tn) {
					e := tb.SplitExcess(idx.NodeTask(tn))
					if e < 0 {
						t.Fatalf("trial %d %v: SplitExcess(%s) = %v < 0", trial, method, g.Task(idx.NodeTask(tn)).Name, e)
					}
					if e > 0 {
						positive++
					}
					for y := idx.NodeParent(tn); y >= 0; y = idx.NodeParent(y) {
						w, b := tb.Bounds(x, y)
						w1, b1 := tb.Bounds(x, tn)
						w2, b2 := tb.Bounds(tn, y)
						if w != w1+w2 || b != b1+b2+e {
							t.Fatalf("trial %d %v: split of %d..%d at %s: 𝒲 %v vs %v+%v, ℬ %v vs %v+%v+%v",
								trial, method, x, y, g.Task(idx.NodeTask(tn)).Name, w, w1, w2, b, b1, b2, e)
						}
						checked++
					}
				}
			}
		}
	}
	if checked < 1000 || positive == 0 {
		t.Fatalf("vacuous corpus: %d splits checked, %d with e > 0", checked, positive)
	}
}
