package chains

import (
	"errors"
	"testing"

	"repro/internal/model"
)

// fuzzGraph decodes arbitrary bytes into a DAG: the first byte sets the
// task count (2..81, deliberately crossing the 64-task single-word mask
// specialization),
// each following byte pair proposes an edge, always directed from the
// lower to the higher task ID so the graph stays acyclic. Self-loops
// and duplicates are skipped, mirroring what a generator would refuse.
func fuzzGraph(data []byte) *model.Graph {
	if len(data) == 0 {
		return nil
	}
	n := 2 + int(data[0])%80
	g := model.NewGraph()
	for i := 0; i < n; i++ {
		g.AddTask(model.Task{})
	}
	for i := 1; i+1 < len(data); i += 2 {
		a := model.TaskID(int(data[i]) % n)
		b := model.TaskID(int(data[i+1]) % n)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		_ = g.AddEdge(a, b) // duplicates are fine to ignore
	}
	return g
}

// FuzzIndexMatchesEnumerate is the differential fuzz target for the
// trie index: on every decodable DAG and every sink, NewIndex must
// agree with the legacy Enumerate — same chains in the same order, the
// same truncation decision at any cap (flag vs error), and PathMasks
// that hold exactly each path's shared tasks at any task count (one
// word up to 64 shared tasks, several beyond).
func FuzzIndexMatchesEnumerate(f *testing.F) {
	// A diamond with a shared tail, a dense truncation-prone graph, an
	// edgeless graph, a >64-task graph with few shared tasks, and a
	// 74-task path into a final diamond, whose 71 path tasks all sit at
	// two trie nodes (multi-word masks).
	f.Add([]byte{0x02, 0, 2, 1, 2, 2, 3, 0, 1}, uint16(1))
	f.Add([]byte{0x0a, 0, 5, 1, 5, 2, 5, 3, 5, 4, 5, 5, 6, 5, 7, 6, 8, 7, 8, 8, 9}, uint16(3))
	f.Add([]byte{0x05}, uint16(0))
	f.Add([]byte{0xff, 1, 70, 2, 70, 70, 79, 0, 70}, uint16(2))
	pathDiamond := []byte{72}
	for i := byte(0); i < 70; i++ {
		pathDiamond = append(pathDiamond, i, i+1)
	}
	f.Add(append(pathDiamond, 70, 71, 70, 72, 71, 73, 72, 73), uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, mcSeed uint16) {
		g := fuzzGraph(data)
		if g == nil {
			return
		}
		sinks := g.Sinks()
		if len(sinks) > 4 {
			sinks = sinks[:4] // bound the per-input work on edgeless graphs
		}
		const roomy = 2048
		for _, sink := range sinks {
			ref, refErr := Enumerate(g, sink, roomy)
			idx := NewIndex(g, sink, roomy)
			if refErr != nil {
				if !errors.Is(refErr, ErrTooManyChains) {
					t.Fatalf("Enumerate: %v", refErr)
				}
				if !idx.Truncated() || idx.NumChains() != roomy {
					t.Fatalf("Enumerate overflowed %d chains but NewIndex kept %d (truncated=%v)",
						roomy, idx.NumChains(), idx.Truncated())
				}
				continue
			}
			if idx.Truncated() {
				t.Fatalf("index truncated at %d chains, Enumerate found only %d", roomy, len(ref))
			}
			if idx.NumChains() != len(ref) {
				t.Fatalf("NumChains = %d, Enumerate found %d", idx.NumChains(), len(ref))
			}
			for i, want := range ref {
				got := idx.Chain(i)
				if !got.Equal(want) {
					t.Fatalf("chain %d = %v, Enumerate order has %v", i, got, want)
				}
				if err := got.ValidIn(g); err != nil {
					t.Fatalf("chain %d invalid: %v", i, err)
				}
			}

			// Any smaller cap must truncate with the flag exactly when the
			// legacy API errors, keeping the Enumerate-order prefix.
			if len(ref) > 1 {
				mc := 1 + int(mcSeed)%len(ref)
				small := NewIndex(g, sink, mc)
				_, smallErr := Enumerate(g, sink, mc)
				overflow := len(ref) > mc
				if small.Truncated() != overflow {
					t.Fatalf("cap %d of %d chains: Truncated() = %v", mc, len(ref), small.Truncated())
				}
				if (smallErr != nil) != overflow || (smallErr != nil && !errors.Is(smallErr, ErrTooManyChains)) {
					t.Fatalf("cap %d of %d chains: Enumerate error = %v", mc, len(ref), smallErr)
				}
				want := len(ref)
				if overflow {
					want = mc
				}
				if small.NumChains() != want {
					t.Fatalf("cap %d: kept %d chains, want %d", mc, small.NumChains(), want)
				}
				for i := 0; i < small.NumChains(); i++ {
					if !small.Chain(i).Equal(ref[i]) {
						t.Fatalf("cap %d: chain %d = %v, want prefix chain %v", mc, i, small.Chain(i), ref[i])
					}
				}
				checkSubtreeTables(t, small) // truncated tier: empty subtrees allowed
			}

			// PathMasks: every leaf row is chain ∩ shared tasks, the
			// shared set counted independently (checkPathMasks).
			checkPathMasks(t, idx, g.NumTasks())

			// Subtree topology tables (leaf spans, child lists, union
			// masks) against the parent pointers and leaf rows.
			checkSubtreeTables(t, idx)
		}
	})
}
