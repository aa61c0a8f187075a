package chains

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/model"
	"repro/internal/randgraph"
)

// TestIndexMatchesEnumerate pins the trie to the reference enumeration:
// identical chain count, order, and contents on random DAGs.
func TestIndexMatchesEnumerate(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		n := 5 + rng.Intn(14)
		g, err := randgraph.GNM(n, 2*n, randgraph.DefaultConfig(), rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, sink := range g.Sinks() {
			want, err := Enumerate(g, sink, 0)
			if err != nil {
				t.Fatal(err)
			}
			idx := NewIndex(g, sink, 0)
			if idx.Truncated() {
				t.Fatalf("trial %d: unexpected truncation", trial)
			}
			got := idx.Chains()
			if len(got) != len(want) {
				t.Fatalf("trial %d: %d chains, Enumerate has %d", trial, len(got), len(want))
			}
			for i := range want {
				if !got[i].Equal(want[i]) {
					t.Fatalf("trial %d chain %d: %v != %v", trial, i, got[i], want[i])
				}
				if ln := int(idx.NodeDepth(idx.Leaf(i))); ln != want[i].Len() {
					t.Errorf("trial %d chain %d: leaf depth %d, chain length %d", trial, i, ln, want[i].Len())
				}
			}
			var viaIter []model.Chain
			idx.ForEachChain(func(i int, c model.Chain) bool {
				viaIter = append(viaIter, append(model.Chain(nil), c...))
				return true
			})
			for i := range want {
				if !viaIter[i].Equal(want[i]) {
					t.Fatalf("trial %d: ForEachChain diverges at %d", trial, i)
				}
			}
		}
	}
}

// TestIndexLCAMatchesStrip checks that the node-level LCA of two leaves
// is exactly the last joint task StripCommonSuffix reduces a pair to,
// and that the stripped chains are the leaf→LCA path prefixes.
func TestIndexLCAMatchesStrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		n := 5 + rng.Intn(12)
		g, err := randgraph.GNM(n, 2*n, randgraph.DefaultConfig(), rng)
		if err != nil {
			t.Fatal(err)
		}
		sink := g.Sinks()[0]
		cs, err := Enumerate(g, sink, 4096)
		if err != nil {
			t.Fatal(err)
		}
		idx := NewIndex(g, sink, 4096)
		err = ForEachPair(len(cs), func(i, j int) error {
			sl, sn, err := StripCommonSuffix(cs[i], cs[j])
			if err != nil {
				return err
			}
			u, v := idx.Leaf(i), idx.Leaf(j)
			f := idx.LCA(u, v)
			if got := idx.NodeTask(f); got != sl.Tail() {
				t.Fatalf("trial %d pair (%d,%d): LCA task %v, strip joint %v", trial, i, j, got, sl.Tail())
			}
			wantLa := int(idx.NodeDepth(u) - idx.NodeDepth(f) + 1)
			wantNu := int(idx.NodeDepth(v) - idx.NodeDepth(f) + 1)
			if sl.Len() != wantLa || sn.Len() != wantNu {
				t.Fatalf("trial %d pair (%d,%d): stripped lengths %d/%d, depths say %d/%d",
					trial, i, j, sl.Len(), sn.Len(), wantLa, wantNu)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// sharedByCount is the reference shared-task set of an index, found
// independently of the mask builder by counting the trie nodes of
// every task: the tasks at two or more nodes, in ID order.
func sharedByCount(idx *Index, numTasks int) []model.TaskID {
	count := make([]int, numTasks)
	for n := int32(0); n < int32(idx.NumNodes()); n++ {
		count[idx.NodeTask(n)]++
	}
	var shared []model.TaskID
	for t, c := range count {
		if c >= 2 {
			shared = append(shared, model.TaskID(t))
		}
	}
	return shared
}

// sharedRow is the reference mask row of a task list: bit b set for
// every task that is shared[b].
func sharedRow(tasks []model.TaskID, shared []model.TaskID) []uint64 {
	row := make([]uint64, max(bitset.Words(len(shared)), 1))
	for _, id := range tasks {
		if b, ok := slices.BinarySearch(shared, id); ok {
			bitset.Set(row, b)
		}
	}
	return row
}

// checkPathMasks pins an index's mask contract against the reference
// shared set: SharedTasks equals it, the stride is bitset.Words of its
// size but at least 1, and every leaf row is exactly chain ∩ shared.
func checkPathMasks(t testing.TB, idx *Index, numTasks int) {
	t.Helper()
	shared := sharedByCount(idx, numTasks)
	if got := idx.SharedTasks(); !slices.Equal(got, shared) {
		t.Fatalf("SharedTasks = %v, node count says %v", got, shared)
	}
	masks, stride := idx.PathMasks()
	if want := max(bitset.Words(len(shared)), 1); masks == nil || stride != want || len(masks) != idx.NumNodes()*stride {
		t.Fatalf("PathMasks over %d shared tasks: stride=%d (want %d) len=%d nodes=%d",
			len(shared), stride, want, len(masks), idx.NumNodes())
	}
	for i := 0; i < idx.NumChains(); i++ {
		row := bitset.Row(masks, stride, int(idx.Leaf(i)))
		want := sharedRow(idx.Chain(i), shared)
		if !slices.Equal(row, want) {
			t.Fatalf("leaf %d mask %064b, chain ∩ shared %064b", i, row, want)
		}
	}
}

// TestIndexPathMasks checks the exact-mask fast test: the masks, over
// the shared tasks only, find a common task strictly below the LCA
// exactly when the stripped pair has common tasks beyond the joint one
// (c > 1 in Theorem 2's terms), with a shared head's bit cleared.
func TestIndexPathMasks(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 40; trial++ {
		n := 5 + rng.Intn(12)
		g, err := randgraph.GNM(n, 2*n, randgraph.DefaultConfig(), rng)
		if err != nil {
			t.Fatal(err)
		}
		sink := g.Sinks()[0]
		cs, err := Enumerate(g, sink, 4096)
		if err != nil {
			t.Fatal(err)
		}
		idx := NewIndex(g, sink, 4096)
		checkPathMasks(t, idx, g.NumTasks())
		masks, stride := idx.PathMasks()
		if stride != 1 {
			t.Fatalf("trial %d: %d-task graph should have single-word masks, got stride %d", trial, g.NumTasks(), stride)
		}
		err = ForEachPair(len(cs), func(i, j int) error {
			sl, sn, err := StripCommonSuffix(cs[i], cs[j])
			if err != nil {
				return err
			}
			d, err := Decompose(sl, sn)
			if err != nil {
				return err
			}
			u, v := idx.Leaf(i), idx.Leaf(j)
			f := idx.LCA(u, v)
			common := masks[u] & masks[v] &^ masks[f]
			if d.SameHead {
				b, _ := slices.BinarySearch(idx.SharedTasks(), sl.Head())
				common &^= 1 << uint(b)
			}
			if (common == 0) != (d.C() == 1) {
				t.Fatalf("trial %d pair (%d,%d): mask says common=%b, Decompose says c=%d",
					trial, i, j, common, d.C())
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestIndexTruncation mirrors Enumerate's cap semantics: where Enumerate
// errors, the index keeps the first maxChains chains (in the same
// order) and reports Truncated.
func TestIndexTruncation(t *testing.T) {
	// Diamond ladder: 2^12 chains to the sink (same topology as
	// TestEnumerateTooManyChains).
	g := model.NewGraph()
	prev := g.AddTask(model.Task{Name: "s"})
	for i := 0; i < 12; i++ {
		a := g.AddTask(model.Task{})
		b := g.AddTask(model.Task{})
		join := g.AddTask(model.Task{})
		for _, mid := range []model.TaskID{a, b} {
			if err := g.AddEdge(prev, mid); err != nil {
				t.Fatal(err)
			}
			if err := g.AddEdge(mid, join); err != nil {
				t.Fatal(err)
			}
		}
		prev = join
	}
	idx := NewIndex(g, prev, 100)
	if !idx.Truncated() {
		t.Fatal("expected truncation at cap 100")
	}
	if idx.NumChains() != 100 {
		t.Fatalf("truncated index has %d chains, want 100", idx.NumChains())
	}
	full, err := Enumerate(g, prev, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < idx.NumChains(); i++ {
		if !idx.Chain(i).Equal(full[i]) {
			t.Fatalf("truncated chain %d diverges from Enumerate order", i)
		}
	}
	if _, err := Enumerate(g, prev, 100); !errors.Is(err, ErrTooManyChains) {
		t.Fatalf("Enumerate err = %v, want ErrTooManyChains", err)
	}
	// Exactly at the cap: no truncation, like Enumerate's no-error case.
	exact := NewIndex(g, prev, len(full))
	if exact.Truncated() || exact.NumChains() != len(full) {
		t.Fatalf("cap == count should not truncate (truncated=%v, %d chains)",
			exact.Truncated(), exact.NumChains())
	}
}

// TestIndexSingleSourceTask covers the degenerate single-node chain set.
func TestIndexSingleSourceTask(t *testing.T) {
	g := model.NewGraph()
	id := g.AddTask(model.Task{Name: "only"})
	idx := NewIndex(g, id, 0)
	if idx.NumChains() != 1 || idx.Chain(0).Len() != 1 || idx.Chain(0)[0] != id {
		t.Fatalf("index of a source task = %v", idx.Chains())
	}
}

// diamondLadder builds the 2^levels-chain truncation topology shared by
// the cause tests.
func diamondLadder(t *testing.T, levels int) (*model.Graph, model.TaskID) {
	t.Helper()
	g := model.NewGraph()
	prev := g.AddTask(model.Task{Name: "s"})
	for i := 0; i < levels; i++ {
		a := g.AddTask(model.Task{})
		b := g.AddTask(model.Task{})
		join := g.AddTask(model.Task{})
		for _, mid := range []model.TaskID{a, b} {
			if err := g.AddEdge(prev, mid); err != nil {
				t.Fatal(err)
			}
			if err := g.AddEdge(mid, join); err != nil {
				t.Fatal(err)
			}
		}
		prev = join
	}
	return g, prev
}

// TestIndexTruncationCause distinguishes the two truncation causes: the
// chain cap and the trie node budget, each keeping an Enumerate-order
// chain prefix.
func TestIndexTruncationCause(t *testing.T) {
	g, sink := diamondLadder(t, 10)
	full, err := Enumerate(g, sink, 0)
	if err != nil {
		t.Fatal(err)
	}

	capped := NewIndex(g, sink, 64)
	if capped.Cause() != TruncatedChainCap || capped.Cause().String() != "max-chains-cap" {
		t.Fatalf("cap truncation cause = %v (%q)", capped.Cause(), capped.Cause().String())
	}

	defer func(old int) { DefaultMaxNodes = old }(DefaultMaxNodes)
	DefaultMaxNodes = 200
	budgeted := NewIndex(g, sink, 0)
	if budgeted.Cause() != TruncatedNodeBudget || budgeted.Cause().String() != "node-budget" {
		t.Fatalf("budget truncation cause = %v (%q)", budgeted.Cause(), budgeted.Cause().String())
	}
	if !budgeted.Truncated() || budgeted.NumNodes() > 200 {
		t.Fatalf("budgeted index: truncated=%v nodes=%d", budgeted.Truncated(), budgeted.NumNodes())
	}
	if budgeted.NumChains() == 0 || budgeted.NumChains() >= len(full) {
		t.Fatalf("budgeted index kept %d of %d chains", budgeted.NumChains(), len(full))
	}
	for i := 0; i < budgeted.NumChains(); i++ {
		if !budgeted.Chain(i).Equal(full[i]) {
			t.Fatalf("budget-truncated chain %d diverges from Enumerate order", i)
		}
	}

	DefaultMaxNodes = 1 << 22
	if fresh := NewIndex(g, sink, 0); fresh.Cause() != NotTruncated || fresh.Truncated() {
		t.Fatalf("restored budget still truncates: cause=%v", fresh.Cause())
	}
}

// TestIndexStream checks the one-pass visitor contract: every node is
// visited exactly once, immediately after creation, parents first — the
// ordering backward.TrieBounds' streaming build relies on.
func TestIndexStream(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	g, err := randgraph.GNM(14, 28, randgraph.DefaultConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	sink := g.Sinks()[0]
	var visited []int32
	idx := NewIndexStream(g, sink, 0, func(x *Index, n int32) {
		if int(n) != len(visited) {
			t.Fatalf("node %d visited out of order (visit #%d)", n, len(visited))
		}
		if n >= int32(x.NumNodes()) {
			t.Fatalf("node %d not yet appended at visit time", n)
		}
		if p := x.NodeParent(n); p >= n {
			t.Fatalf("node %d visited before its parent %d", n, p)
		}
		visited = append(visited, n)
	})
	if len(visited) != idx.NumNodes() {
		t.Fatalf("visited %d nodes, index has %d", len(visited), idx.NumNodes())
	}
	ref := NewIndex(g, sink, 0)
	if idx.NumChains() != ref.NumChains() || idx.NumNodes() != ref.NumNodes() {
		t.Fatalf("streamed index differs: %d/%d chains, %d/%d nodes",
			idx.NumChains(), ref.NumChains(), idx.NumNodes(), ref.NumNodes())
	}
}

// TestIndexMultiWordMasks checks exact masks on >64-task graphs: each
// leaf row must hold exactly its chain's shared tasks, against a
// shared set counted independently, and some trial must need more than
// one word.
func TestIndexMultiWordMasks(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	multi := 0
	for trial := 0; trial < 10; trial++ {
		n := 70 + rng.Intn(80)
		g, err := randgraph.GNM(n, 3*n/2, randgraph.DefaultConfig(), rng)
		if err != nil {
			t.Fatal(err)
		}
		sink := g.Sinks()[0]
		cs, err := Enumerate(g, sink, 4096)
		if err != nil {
			t.Skip("dense instance overflows the test cap")
		}
		idx := NewIndex(g, sink, 4096)
		checkPathMasks(t, idx, g.NumTasks())
		if _, stride := idx.PathMasks(); stride >= 2 {
			multi++
		}
		if len(cs) != idx.NumChains() {
			t.Fatalf("trial %d: %d chains, Enumerate has %d", trial, idx.NumChains(), len(cs))
		}
	}
	if multi == 0 {
		t.Fatal("no trial has more than 64 shared tasks: the multi-word layout went untested")
	}
}

// TestIndexMaskBudget exercises the skip path: a table over budget is
// not built and the call reports no masks.
func TestIndexMaskBudget(t *testing.T) {
	defer func(old int) { MaskBudgetWords = old }(MaskBudgetWords)
	MaskBudgetWords = 8
	rng := rand.New(rand.NewSource(46))
	g, err := randgraph.GNM(70, 100, randgraph.DefaultConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	idx := NewIndex(g, g.Sinks()[0], 0)
	if masks, stride := idx.PathMasks(); masks != nil || stride != 0 {
		t.Fatalf("over-budget masks built anyway: len=%d stride=%d", len(masks), stride)
	}
}

// checkSubtreeTables verifies the subtree topology tables against the
// trie's parent pointers and the leaf list, independent of the
// reverse-preorder builds: every node's leaf span holds exactly the
// chains whose leaf→root walk passes the node, children come back in
// increasing (preorder = predecessor) order, and each union mask row is
// the OR of the leaf mask rows over the span. Shared by the unit test
// below and FuzzIndexMatchesEnumerate.
func checkSubtreeTables(t testing.TB, idx *Index) {
	t.Helper()
	nn := idx.NumNodes()
	if nn == 0 {
		return
	}
	// Count chains through each node by walking leaf→root, checking
	// containment as we go. Equal counts + containment + contiguity of a
	// half-open range force the span to be exactly the passing set.
	through := make([]int32, nn)
	for i := 0; i < idx.NumChains(); i++ {
		for n := idx.Leaf(i); n >= 0; n = idx.NodeParent(n) {
			lo, hi := idx.LeafSpan(n)
			if int32(i) < lo || int32(i) >= hi {
				t.Fatalf("chain %d passes node %d but span [%d,%d) misses it", i, n, lo, hi)
			}
			through[n]++
		}
	}
	children := 0
	for n := int32(0); n < int32(nn); n++ {
		lo, hi := idx.LeafSpan(n)
		size := hi - lo
		if size < 0 {
			size = 0 // crossed sentinels mark an empty (truncated-away) subtree
		}
		if size != through[n] {
			t.Fatalf("node %d span [%d,%d) sized %d, but %d chains pass through", n, lo, hi, size, through[n])
		}
		kids := idx.Children(n)
		children += len(kids)
		prev := n
		for _, c := range kids {
			if c <= prev {
				t.Fatalf("node %d children %v out of preorder", n, kids)
			}
			if idx.NodeParent(c) != n {
				t.Fatalf("node %d lists child %d whose parent is %d", n, c, idx.NodeParent(c))
			}
			prev = c
		}
	}
	if children != nn-1 {
		t.Fatalf("children lists cover %d nodes, want %d", children, nn-1)
	}
	masks, stride := idx.PathMasks()
	sub, subStride := idx.SubtreeMasks()
	if masks == nil {
		if sub != nil || subStride != 0 {
			t.Fatalf("SubtreeMasks built without PathMasks: len=%d stride=%d", len(sub), subStride)
		}
		return
	}
	if subStride != stride || len(sub) != nn*stride {
		t.Fatalf("SubtreeMasks stride %d len %d, want stride %d len %d", subStride, len(sub), stride, nn*stride)
	}
	want := make([]uint64, stride)
	for n := 0; n < nn; n++ {
		lo, hi := idx.LeafSpan(int32(n))
		for w := range want {
			want[w] = 0
		}
		for i := lo; i < hi; i++ {
			row := masks[int(idx.Leaf(int(i)))*stride : (int(idx.Leaf(int(i)))+1)*stride]
			for w := range want {
				want[w] |= row[w]
			}
		}
		row := sub[n*stride : (n+1)*stride]
		for w := range want {
			if row[w] != want[w] {
				t.Fatalf("node %d union word %d = %#x, leaf OR %#x", n, w, row[w], want[w])
			}
		}
	}
}

// TestIndexSubtreeTables runs the subtree-table checker over random
// DAGs on both mask tiers (≤64 and >64 tasks), over a truncated index
// (empty subtrees), and over the masks-skipped path (SubtreeMasks must
// report nil rather than an all-zero table).
func TestIndexSubtreeTables(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 40; trial++ {
		n := 5 + rng.Intn(12)
		if trial%4 == 3 {
			n = 70 + rng.Intn(40) // multi-word masks
		}
		g, err := randgraph.GNM(n, 2*n, randgraph.DefaultConfig(), rng)
		if err != nil {
			t.Fatal(err)
		}
		sink := g.Sinks()[0]
		idx := NewIndex(g, sink, 2048)
		if idx.Truncated() {
			continue
		}
		checkSubtreeTables(t, idx)
		if lo, hi := idx.LeafSpan(0); lo != 0 || int(hi) != idx.NumChains() {
			t.Fatalf("trial %d: root span [%d,%d), want [0,%d)", trial, lo, hi, idx.NumChains())
		}
		if nc := idx.NumChains(); nc > 1 {
			small := NewIndex(g, sink, 1+rng.Intn(nc-1))
			checkSubtreeTables(t, small) // truncated: spans may be empty but stay consistent
		}
	}

	defer func(old int) { MaskBudgetWords = old }(MaskBudgetWords)
	MaskBudgetWords = 8
	g, err := randgraph.GNM(70, 100, randgraph.DefaultConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	checkSubtreeTables(t, NewIndex(g, g.Sinks()[0], 0))
}
