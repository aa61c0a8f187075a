// Prefix-trie chain index.
//
// Enumerate materializes every source→task chain as its own slice, which
// is wasteful on fork-join DAGs: chains through a fusion task share
// almost all of their structure (cf. the multi-path DAG response-time
// literature, where path bounds are computed on the shared graph rather
// than per path). Index represents the same chain set as a node-shared
// tree rooted at the analyzed task: each trie node is one distinct
// task→sink path, each leaf is one chain of 𝒫, and a chain's tasks are
// read by walking parent pointers from its leaf. Consumers that work
// per-chain still can (Chains, ForEachChain); consumers that work on
// shared structure — the incremental backward bounds and the fork-point
// pair analysis in internal/backward and internal/core — index nodes
// directly, paying O(trie nodes) instead of O(chains × length).
//
// Enumerate remains the reference implementation: Index's leaf order,
// chain contents, and cap behavior are pinned to it by tests and by the
// analysis differential harness in internal/integration.
package chains

import (
	"sync"

	"repro/internal/bitset"
	"repro/internal/metrics"
	"repro/internal/model"
)

var (
	chainsIndexed   = metrics.C("chains.indexed")
	chainsTruncated = metrics.C("chains.truncated")
	// chainsTruncatedNodes counts indexes truncated by the trie node
	// budget (as opposed to the chain cap); explain derives the
	// truncation cause from the two counters' delta.
	chainsTruncatedNodes = metrics.C("chains.truncated.nodes")
	// Mask-mode counters, one increment per index whose PathMasks were
	// requested: exact in one word (at most 64 shared tasks), exact in
	// several words, or skipped because the table would exceed
	// MaskBudgetWords. Telemetry derives the disparity_mask_exact gauge
	// from these.
	masksWord    = metrics.C("chains.masks.word")
	masksMulti   = metrics.C("chains.masks.multi")
	masksSkipped = metrics.C("chains.masks.skipped")
)

// DefaultMaxNodes bounds the number of trie nodes NewIndex materializes
// — the memory budget complementing the chain cap. A trie that reaches
// it is truncated with TruncatedNodeBudget: it holds the chains fully
// discovered so far, in Enumerate order. The default (≈50 MB of nodes)
// is far above anything the chain cap admits on realistic graphs; it
// exists so adversarial deep-and-wide DAGs degrade to a truncated
// analysis instead of an allocation storm. It is a variable so tests
// can lower it.
var DefaultMaxNodes = 1 << 22

// MaskBudgetWords bounds the flat path-mask table PathMasks builds
// (64-bit words, so the default is 256 MB). An index whose table would
// exceed it reports no masks — the analysis falls back to the
// decomposition walk, which is exact, merely slower. Every table has at
// least one word per trie node, so a budget of 0 turns masks off on
// every index. It is a variable so tests can exercise the fallback.
var MaskBudgetWords = 1 << 25

// TruncationCause says why an Index holds only a prefix of the chain
// set. The zero value means the enumeration completed.
type TruncationCause uint8

const (
	// NotTruncated: the index holds every chain.
	NotTruncated TruncationCause = iota
	// TruncatedChainCap: the enumeration hit maxChains (the condition
	// under which Enumerate fails with ErrTooManyChains).
	TruncatedChainCap
	// TruncatedNodeBudget: trie construction hit DefaultMaxNodes before
	// the chain cap.
	TruncatedNodeBudget
)

// String returns the stable cause label used by explain records and
// reports.
func (c TruncationCause) String() string {
	switch c {
	case TruncatedChainCap:
		return "max-chains-cap"
	case TruncatedNodeBudget:
		return "node-budget"
	default:
		return "none"
	}
}

// node is one trie entry: a distinct path from a task to the analyzed
// task. nodes[0] is the root (the analyzed task itself, depth 1);
// children were pushed in predecessor order during the same backward
// DFS Enumerate performs, so leaves appear in Enumerate's chain order.
type node struct {
	task   model.TaskID
	parent int32
	depth  int32 // number of tasks on the path node..root
}

// frame is one pending trie node of the iterative construction.
type frame struct {
	task   model.TaskID
	parent int32
}

// Index is the prefix trie of every chain ending at one task, built in
// one backward DAG traversal. The zero value is not usable; construct
// with NewIndex. An Index is immutable after construction and safe for
// concurrent use.
type Index struct {
	task     model.TaskID
	numTasks int
	nodes    []node
	leaves   []int32 // leaf node per chain, in Enumerate order
	maxDepth int32
	cause    TruncationCause

	// Lazily built derived tables (see LCA, PathMasks, SharedTasks,
	// LeafSpan, Children and SubtreeMasks).
	liftOnce   sync.Once
	lift       [][]int32
	maskOnce   sync.Once
	shared     []model.TaskID // mask bit → task
	masks      []uint64
	maskStride int
	subOnce    sync.Once
	spanLo     []int32
	spanHi     []int32
	childStart []int32
	childList  []int32
	unionOnce  sync.Once
	sub        []uint64
	subStride  int
}

// NewIndex builds the trie of all chains that start at a source task of
// g and end at task, mirroring Enumerate's depth-first order (successors
// visited in ID order). maxChains ≤ 0 selects DefaultMaxChains; where
// Enumerate fails with ErrTooManyChains, NewIndex keeps the first
// maxChains chains and marks the index Truncated — callers that must
// not work on a partial chain set check Truncated instead of an error.
// A second budget, DefaultMaxNodes, bounds trie memory on graphs whose
// node count (not chain count) explodes; Cause distinguishes the two.
func NewIndex(g *model.Graph, task model.TaskID, maxChains int) *Index {
	return NewIndexStream(g, task, maxChains, nil)
}

// NewIndexStream is NewIndex with a per-node visitor: fn is invoked for
// every trie node immediately after it is appended (a node's parent is
// always visited before the node), so per-node tables — the backward
// WCBT/BCBT prefix sums of backward.TrieBounds — can be built in the
// same single pass instead of re-walking the finished trie. fn must not
// retain x's internals; x is still under construction.
func NewIndexStream(g *model.Graph, task model.TaskID, maxChains int, fn func(x *Index, n int32)) *Index {
	if maxChains <= 0 {
		maxChains = DefaultMaxChains
	}
	x := &Index{task: task, numTasks: g.NumTasks()}
	// Iterative DFS, children pushed in reverse predecessor order so
	// they pop in predecessor order: nodes are appended in exactly the
	// preorder the recursive formulation produced, and fleet-scale
	// chains (10^3+ tasks long) cannot overflow the goroutine stack.
	stack := []frame{{task: task, parent: -1}}
	for len(stack) > 0 {
		fr := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if len(x.nodes) >= DefaultMaxNodes {
			x.cause = TruncatedNodeBudget
			break
		}
		n := int32(len(x.nodes))
		depth := int32(1)
		if fr.parent >= 0 {
			depth = x.nodes[fr.parent].depth + 1
		}
		x.nodes = append(x.nodes, node{task: fr.task, parent: fr.parent, depth: depth})
		if fn != nil {
			fn(x, n)
		}
		preds := g.Predecessors(fr.task)
		if len(preds) == 0 {
			if len(x.leaves) >= maxChains {
				x.cause = TruncatedChainCap
				break
			}
			x.leaves = append(x.leaves, n)
			if depth > x.maxDepth {
				x.maxDepth = depth
			}
			continue
		}
		for k := len(preds) - 1; k >= 0; k-- {
			stack = append(stack, frame{task: preds[k], parent: n})
		}
	}
	chainsIndexed.Add(int64(len(x.leaves)))
	if x.cause != NotTruncated {
		chainsTruncated.Inc()
		if x.cause == TruncatedNodeBudget {
			chainsTruncatedNodes.Inc()
		}
	}
	return x
}

// Task returns the analyzed task (the trie root).
func (x *Index) Task() model.TaskID { return x.task }

// NumChains returns the number of chains (leaves).
func (x *Index) NumChains() int { return len(x.leaves) }

// NumNodes returns the number of trie nodes.
func (x *Index) NumNodes() int { return len(x.nodes) }

// Truncated reports whether the enumeration hit maxChains or the node
// budget: the index holds a prefix of the chains in Enumerate order and
// the analysis built on it covers only those.
func (x *Index) Truncated() bool { return x.cause != NotTruncated }

// Cause returns why the index is truncated (NotTruncated when it holds
// the full chain set).
func (x *Index) Cause() TruncationCause { return x.cause }

// MaxDepth returns the length of the longest chain.
func (x *Index) MaxDepth() int { return int(x.maxDepth) }

// Leaf returns the trie node of chain i.
func (x *Index) Leaf(i int) int32 { return x.leaves[i] }

// NodeTask returns the task of a trie node.
func (x *Index) NodeTask(n int32) model.TaskID { return x.nodes[n].task }

// NodeParent returns the parent of a trie node (-1 for the root).
func (x *Index) NodeParent(n int32) int32 { return x.nodes[n].parent }

// NodeDepth returns the number of tasks on the path node..root.
func (x *Index) NodeDepth(n int32) int32 { return x.nodes[n].depth }

// AppendChain appends chain i's tasks to dst in head→tail order and
// returns the extended slice. The parent walk from the leaf visits the
// tasks in exactly that order, so no reversal is needed.
func (x *Index) AppendChain(dst model.Chain, i int) model.Chain {
	for n := x.leaves[i]; n >= 0; n = x.nodes[n].parent {
		dst = append(dst, x.nodes[n].task)
	}
	return dst
}

// Chain materializes chain i as a fresh slice.
func (x *Index) Chain(i int) model.Chain {
	return x.AppendChain(make(model.Chain, 0, x.nodes[x.leaves[i]].depth), i)
}

// Chains materializes every chain, in Enumerate order with identical
// contents — the drop-in replacement for an Enumerate result.
func (x *Index) Chains() []model.Chain {
	out := make([]model.Chain, x.NumChains())
	for i := range out {
		out[i] = x.Chain(i)
	}
	return out
}

// ForEachChain invokes fn for every chain in Enumerate order, reusing
// one scratch buffer: fn must not retain c past the call. It stops
// early when fn returns false. This is the iteration path for callers
// that only inspect chains and don't need them to live on.
func (x *Index) ForEachChain(fn func(i int, c model.Chain) bool) {
	scratch := make(model.Chain, 0, x.maxDepth)
	for i := range x.leaves {
		scratch = x.AppendChain(scratch[:0], i)
		if !fn(i, scratch) {
			return
		}
	}
}

// LCA returns the lowest common ancestor of two trie nodes: the trie
// node of the two chains' last joint task, i.e. exactly the join point
// StripCommonSuffix reduces a pair to. Because the children of any node
// carry distinct tasks (a task's predecessors are distinct), the
// task-level common suffix of two chains diverges precisely below their
// node-level LCA. Cost is O(log depth) after a lazily built binary-
// lifting table.
func (x *Index) LCA(a, b int32) int32 {
	x.liftOnce.Do(x.buildLift)
	if x.nodes[a].depth < x.nodes[b].depth {
		a, b = b, a
	}
	// Lift a to b's depth. Depth here counts toward the root: deeper
	// node = longer chain; the root has depth 1.
	diff := x.nodes[a].depth - x.nodes[b].depth
	for k := 0; diff != 0; k++ {
		if diff&1 != 0 {
			a = x.lift[k][a]
		}
		diff >>= 1
	}
	if a == b {
		return a
	}
	for k := len(x.lift) - 1; k >= 0; k-- {
		if x.lift[k][a] != x.lift[k][b] {
			a, b = x.lift[k][a], x.lift[k][b]
		}
	}
	return x.nodes[a].parent
}

// buildLift fills the binary-lifting table: lift[k][n] is n's 2^k-th
// ancestor (the root maps to itself so lifting saturates harmlessly).
func (x *Index) buildLift() {
	levels := 1
	for d := int(x.maxDepth); d > 1; d >>= 1 {
		levels++
	}
	lift := make([][]int32, levels)
	up0 := make([]int32, len(x.nodes))
	for n := range x.nodes {
		if p := x.nodes[n].parent; p >= 0 {
			up0[n] = p
		} else {
			up0[n] = int32(n)
		}
	}
	lift[0] = up0
	for k := 1; k < levels; k++ {
		prev := lift[k-1]
		cur := make([]int32, len(x.nodes))
		for n := range cur {
			cur[n] = prev[prev[n]]
		}
		lift[k] = cur
	}
	x.lift = lift
}

// PathMasks returns a per-node bitset of the shared tasks on the path
// node..root as one flat table, and the table's word stride: node n's
// row is masks[n*stride : (n+1)*stride] (see internal/bitset), and bit
// b stands for task SharedTasks()[b]. A shared task is one that sits at
// two or more trie nodes; a task at a single node cannot lie on two
// chains below their join point, so leaving it out loses nothing:
// row(u) & row(w) &^ row(LCA(u,w)) == 0 still proves exactly that the
// two chains share no task below their join point — the c = 1 case of
// Theorem 2 — without walking either path. (A task on both chains
// strictly below their join f sits at a node in each of two disjoint
// subtrees of f, so it is shared.) The stride is
// bitset.Words(len(SharedTasks())), at least 1: up to 64 shared tasks
// fit one word, and with none shared every row is zero, so every pair
// tests c = 1.
//
// A table that would exceed MaskBudgetWords is not built: the call
// returns (nil, 0) and callers fall back to the decomposition walk.
func (x *Index) PathMasks() ([]uint64, int) {
	x.maskOnce.Do(x.buildMasks)
	return x.masks, x.maskStride
}

// SharedTasks returns the tasks that sit at two or more trie nodes, in
// ID order: the mask bit → task table of PathMasks and SubtreeMasks, so
// a task's bit is its position here. It is computed whether or not the
// masks fit MaskBudgetWords. The slice aliases an internal table and
// must not be mutated.
func (x *Index) SharedTasks() []model.TaskID {
	x.maskOnce.Do(x.buildMasks)
	return x.shared
}

// buildMasks numbers the shared tasks in ID order, counting each
// task's trie nodes (saturated at 2) in the slice that then holds its
// bit, and builds the path-mask table over them when it fits the
// budget.
func (x *Index) buildMasks() {
	bitOf := make([]int32, x.numTasks)
	numShared := 0
	for i := range x.nodes {
		if t := x.nodes[i].task; bitOf[t] < 2 {
			if bitOf[t]++; bitOf[t] == 2 {
				numShared++
			}
		}
	}
	shared := make([]model.TaskID, 0, numShared)
	for t, c := range bitOf {
		bitOf[t] = -1
		if c >= 2 {
			bitOf[t] = int32(len(shared))
			shared = append(shared, model.TaskID(t))
		}
	}
	x.shared = shared
	stride := max(bitset.Words(len(shared)), 1)
	if len(x.nodes) > MaskBudgetWords/stride {
		masksSkipped.Inc()
		return
	}
	flat := make([]uint64, len(x.nodes)*stride)
	for n := range x.nodes {
		row := flat[n*stride : (n+1)*stride]
		if p := x.nodes[n].parent; p >= 0 {
			copy(row, flat[int(p)*stride:])
		}
		if b := bitOf[x.nodes[n].task]; b >= 0 {
			bitset.Set(row, int(b))
		}
	}
	x.masks, x.maskStride = flat, stride
	if stride == 1 {
		masksWord.Inc()
	} else {
		masksMulti.Inc()
	}
}

// buildSubtree fills the leaf-span and children tables in two linear
// passes over the preorder node array. Preorder construction makes
// every subtree a contiguous node range, so its leaves are a contiguous
// range of the Enumerate-ordered leaf list: seed each leaf node with
// its own chain index, then fold children into parents in reverse
// preorder (every child has a higher index than its parent). A node
// whose subtree holds no leaf — possible only when construction was
// truncated mid-DFS — keeps the empty sentinel lo ≥ hi.
func (x *Index) buildSubtree() {
	n := len(x.nodes)
	if n == 0 {
		x.childStart = make([]int32, 1)
		return
	}
	x.spanLo = make([]int32, n)
	x.spanHi = make([]int32, n)
	for i := range x.spanLo {
		x.spanLo[i] = int32(len(x.leaves))
	}
	for i, l := range x.leaves {
		x.spanLo[l] = int32(i)
		x.spanHi[l] = int32(i + 1)
	}
	for c := n - 1; c >= 1; c-- {
		p := x.nodes[c].parent
		if x.spanLo[c] < x.spanLo[p] {
			x.spanLo[p] = x.spanLo[c]
		}
		if x.spanHi[c] > x.spanHi[p] {
			x.spanHi[p] = x.spanHi[c]
		}
	}
	// Children as one CSR table, counting-sorted by parent. Filling in
	// increasing node index keeps each list in preorder, which is the
	// predecessor order the DFS pushed them in.
	x.childStart = make([]int32, n+1)
	for c := 1; c < n; c++ {
		x.childStart[x.nodes[c].parent+1]++
	}
	for i := 1; i <= n; i++ {
		x.childStart[i] += x.childStart[i-1]
	}
	x.childList = make([]int32, n-1)
	next := make([]int32, n)
	copy(next, x.childStart[:n])
	for c := 1; c < n; c++ {
		p := x.nodes[c].parent
		x.childList[next[p]] = int32(c)
		next[p]++
	}
}

// LeafSpan returns the half-open chain-index interval [lo, hi) of the
// leaves in node n's subtree: exactly the chains whose path to the root
// passes through n, contiguous in Enumerate order because the trie is
// built in preorder. lo ≥ hi marks an empty subtree (possible only on
// truncated indexes).
func (x *Index) LeafSpan(n int32) (lo, hi int32) {
	x.subOnce.Do(x.buildSubtree)
	return x.spanLo[n], x.spanHi[n]
}

// Children returns node n's trie children in predecessor order (the
// preorder child order, matching Enumerate's DFS). The slice aliases an
// internal table and must not be mutated.
func (x *Index) Children(n int32) []int32 {
	x.subOnce.Do(x.buildSubtree)
	return x.childList[x.childStart[n]:x.childStart[n+1]]
}

// SubtreeMasks returns a per-node bitset of every shared task on any
// leaf→root path through the node — the union of PathMasks rows over
// the node's leaf range — as a flat table with PathMasks' stride and
// bits. The subtree-level c = 1 proof of the pair analysis uses it:
// union(p) & union(q) &^ row(f) == 0 certifies that no pair of chains
// drawn from the two subtrees shares a task strictly below their join
// node f (such a task sits in both subtrees, so it is shared). Returns
// (nil, 0) when PathMasks was skipped (table over MaskBudgetWords);
// empty subtrees hold all-zero rows.
func (x *Index) SubtreeMasks() ([]uint64, int) {
	x.unionOnce.Do(func() {
		masks, stride := x.PathMasks()
		if masks == nil {
			return
		}
		flat := make([]uint64, len(x.nodes)*stride)
		for _, l := range x.leaves {
			copy(flat[int(l)*stride:(int(l)+1)*stride], masks[int(l)*stride:(int(l)+1)*stride])
		}
		for c := len(x.nodes) - 1; c >= 1; c-- {
			p := int(x.nodes[c].parent)
			row := flat[c*stride : (c+1)*stride]
			prow := flat[p*stride : (p+1)*stride]
			for w := range row {
				prow[w] |= row[w]
			}
		}
		x.sub, x.subStride = flat, stride
	})
	return x.sub, x.subStride
}
