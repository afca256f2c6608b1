package constraints

import (
	"math/bits"
	"slices"

	"repro/internal/ir"
	"repro/internal/symexec"
)

// MaxExtensionStates caps the search states one ExtensionSearch.Search
// call may expand beyond the one state per SAP its first descent takes.
// Over the cap the answer is ExtUndecided: the bounded check stays exact
// whenever it answers, and a solver that meets an undecided model must not
// count its exhaustion as a proof.
const MaxExtensionStates = 2000

// ExtVerdict is the answer of a bounded extension search.
type ExtVerdict uint8

// Extension search verdicts.
const (
	// ExtFound: a linear extension within the bound exists; Search
	// returns the one with the fewest preemptions it reached.
	ExtFound ExtVerdict = iota
	// ExtNone: the search was exhaustive and no linear extension has at
	// most bound preemptions.
	ExtNone
	// ExtUndecided: the state cap was hit before either answer.
	ExtUndecided
)

// preemptTable is the per-system dense index behind the preemption rule:
// each SAP's mutex and condition-variable slot (-1 when it names none),
// its position in its thread, and the thread position the extension
// search may scan up to from it.
type preemptTable struct {
	preds  [][]SAPRef
	mutex  []int32
	cond   []int32
	pos    []int32
	nMutex int
	nCond  int
	// scanEnd[r] is a position of r's thread from which every later SAP
	// depends on r through same-thread hard edges: while r is unscheduled
	// no SAP at or past it can run.
	scanEnd []int32
}

// preemptTable returns the system's cached table, built on first use.
func (sys *System) preemptTable() *preemptTable {
	preds := sys.hardPredsTable()
	c := &sys.scratch
	c.predsMu.Lock()
	defer c.predsMu.Unlock()
	if c.preempt != nil && c.preemptEdges == len(sys.HardEdges) {
		return c.preempt
	}
	n := len(sys.SAPs)
	tab := &preemptTable{
		preds:   preds,
		mutex:   make([]int32, n),
		cond:    make([]int32, n),
		pos:     make([]int32, n),
		scanEnd: make([]int32, n),
	}
	mutexSlot := map[ir.SyncID]int32{}
	condSlot := map[ir.SyncID]int32{}
	slot := func(m map[ir.SyncID]int32, id ir.SyncID) int32 {
		s, ok := m[id]
		if !ok {
			s = int32(len(m))
			m[id] = s
		}
		return s
	}
	for r, s := range sys.SAPs {
		tab.mutex[r], tab.cond[r] = -1, -1
		switch s.Kind {
		case symexec.SAPLock, symexec.SAPUnlock, symexec.SAPWaitBegin:
			tab.mutex[r] = slot(mutexSlot, s.Mutex)
		case symexec.SAPWaitEnd:
			tab.mutex[r] = slot(mutexSlot, s.Mutex)
			tab.cond[r] = slot(condSlot, s.Cond)
		case symexec.SAPSignal, symexec.SAPBroadcast:
			tab.cond[r] = slot(condSlot, s.Cond)
		}
	}
	tab.nMutex, tab.nCond = len(mutexSlot), len(condSlot)
	for _, refs := range sys.Threads {
		for k, r := range refs {
			tab.pos[r] = int32(k)
		}
	}
	var anc, unset []uint64
	for _, refs := range sys.Threads {
		anc, unset = tab.fillScanEnd(sys, refs, anc, unset)
	}
	c.preempt, c.preemptEdges = tab, len(sys.HardEdges)
	return tab
}

// fillScanEnd sets scanEnd for one thread's SAPs. anc[j] is the set of
// earlier positions position j depends on through same-thread hard edges
// (cross-thread paths are ignored, which only makes the bound looser);
// scanEnd of position k is one past the last later position that does not
// depend on k. anc and unset are reusable bitset scratch.
func (tab *preemptTable) fillScanEnd(sys *System, refs []SAPRef, anc, unset []uint64) ([]uint64, []uint64) {
	l := len(refs)
	words := (l + 63) / 64
	anc = resize(anc, l*words)
	for j, r := range refs {
		row := anc[j*words : (j+1)*words]
		for _, p := range tab.preds[r] {
			if sys.SAPs[p].Thread != sys.SAPs[r].Thread {
				continue
			}
			k := int(tab.pos[p])
			row[k>>6] |= 1 << (uint(k) & 63)
			for w, a := range anc[k*words : (k+1)*words] {
				row[w] |= a
			}
		}
	}
	// unset holds the positions whose scan end is still open; walking j
	// downward, every open k < j that j does not depend on ends at j+1.
	unset = resize(unset, words)
	for k := 0; k < l; k++ {
		unset[k>>6] |= 1 << (uint(k) & 63)
		tab.scanEnd[refs[k]] = int32(k + 1)
	}
	for j := l - 1; j > 0; j-- {
		row := anc[j*words : (j+1)*words]
		for w := 0; w <= (j-1)>>6; w++ {
			mask := ^uint64(0)
			if hi := j - w*64; hi < 64 {
				mask = 1<<uint(hi) - 1 // only positions k < j
			}
			open := unset[w] &^ row[w] & mask
			unset[w] &^= open
			for open != 0 {
				b := bits.TrailingZeros64(open)
				open &= open - 1
				tab.scanEnd[refs[w*64+b]] = int32(j + 1)
			}
		}
	}
	return anc, unset
}

// preemptState is the replay-level state the preemption rule reads: which
// SAPs ran, each thread's first unscheduled position, which mutexes are
// held and how many signals and broadcasts each condition variable saw.
// CountSwitches replays it forward over one order; ExtensionSearch
// applies and undoes it along its search paths.
type preemptState struct {
	scheduled       []bool
	next            []int32
	lockHeld        []bool
	signalsSeen     []int32
	broadcastsSeen  []int32
	signalsConsumed []int32
}

func (p *preemptState) reset(sys *System, tab *preemptTable) {
	p.scheduled = resize(p.scheduled, len(sys.SAPs))
	p.next = resize(p.next, len(sys.Threads))
	p.lockHeld = resize(p.lockHeld, tab.nMutex)
	p.signalsSeen = resize(p.signalsSeen, tab.nCond)
	p.broadcastsSeen = resize(p.broadcastsSeen, tab.nCond)
	p.signalsConsumed = resize(p.signalsConsumed, tab.nCond)
}

// resize returns s with length n and every element zero, reusing its
// backing array when large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// ready is the one definition of "thread t could continue" behind every
// preemption count: some unscheduled SAP of t has all its hard order
// predecessors scheduled and is not a lock acquisition on a held mutex or
// a wake without a pending signal or any broadcast. A switch away from a
// ready thread is a preemption; a switch away from a finished or blocked
// one is forced (§4.2).
func (p *preemptState) ready(sys *System, tab *preemptTable, t int) bool {
	refs := sys.Threads[t]
	for k := int(p.next[t]); k < len(refs); k++ {
		r := refs[k]
		if p.scheduled[r] {
			continue
		}
		ok := true
		for _, q := range tab.preds[r] {
			if !p.scheduled[q] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		switch sys.SAPs[r].Kind {
		case symexec.SAPLock:
			if p.lockHeld[tab.mutex[r]] {
				continue
			}
		case symexec.SAPWaitEnd:
			if p.lockHeld[tab.mutex[r]] {
				continue
			}
			// Approximate eligibility: an unconsumed signal or any
			// broadcast must exist.
			c := tab.cond[r]
			if p.signalsConsumed[c] >= p.signalsSeen[c] && p.broadcastsSeen[c] == 0 {
				continue
			}
		}
		return true
	}
	return false
}

// apply marks r scheduled and updates the lock and signal state. It
// returns the previous held state of r's mutex, which undo restores.
func (p *preemptState) apply(sys *System, tab *preemptTable, r SAPRef) (prevHeld bool) {
	s := sys.SAPs[r]
	p.scheduled[r] = true
	if m := tab.mutex[r]; m >= 0 {
		prevHeld = p.lockHeld[m]
	}
	switch s.Kind {
	case symexec.SAPLock:
		p.lockHeld[tab.mutex[r]] = true
	case symexec.SAPUnlock, symexec.SAPWaitBegin:
		p.lockHeld[tab.mutex[r]] = false
	case symexec.SAPWaitEnd:
		p.lockHeld[tab.mutex[r]] = true
		p.signalsConsumed[tab.cond[r]]++
	case symexec.SAPSignal:
		p.signalsSeen[tab.cond[r]]++
	case symexec.SAPBroadcast:
		p.broadcastsSeen[tab.cond[r]]++
	}
	refs := sys.Threads[s.Thread]
	for int(p.next[s.Thread]) < len(refs) && p.scheduled[refs[p.next[s.Thread]]] {
		p.next[s.Thread]++
	}
	return prevHeld
}

// undo reverts apply(r), given the mutex state apply returned.
func (p *preemptState) undo(sys *System, tab *preemptTable, r SAPRef, prevHeld bool) {
	s := sys.SAPs[r]
	p.scheduled[r] = false
	if m := tab.mutex[r]; m >= 0 {
		p.lockHeld[m] = prevHeld
	}
	switch s.Kind {
	case symexec.SAPWaitEnd:
		p.signalsConsumed[tab.cond[r]]--
	case symexec.SAPSignal:
		p.signalsSeen[tab.cond[r]]--
	case symexec.SAPBroadcast:
		p.broadcastsSeen[tab.cond[r]]--
	}
	if k := tab.pos[r]; k < p.next[s.Thread] {
		p.next[s.Thread] = k
	}
}

// ExtensionSearch is the exact bounded preemption check: does some linear
// extension of an order DAG (the added edges plus the system's hard
// edges) have at most k preemptions, counted by the same rule as
// CountSwitches? It is a depth-first search over (scheduled set, running
// thread) states that tries staying on the running thread first, prunes
// by the best count found so far, and memoises for each state the largest
// remaining budget known to fail. The lock state is part of the memo key,
// so the answer is exact for any DAG, including ones that do not
// serialise lock regions. The zero value is ready to use; the scratch
// (edge lists, memo) is reused across calls, so one search per solver
// session allocates only while it grows.
type ExtensionSearch struct {
	sys *System
	tab *preemptTable
	st  preemptState

	from, to []SAPRef
	// adj[off[r]:off[r+1]] are r's successors; indeg counts each SAP's
	// unscheduled predecessors.
	off   []int32
	adj   []SAPRef
	indeg []int32
	fill  []int32
	// eid[k] is the AddEdge index of adjacency entry k, -1 for a hard edge.
	eid []int32

	blame bool // Core's replay: the search marks edges in core
	core  []bool
	inOff []int32 // in[inOff[r]:inOff[r+1]] are the added edges into r
	in    []int32

	// Implied's scratch (rank also serves Core).
	implied []bool
	rank    []int32
	topo    []SAPRef
	reach   []uint64
	covered []uint64
	succ    []int32

	order, best []SAPRef
	bestCost    int
	states      int
	limit       int
	aborted     bool
	cands       []SAPRef

	// The memo key hashes the scheduled set, the held mutexes and the
	// running thread (Zobrist); entries keep the exact state in arena so a
	// hash collision never merges two states.
	zsap, zlock, zcur []uint64
	hash              uint64
	bits              []uint64
	schedWords        int
	slots             []int32
	slotGen           []uint32
	gen               uint32
	entries           []memoEntry
	arena             []uint64
}

// memoEntry is one memoised state: no completion from it has at most rem
// more preemptions. off locates the state's words in arena.
type memoEntry struct {
	key           uint64
	cur, rem, off int32
}

// resetMemo empties the memo table, sized for at least states entries at
// most half full; bumping the generation clears it without a sweep.
func (x *ExtensionSearch) resetMemo(states int) {
	size := 1024
	for size < 2*states {
		size *= 2
	}
	if len(x.slots) < size {
		x.slots = make([]int32, size)
		x.slotGen = make([]uint32, size)
		x.gen = 0
	}
	x.gen++
	if x.gen == 0 { // wrapped: stale stamps could read as live
		clear(x.slotGen)
		x.gen = 1
	}
}

// Reset starts a new DAG over sys's SAPs with no edges beyond the hard
// edges.
func (x *ExtensionSearch) Reset(sys *System) {
	x.sys = sys
	x.tab = sys.preemptTable()
	x.from, x.to = x.from[:0], x.to[:0]
}

// AddEdge adds the order requirement a before b.
func (x *ExtensionSearch) AddEdge(a, b SAPRef) {
	x.from = append(x.from, a)
	x.to = append(x.to, b)
}

// Search answers the bounded check for the edges added since Reset. On
// ExtFound it returns the fewest-preemption linear extension it reached
// (at most bound, and minimal over the DAG unless the state cap cut the
// improvement short) with its CountSwitches preemption count; the order
// aliases the search's scratch and is valid until the next call.
func (x *ExtensionSearch) Search(bound int) ([]SAPRef, int, ExtVerdict) {
	sys := x.sys
	n := len(sys.SAPs)
	bound = min(bound, n)
	x.buildDAG()
	x.st.reset(sys, x.tab)
	x.schedWords = (n + 63) / 64
	x.bits = resize(x.bits, x.schedWords+(x.tab.nMutex+63)/64)
	x.zsap = zobrist(x.zsap, n, 1)
	x.zlock = zobrist(x.zlock, x.tab.nMutex, 2)
	x.zcur = zobrist(x.zcur, len(sys.Threads)+1, 3)
	x.hash = 0
	x.resetMemo(MaxExtensionStates + n)
	x.entries, x.arena = x.entries[:0], x.arena[:0]
	x.order = x.order[:0]
	x.bestCost, x.states, x.limit, x.aborted = bound+1, 0, MaxExtensionStates+n, false
	x.dfs(-1, 0)
	switch {
	case x.bestCost <= bound:
		return x.best, x.bestCost, ExtFound
	case x.aborted:
		return nil, -1, ExtUndecided
	}
	return nil, -1, ExtNone
}

// buildDAG lays the added edges and the hard edges out as adjacency lists.
func (x *ExtensionSearch) buildDAG() {
	n := len(x.sys.SAPs)
	x.off = resize(x.off, n+1)
	x.indeg = resize(x.indeg, n)
	count := func(a, b SAPRef) {
		x.off[a+1]++
		x.indeg[b]++
	}
	for i := range x.from {
		count(x.from[i], x.to[i])
	}
	for _, e := range x.sys.HardEdges {
		count(e[0], e[1])
	}
	for i := 0; i < n; i++ {
		x.off[i+1] += x.off[i]
	}
	x.adj = resize(x.adj, int(x.off[n]))
	x.eid = resize(x.eid, int(x.off[n]))
	x.fill = resize(x.fill, n)
	place := func(a, b SAPRef, id int32) {
		k := x.off[a] + x.fill[a]
		x.adj[k], x.eid[k] = b, id
		x.fill[a]++
	}
	for _, e := range x.sys.HardEdges {
		place(e[0], e[1], -1)
	}
	for i := range x.from {
		place(x.from[i], x.to[i], int32(i))
	}
}

// Core reports, per added edge, whether it is in a subset that with the
// hard edges has no extension within bound, for a DAG Search(bound) refuted.
// The search reads a DAG only through which scanned SAPs have in-degree 0,
// so Core replays it and keeps one in-edge from an unscheduled SAP per
// blocked candidate: the subset's search visits the same states and
// refutes every DAG containing the subset.
func (x *ExtensionSearch) Core(bound int) []bool {
	x.buildDAG()
	x.topoRank()
	x.inOff = resize(x.inOff, len(x.indeg)+1)
	for _, b := range x.to {
		x.inOff[b]++
	}
	for i := range x.indeg {
		x.inOff[i+1] += x.inOff[i]
	}
	x.in = resize(x.in, len(x.to))
	for i := len(x.to) - 1; i >= 0; i-- { // inOff[r] walks back to r's start
		x.inOff[x.to[i]]--
		x.in[x.inOff[x.to[i]]] = int32(i)
	}
	x.core = resize(x.core, len(x.from))
	x.blame = true
	x.Search(bound)
	x.blame = false
	return x.core
}

// blameEdge keeps the blocked candidate r blocked in the core: it already is
// if a hard predecessor or marked in-edge's source has not run; else it
// marks the added in-edge whose unscheduled source is latest in Kahn order.
func (x *ExtensionSearch) blameEdge(r SAPRef) {
	for _, q := range x.tab.preds[r] {
		if !x.st.scheduled[q] {
			return
		}
	}
	pick := int32(-1)
	for _, id := range x.in[x.inOff[r]:x.inOff[r+1]] {
		a := x.from[id]
		switch {
		case x.st.scheduled[a]:
		case x.core[id]:
			return
		case pick < 0 || x.rank[a] > x.rank[x.from[pick]]:
			pick = id
		}
	}
	x.core[pick] = true
}

// Implied reports, for each edge added since Reset (in AddEdge order),
// whether the hard edges and the other added edges already imply it: the
// edges it does not mark are a transitive reduction of the DAG, which has
// the same linear extensions. A cyclic DAG marks nothing.
func (x *ExtensionSearch) Implied() []bool {
	x.buildDAG()
	n := len(x.sys.SAPs)
	x.implied = resize(x.implied, len(x.from))
	if !x.topoRank() {
		return x.implied
	}
	// reach[u] is the set of nodes u reaches, itself included, built in
	// reverse topological order.
	words := (n + 63) / 64
	x.reach = resize(x.reach, n*words)
	row := func(u SAPRef) []uint64 { return x.reach[int(u)*words : (int(u)+1)*words] }
	for i := n - 1; i >= 0; i-- {
		u := x.topo[i]
		ru := row(u)
		ru[u>>6] |= 1 << (uint(u) & 63)
		for _, v := range x.adj[x.off[u]:x.off[u+1]] {
			for w, word := range row(v) {
				ru[w] |= word
			}
		}
	}
	// An edge u→v is implied when a successor of u earlier in topological
	// order reaches v; a hard edge is listed first, so a duplicate added
	// edge is the implied one.
	x.covered = resize(x.covered, words)
	for u := 0; u < n; u++ {
		ks := x.succ[:0]
		for k := x.off[u]; k < x.off[u+1]; k++ {
			ks = append(ks, k)
		}
		slices.SortStableFunc(ks, func(a, b int32) int { return int(x.rank[x.adj[a]] - x.rank[x.adj[b]]) })
		clear(x.covered)
		for _, k := range ks {
			v := x.adj[k]
			if x.covered[v>>6]&(1<<(uint(v)&63)) != 0 {
				if id := x.eid[k]; id >= 0 {
					x.implied[id] = true
				}
				continue
			}
			for w, word := range row(v) {
				x.covered[w] |= word
			}
		}
		x.succ = ks
	}
	return x.implied
}

// topoRank ranks buildDAG's DAG in Kahn order (topo) and reports acyclicity.
func (x *ExtensionSearch) topoRank() bool {
	n := len(x.sys.SAPs)
	x.rank = resize(x.rank, n)
	x.topo = x.topo[:0]
	deg := x.fill // buildDAG is done with it
	copy(deg, x.indeg)
	for r := 0; r < n; r++ {
		if deg[r] == 0 {
			x.topo = append(x.topo, SAPRef(r))
		}
	}
	for i := 0; i < len(x.topo); i++ {
		u := x.topo[i]
		x.rank[u] = int32(i)
		for _, v := range x.adj[x.off[u]:x.off[u+1]] {
			if deg[v]--; deg[v] == 0 {
				x.topo = append(x.topo, v)
			}
		}
	}
	return len(x.topo) == n
}

// zobrist extends keys to n pseudo-random 64-bit values (splitmix64 of
// the index and a per-use salt); the values depend only on the index, so
// a grown table keeps its prefix.
func zobrist(keys []uint64, n int, salt uint64) []uint64 {
	for i := len(keys); i < n; i++ {
		z := uint64(i)*0x9e3779b97f4a7c15 + salt*0xbf58476d1ce4e5b9
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		keys = append(keys, z^(z>>31))
	}
	return keys
}

// dfs extends the current prefix; cur is the running thread (-1 before
// the first step) and cost the preemptions spent so far.
func (x *ExtensionSearch) dfs(cur, cost int) {
	sys := x.sys
	if len(x.order) == len(sys.SAPs) {
		if cost < x.bestCost {
			x.bestCost = cost
			x.best = append(x.best[:0], x.order...)
		}
		return
	}
	if x.bestCost-1-cost < 0 {
		return
	}
	key := x.hash ^ x.zcur[cur+1]
	if e := x.lookup(key, cur); e >= 0 && x.entries[e].rem >= int32(x.bestCost-1-cost) {
		return
	}
	if x.states == x.limit {
		x.aborted = true
		return
	}
	x.states++
	base := len(x.cands)
	if cur >= 0 {
		x.available(cur)
	}
	stay := len(x.cands)
	for t := range sys.Threads {
		if t != cur {
			x.available(t)
		}
	}
	for t := 0; x.blame && t < len(sys.Threads); t++ {
		for _, r := range x.scan(t) {
			if !x.st.scheduled[r] && x.indeg[r] > 0 {
				x.blameEdge(r)
			}
		}
	}
	switchCost := 0
	if cur >= 0 && x.st.ready(sys, x.tab, cur) {
		switchCost = 1
	}
	for i := base; i < len(x.cands); i++ {
		r := x.cands[i]
		c := cost
		if i >= stay {
			c += switchCost
		}
		if c >= x.bestCost {
			continue
		}
		held := x.step(r)
		x.dfs(int(sys.SAPs[r].Thread), c)
		x.unstep(r, held)
		if x.aborted || x.bestCost == 0 {
			break
		}
	}
	x.cands = x.cands[:base]
	if x.aborted || x.bestCost == 0 {
		return
	}
	// Every child was searched with at least the budget left now, so no
	// completion from here spends at most that many more preemptions.
	if rem := x.bestCost - 1 - cost; rem >= 0 {
		x.store(key, cur, int32(rem))
	}
}

// scan returns thread t's SAPs from its first unscheduled one to its scan end.
func (x *ExtensionSearch) scan(t int) []SAPRef {
	refs := x.sys.Threads[t]
	if k := x.st.next[t]; int(k) < len(refs) {
		return refs[k:x.tab.scanEnd[refs[k]]]
	}
	return nil
}

// available appends thread t's SAPs whose predecessors have all run.
func (x *ExtensionSearch) available(t int) {
	for _, r := range x.scan(t) {
		if !x.st.scheduled[r] && x.indeg[r] == 0 {
			x.cands = append(x.cands, r)
		}
	}
}

// step schedules r, keeping the memo key in step with the state.
func (x *ExtensionSearch) step(r SAPRef) bool {
	held := x.st.apply(x.sys, x.tab, r)
	x.order = append(x.order, r)
	for _, b := range x.adj[x.off[r]:x.off[r+1]] {
		x.indeg[b]--
	}
	x.flipSAP(r)
	if m := x.tab.mutex[r]; m >= 0 && x.st.lockHeld[m] != held {
		x.flipLock(m)
	}
	return held
}

// unstep reverts step(r).
func (x *ExtensionSearch) unstep(r SAPRef, held bool) {
	if m := x.tab.mutex[r]; m >= 0 && x.st.lockHeld[m] != held {
		x.flipLock(m)
	}
	x.flipSAP(r)
	for _, b := range x.adj[x.off[r]:x.off[r+1]] {
		x.indeg[b]++
	}
	x.order = x.order[:len(x.order)-1]
	x.st.undo(x.sys, x.tab, r, held)
}

func (x *ExtensionSearch) flipSAP(r SAPRef) {
	x.hash ^= x.zsap[r]
	x.bits[r>>6] ^= 1 << (uint(r) & 63)
}

func (x *ExtensionSearch) flipLock(m int32) {
	x.hash ^= x.zlock[m]
	x.bits[x.schedWords+int(m>>6)] ^= 1 << (uint(m) & 63)
}

// lookup returns the memo entry of the current state, or -1. The table
// is open-addressed by the state hash with linear probing; a slot is live
// when its generation matches the current search's.
func (x *ExtensionSearch) lookup(key uint64, cur int) int32 {
	mask := uint64(len(x.slots) - 1)
	w := int32(len(x.bits))
	for i := key & mask; x.slotGen[i] == x.gen; i = (i + 1) & mask {
		e := x.slots[i]
		en := &x.entries[e]
		if en.key == key && int(en.cur) == cur && equalWords(x.arena[en.off:en.off+w], x.bits) {
			return e
		}
	}
	return -1
}

// store records that the current state fails with rem more preemptions.
func (x *ExtensionSearch) store(key uint64, cur int, rem int32) {
	if e := x.lookup(key, cur); e >= 0 {
		x.entries[e].rem = max(x.entries[e].rem, rem)
		return
	}
	mask := uint64(len(x.slots) - 1)
	i := key & mask
	for x.slotGen[i] == x.gen {
		i = (i + 1) & mask
	}
	x.slotGen[i], x.slots[i] = x.gen, int32(len(x.entries))
	x.entries = append(x.entries, memoEntry{key: key, cur: int32(cur), rem: rem, off: int32(len(x.arena))})
	x.arena = append(x.arena, x.bits...)
}

func equalWords(a, b []uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
