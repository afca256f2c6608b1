package vm

// bufEntry is one pending store.
type bufEntry struct {
	addr int
	val  int64
}

// storeBuffer simulates the write buffers of TSO and PSO.
//
// Under TSO a thread has a single FIFO buffer: stores drain to memory in
// issue order, but loads (including other threads') can overtake them —
// the classic W→R reordering that breaks Dekker-style mutual exclusion.
//
// Under PSO each address effectively has its own FIFO buffer: stores to
// different addresses may drain out of order (additional W→W reordering),
// which is the reordering Figure 2 (right) of the paper exploits.
//
// A thread's own loads snoop the buffer (store-to-load forwarding), so a
// thread always sees its own latest store.
type storeBuffer struct {
	model MemModel
	// entries is the pending-store queue in issue order. For TSO only the
	// head may drain; for PSO the oldest entry per address may drain.
	entries []bufEntry
}

func newStoreBuffer(model MemModel) *storeBuffer {
	return &storeBuffer{model: model}
}

// push enqueues a store.
func (b *storeBuffer) push(addr int, val int64) {
	b.entries = append(b.entries, bufEntry{addr: addr, val: val})
}

// lookup returns the youngest pending store to addr, if any (forwarding).
func (b *storeBuffer) lookup(addr int) (int64, bool) {
	for i := len(b.entries) - 1; i >= 0; i-- {
		if b.entries[i].addr == addr {
			return b.entries[i].val, true
		}
	}
	return 0, false
}

// appendDrains appends t's enabled drain actions to acts, one per address
// whose oldest pending store may drain next, in ascending address order.
// TSO: only the head entry's address. PSO: the oldest entry of every
// address.
func (b *storeBuffer) appendDrains(acts []Action, t ThreadID) []Action {
	if len(b.entries) == 0 {
		return acts
	}
	if b.model == TSO {
		return append(acts, Action{Kind: ActDrain, Thread: t, Addr: b.entries[0].addr})
	}
	// Insert each distinct address into its sorted place in the appended
	// tail: buffers hold a handful of stores, so this beats a sort and
	// allocates nothing once acts has grown.
	start := len(acts)
	for _, e := range b.entries {
		i := len(acts)
		for i > start && acts[i-1].Addr > e.addr {
			i--
		}
		if i > start && acts[i-1].Addr == e.addr {
			continue
		}
		acts = append(acts, Action{})
		copy(acts[i+1:], acts[i:])
		acts[i] = Action{Kind: ActDrain, Thread: t, Addr: e.addr}
	}
	return acts
}

// drain makes the oldest pending store to addr visible in mem and removes
// it. It reports the drained value and whether a store existed.
func (b *storeBuffer) drain(addr int, mem []int64) (int64, bool) {
	if b.model == TSO {
		if len(b.entries) == 0 || b.entries[0].addr != addr {
			return 0, false
		}
		v := b.entries[0].val
		mem[addr] = v
		b.entries = b.entries[1:]
		return v, true
	}
	for i, e := range b.entries {
		if e.addr == addr {
			mem[addr] = e.val
			b.entries = append(b.entries[:i], b.entries[i+1:]...)
			return e.val, true
		}
	}
	return 0, false
}

// drainAll flushes every pending store in issue order (a full fence).
func (b *storeBuffer) drainAll(mem []int64) {
	for _, e := range b.entries {
		mem[e.addr] = e.val
	}
	b.entries = b.entries[:0]
}

// empty reports whether no stores are pending.
func (b *storeBuffer) empty() bool { return len(b.entries) == 0 }

// pending returns the number of buffered stores.
func (b *storeBuffer) pending() int { return len(b.entries) }
