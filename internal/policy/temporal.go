package policy

import (
	"fmt"
	"sort"

	"herqules/internal/ipc"
)

// maxTombstones bounds the dead-region history Temporal keeps for
// use-after-free attribution. Past the cap the oldest generations are
// evicted; a UAF against an evicted region then reports as an access outside
// any known allocation rather than by generation, but memory stays bounded
// for arbitrarily long-running processes.
const maxTombstones = 4096

// Temporal is the temporal half of the §4.2 memory-safety sketch: instead of
// only tracking which intervals are live (MemSafety), it remembers *freed*
// allocations as dead generations. An access landing in a dead region is a
// use-after-free; a destroy of a dead region is a double free — each
// attributed to the allocation generation it hit. The two policies are
// complementary: MemSafety answers "is this address inside something live?",
// Temporal answers "is this address inside something that used to be live?",
// which is the difference between flagging an out-of-bounds access and
// proving a dangling pointer.
type Temporal struct {
	Hooks
	// regions is sorted by base and non-overlapping; both live and dead
	// (tombstoned) allocations live here so one binary search answers both
	// questions.
	regions []tregion
	// gen numbers allocations in creation order; violation reasons cite it.
	gen        uint64
	live       int
	maxEntries int
}

type tregion struct {
	base, size uint64
	gen        uint64
	dead       bool
}

// NewTemporal creates an empty temporal-safety context.
func NewTemporal() *Temporal {
	return &Temporal{}
}

// Name implements Policy.
func (t *Temporal) Name() string { return "temporal" }

// Entries implements Policy, counting live allocations (tombstones are
// bookkeeping, not program state).
func (t *Temporal) Entries() int { return t.live }

// MaxEntries reports the high-water mark of live allocations.
func (t *Temporal) MaxEntries() int { return t.maxEntries }

// Clone implements Policy.
func (t *Temporal) Clone() Policy {
	n := NewTemporal()
	n.regions = append([]tregion(nil), t.regions...)
	n.gen = t.gen
	n.live = t.live
	n.maxEntries = t.maxEntries
	return n
}

// Ops implements Policy.
func (t *Temporal) Ops() ipc.OpSet { return allocOps }

// Handle implements Policy over the §4.2 allocation message set.
func (t *Temporal) Handle(m ipc.Message) *Violation {
	switch m.Op {
	case ipc.OpAllocCreate:
		return t.create(m, m.Arg1, m.Arg2)
	case ipc.OpAllocCheck:
		return t.check(m, m.Arg1)
	case ipc.OpAllocCheckBase:
		if v := t.check(m, m.Arg1); v != nil {
			return v
		}
		return t.check(m, m.Arg2)
	case ipc.OpAllocExtend:
		if v := t.destroy(m, m.Arg1); v != nil {
			return v
		}
		return t.create(m, m.Arg2, m.Arg3)
	case ipc.OpAllocDestroy:
		return t.destroy(m, m.Arg1)
	case ipc.OpAllocDestroyAll:
		return t.destroyAll(m, m.Arg1, m.Arg2)
	}
	return nil
}

// find returns the index of the region containing addr, live or dead.
func (t *Temporal) find(addr uint64) (int, bool) {
	i := sort.Search(len(t.regions), func(i int) bool {
		return t.regions[i].base+t.regions[i].size > addr
	})
	if i < len(t.regions) && t.regions[i].base <= addr {
		return i, true
	}
	return 0, false
}

func (t *Temporal) create(m ipc.Message, base, size uint64) *Violation {
	if size == 0 {
		size = 1
	}
	// The allocator reusing freed address space is normal: evict any dead
	// regions the new allocation overlaps. Overlapping a *live* region is a
	// runtime-integrity violation (a corrupted allocator or forged message).
	i := sort.Search(len(t.regions), func(i int) bool {
		return t.regions[i].base+t.regions[i].size > base
	})
	for i < len(t.regions) && t.regions[i].base < base+size {
		if !t.regions[i].dead {
			return &Violation{PID: m.PID, Op: m.Op, Addr: base, Value: size,
				Reason: fmt.Sprintf("allocation overlaps live generation #%d", t.regions[i].gen)}
		}
		t.regions = append(t.regions[:i], t.regions[i+1:]...)
	}
	t.gen++
	t.regions = append(t.regions, tregion{})
	copy(t.regions[i+1:], t.regions[i:])
	t.regions[i] = tregion{base: base, size: size, gen: t.gen}
	t.live++
	if t.live > t.maxEntries {
		t.maxEntries = t.live
	}
	t.evictTombstones()
	return nil
}

func (t *Temporal) check(m ipc.Message, addr uint64) *Violation {
	i, ok := t.find(addr)
	if !ok {
		// Purely temporal: an address outside every known generation is the
		// spatial policy's problem (MemSafety), not ours.
		return nil
	}
	if t.regions[i].dead {
		return &Violation{PID: m.PID, Op: m.Op, Addr: addr,
			Reason: fmt.Sprintf("use-after-free: access inside freed generation #%d", t.regions[i].gen)}
	}
	return nil
}

func (t *Temporal) destroy(m ipc.Message, base uint64) *Violation {
	i, ok := t.find(base)
	if !ok || t.regions[i].base != base {
		return &Violation{PID: m.PID, Op: m.Op, Addr: base,
			Reason: "free of unknown allocation: invalid free"}
	}
	if t.regions[i].dead {
		return &Violation{PID: m.PID, Op: m.Op, Addr: base,
			Reason: fmt.Sprintf("double free: generation #%d already freed", t.regions[i].gen)}
	}
	t.regions[i].dead = true
	t.live--
	t.evictTombstones()
	return nil
}

func (t *Temporal) destroyAll(m ipc.Message, base, size uint64) *Violation {
	freed := 0
	for i := range t.regions {
		r := &t.regions[i]
		if r.base >= base && r.base < base+size && !r.dead {
			r.dead = true
			freed++
		}
	}
	t.live -= freed
	t.evictTombstones()
	if freed == 0 {
		return &Violation{PID: m.PID, Op: m.Op, Addr: base, Value: size,
			Reason: "destroy-all found no live allocations: invalid or double free"}
	}
	return nil
}

// evictTombstones drops the oldest dead generations past the cap.
func (t *Temporal) evictTombstones() {
	dead := len(t.regions) - t.live
	if dead <= maxTombstones {
		return
	}
	// Oldest generation first; a single linear sweep keeps the slice sorted
	// by base (we delete in place).
	for dead > maxTombstones {
		oldest, at := ^uint64(0), -1
		for i := range t.regions {
			if t.regions[i].dead && t.regions[i].gen < oldest {
				oldest, at = t.regions[i].gen, i
			}
		}
		t.regions = append(t.regions[:at], t.regions[at+1:]...)
		dead--
	}
}

var _ Policy = (*Temporal)(nil)
