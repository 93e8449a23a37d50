package policy

import (
	"sort"

	"herqules/internal/ipc"
)

// MemSafety is the memory-safety execution policy sketched in §4.2: the
// verifier tracks every live allocation as an interval and checks that
// accesses land inside one (spatial safety) and that the allocation is still
// live (temporal safety). Unlike CFI, this eliminates the corruption rather
// than catching its use.
type MemSafety struct {
	Hooks
	// allocs is sorted by base address; intervals never overlap.
	allocs     []interval
	maxEntries int
}

type interval struct{ base, size uint64 }

// NewMemSafety creates an empty allocation-tracking context.
func NewMemSafety() *MemSafety {
	return &MemSafety{}
}

// Name implements Policy.
func (p *MemSafety) Name() string { return "memsafety" }

// Entries implements Policy.
func (p *MemSafety) Entries() int { return len(p.allocs) }

// MaxEntries reports the high-water mark of tracked allocations.
func (p *MemSafety) MaxEntries() int { return p.maxEntries }

// Clone implements Policy.
func (p *MemSafety) Clone() Policy {
	n := NewMemSafety()
	n.allocs = append([]interval(nil), p.allocs...)
	n.maxEntries = p.maxEntries
	return n
}

// allocOps is the §4.2 allocation vocabulary, shared by MemSafety and
// Temporal.
var allocOps = ipc.OpsOf(ipc.OpAllocCreate, ipc.OpAllocCheck, ipc.OpAllocCheckBase,
	ipc.OpAllocExtend, ipc.OpAllocDestroy, ipc.OpAllocDestroyAll)

// Ops implements Policy.
func (p *MemSafety) Ops() ipc.OpSet { return allocOps }

// Handle implements Policy.
func (p *MemSafety) Handle(m ipc.Message) *Violation {
	switch m.Op {
	case ipc.OpAllocCreate:
		return p.create(m, m.Arg1, m.Arg2)
	case ipc.OpAllocCheck:
		if _, ok := p.find(m.Arg1); !ok {
			return &Violation{PID: m.PID, Op: m.Op, Addr: m.Arg1,
				Reason: "access outside any live allocation: out-of-bounds or use-after-free"}
		}
	case ipc.OpAllocCheckBase:
		i1, ok1 := p.find(m.Arg1)
		i2, ok2 := p.find(m.Arg2)
		if !ok1 || !ok2 || i1 != i2 {
			return &Violation{PID: m.PID, Op: m.Op, Addr: m.Arg1, Value: m.Arg2,
				Reason: "addresses not within one live allocation"}
		}
	case ipc.OpAllocExtend:
		// realloc: destroy the old interval, create the new one.
		if v := p.destroy(m, m.Arg1); v != nil {
			return v
		}
		return p.create(m, m.Arg2, m.Arg3)
	case ipc.OpAllocDestroy:
		return p.destroy(m, m.Arg1)
	case ipc.OpAllocDestroyAll:
		return p.destroyAll(m, m.Arg1, m.Arg2)
	}
	return nil
}

func (p *MemSafety) create(m ipc.Message, base, size uint64) *Violation {
	if size == 0 {
		size = 1
	}
	i := sort.Search(len(p.allocs), func(i int) bool { return p.allocs[i].base+p.allocs[i].size > base })
	if i < len(p.allocs) && p.allocs[i].base < base+size {
		return &Violation{PID: m.PID, Op: m.Op, Addr: base, Value: size,
			Reason: "allocation overlaps an existing allocation"}
	}
	p.allocs = append(p.allocs, interval{})
	copy(p.allocs[i+1:], p.allocs[i:])
	p.allocs[i] = interval{base: base, size: size}
	if len(p.allocs) > p.maxEntries {
		p.maxEntries = len(p.allocs)
	}
	return nil
}

// find returns the index of the live allocation containing addr.
func (p *MemSafety) find(addr uint64) (int, bool) {
	i := sort.Search(len(p.allocs), func(i int) bool { return p.allocs[i].base+p.allocs[i].size > addr })
	if i < len(p.allocs) && p.allocs[i].base <= addr {
		return i, true
	}
	return 0, false
}

func (p *MemSafety) destroy(m ipc.Message, base uint64) *Violation {
	i, ok := p.find(base)
	if !ok || p.allocs[i].base != base {
		return &Violation{PID: m.PID, Op: m.Op, Addr: base,
			Reason: "destroy of non-allocation: invalid or double free"}
	}
	p.allocs = append(p.allocs[:i], p.allocs[i+1:]...)
	return nil
}

func (p *MemSafety) destroyAll(m ipc.Message, base, size uint64) *Violation {
	kept := p.allocs[:0]
	removed := 0
	for _, iv := range p.allocs {
		if iv.base >= base && iv.base < base+size {
			removed++
			continue
		}
		kept = append(kept, iv)
	}
	p.allocs = kept
	if removed == 0 {
		return &Violation{PID: m.PID, Op: m.Op, Addr: base, Value: size,
			Reason: "destroy-all found no allocations: invalid or double free"}
	}
	return nil
}

var _ Policy = (*MemSafety)(nil)
