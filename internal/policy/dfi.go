package policy

import (
	"fmt"

	"herqules/internal/ipc"
)

// LoaderWriter is the writer identity of pre-execution initialization (the
// loader populating globals, or a never-written location). It is implicitly
// a member of every writer set, so reads of initialized-but-unwritten data
// never false-positive.
const LoaderWriter = 0

// DFI is the data-flow integrity policy of §4.3 (after Castro, Costa and
// Harris, OSDI '06): the compiler assigns every store instruction an
// identity, computes for each checked load the set of stores that may
// legitimately produce its value, and instruments stores to announce
// themselves and loads to be checked. A load whose address was last written
// by a store outside its set — a buffer overflow clobbering a neighbouring
// variable, say — is a violation even when the corrupted value is pure data
// that control-flow integrity would never examine.
type DFI struct {
	Hooks
	// sets maps set id -> allowed writer ids.
	sets map[uint64]map[uint64]bool
	// last maps address -> the id of its most recent writer.
	last       map[uint64]uint64
	maxEntries int
}

// NewDFI creates an empty data-flow-integrity context.
func NewDFI() *DFI {
	return &DFI{
		sets: make(map[uint64]map[uint64]bool),
		last: make(map[uint64]uint64),
	}
}

// Name implements Policy.
func (d *DFI) Name() string { return "dfi" }

// Entries implements Policy.
func (d *DFI) Entries() int { return len(d.last) }

// MaxEntries reports the high-water mark of tracked addresses.
func (d *DFI) MaxEntries() int { return d.maxEntries }

// Clone implements Policy.
func (d *DFI) Clone() Policy {
	n := NewDFI()
	for id, set := range d.sets {
		ns := make(map[uint64]bool, len(set))
		for w := range set {
			ns[w] = true
		}
		n.sets[id] = ns
	}
	for a, w := range d.last {
		n.last[a] = w
	}
	n.maxEntries = d.maxEntries
	return n
}

// dfiOps is the §4.3 vocabulary Handle dispatches on.
var dfiOps = ipc.OpsOf(ipc.OpDFIDeclare, ipc.OpDFISet, ipc.OpDFICheck)

// Ops implements Policy.
func (d *DFI) Ops() ipc.OpSet { return dfiOps }

// Handle implements Policy.
func (d *DFI) Handle(m ipc.Message) *Violation {
	switch m.Op {
	case ipc.OpDFIDeclare:
		set, ok := d.sets[m.Arg1]
		if !ok {
			set = map[uint64]bool{LoaderWriter: true}
			d.sets[m.Arg1] = set
		}
		set[m.Arg2] = true
	case ipc.OpDFISet:
		d.last[m.Arg1] = m.Arg2
		if len(d.last) > d.maxEntries {
			d.maxEntries = len(d.last)
		}
	case ipc.OpDFICheck:
		set, ok := d.sets[m.Arg2]
		if !ok {
			return &Violation{PID: m.PID, Op: m.Op, Addr: m.Arg1, Value: m.Arg2,
				Reason: "dfi: check against undeclared writer set"}
		}
		writer := d.last[m.Arg1] // missing -> LoaderWriter
		if !set[writer] {
			return &Violation{PID: m.PID, Op: m.Op, Addr: m.Arg1, Value: writer,
				Reason: fmt.Sprintf("dfi: address %#x last written by store #%d, outside its reaching set", m.Arg1, writer)}
		}
	}
	return nil
}

// LastWriter reports the recorded last writer of an address.
func (d *DFI) LastWriter(addr uint64) uint64 { return d.last[addr] }

var _ Policy = (*DFI)(nil)
