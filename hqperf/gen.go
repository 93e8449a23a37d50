package main

import (
	"hash/fnv"

	"herqules/internal/ipc"
)

// The stream generator is the monitored program of the two stream workloads.
// It is a pure function of (seed, process index): the op mix, the addresses,
// the pointer values and the live set all come from one splitmix64 stream,
// so two runs with the same seed send identical message sequences for as
// long as they run. The generated traffic is clean by construction — every
// check refers to state the stream itself established — so any violation
// the verifier reports is a defect, not an input.

// Address regions. Each process gets its own 1 TiB window so that the
// regions never overlap; the window layout inside is arbitrary but fixed.
const (
	regionStride = 1 << 40
	ptrRegion    = 0x10_0000_0000 // CFI pointer slots, 8 bytes apart
	allocRegion  = 0x20_0000_0000 // memsafety allocation slots
	dfiRegion    = 0x30_0000_0000 // DFI-tracked addresses
	undefinedPtr = 0x3f_0000_0000 // never defined: the canary's check target

	allocSlots   = 64 // concurrently tracked memsafety allocations
	allocSpacing = 4096
	dfiAddrs     = 256 // DFI-tracked addresses
	dfiSets      = 8   // writer sets; address j belongs to set j%dfiSets
	dfiWriters   = 8   // writers per set
	counterKinds = 16
)

// genConfig sizes one generator.
type genConfig struct {
	seed      uint64
	proc      int // process index; selects the address window and rng stream
	liveSlots int // CFI pointer slots (a power of two)
}

// streamGen produces one process's message stream.
type streamGen struct {
	rng   uint64
	base  uint64
	mask  uint64
	vals  []uint64           // current value of each CFI slot; 0 = not defined
	alloc [allocSlots]uint64 // size of each live allocation; 0 = free
}

func newStreamGen(c genConfig) *streamGen {
	return &streamGen{
		rng:  c.seed*0x9e3779b97f4a7c15 ^ uint64(c.proc+1)*0xbf58476d1ce4e5b9,
		base: uint64(c.proc+1) * regionStride,
		mask: uint64(c.liveSlots - 1),
		vals: make([]uint64, c.liveSlots),
	}
}

func (g *streamGen) next64() uint64 {
	g.rng += 0x9e3779b97f4a7c15
	z := g.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// prefill returns the set-up messages: every CFI slot defined (the live set
// starts full), and every DFI writer declared into its set.
func (g *streamGen) prefill() []ipc.Message {
	out := make([]ipc.Message, 0, len(g.vals)+dfiSets*dfiWriters)
	for s := uint64(0); s < dfiSets; s++ {
		for w := uint64(0); w < dfiWriters; w++ {
			out = append(out, ipc.Message{Op: ipc.OpDFIDeclare, Arg1: s + 1, Arg2: dfiWriter(s, w)})
		}
	}
	for i := range g.vals {
		out = append(out, g.define(uint64(i)))
	}
	return out
}

func dfiWriter(set, w uint64) uint64 { return set*dfiWriters + w + 1 }

func (g *streamGen) ptrAddr(i uint64) uint64 { return g.base + ptrRegion + i*8 }

func (g *streamGen) define(i uint64) ipc.Message {
	v := g.next64() | 1 // never 0: 0 marks an undefined slot
	g.vals[i] = v
	return ipc.Message{Op: ipc.OpPointerDefine, Arg1: g.ptrAddr(i), Arg2: v}
}

// next returns the next message of the steady-state mix: about 3/4 CFI
// define/check/invalidate over the live set, the rest memsafety
// create/check/destroy, DFI set/check and counter increments.
func (g *streamGen) next() ipc.Message {
	r := g.next64()
	sel := r & 0xff // op selector; the high bits pick slots
	hi := r >> 8
	switch {
	case sel < 96: // 3/8: pointer check
		i := hi & g.mask
		if g.vals[i] == 0 {
			return g.define(i)
		}
		return ipc.Message{Op: ipc.OpPointerCheck, Arg1: g.ptrAddr(i), Arg2: g.vals[i]}
	case sel < 144: // 3/16: pointer (re)define
		return g.define(hi & g.mask)
	case sel < 192: // 3/16: pointer invalidate
		i := hi & g.mask
		if g.vals[i] == 0 {
			return g.define(i)
		}
		g.vals[i] = 0
		return ipc.Message{Op: ipc.OpPointerInvalidate, Arg1: g.ptrAddr(i)}
	case sel < 216: // 3/32: memsafety
		i := hi % allocSlots
		addr := g.base + allocRegion + i*allocSpacing
		if g.alloc[i] == 0 {
			size := 16 + (hi>>8)%(allocSpacing-16)
			g.alloc[i] = size
			return ipc.Message{Op: ipc.OpAllocCreate, Arg1: addr, Arg2: size}
		}
		if (hi>>8)&3 == 0 {
			g.alloc[i] = 0
			return ipc.Message{Op: ipc.OpAllocDestroy, Arg1: addr}
		}
		return ipc.Message{Op: ipc.OpAllocCheck, Arg1: addr + (hi>>10)%g.alloc[i]}
	case sel < 240: // 3/32: dfi
		j := hi % dfiAddrs
		set := j % dfiSets
		addr := g.base + dfiRegion + j*8
		if (hi>>8)&1 == 0 {
			return ipc.Message{Op: ipc.OpDFISet, Arg1: addr, Arg2: dfiWriter(set, (hi>>9)%dfiWriters)}
		}
		return ipc.Message{Op: ipc.OpDFICheck, Arg1: addr, Arg2: set + 1}
	default: // 1/16: counter
		return ipc.Message{Op: ipc.OpCounterInc, Arg1: hi % counterKinds}
	}
}

// canary returns a check of a pointer the stream never defined: the cfi
// policy must reject it.
func (g *streamGen) canary() ipc.Message {
	return ipc.Message{Op: ipc.OpPointerCheck, Arg1: g.base + undefinedPtr, Arg2: 0xdead}
}

// hashPrefix hashes the prefill plus the first n steady-state messages of
// each process's stream. Equal hashes for equal seeds show that two runs drew
// the same inputs; a generator is deterministic, so equal prefixes mean equal
// streams of any length.
func hashPrefix(seed uint64, procs, liveSlots, n int) uint64 {
	h := fnv.New64a()
	var buf [ipc.MessageSize]byte
	for p := 0; p < procs; p++ {
		g := newStreamGen(genConfig{seed: seed, proc: p, liveSlots: liveSlots})
		for _, m := range g.prefill() {
			m.Encode(buf[:])
			h.Write(buf[:])
		}
		for i := 0; i < n; i++ {
			m := g.next()
			m.Encode(buf[:])
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}
