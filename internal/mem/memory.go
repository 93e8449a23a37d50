// Package mem implements the byte-addressable, paged virtual memory that the
// MIR virtual machine (package vm) executes against. It reproduces the parts
// of a process address space that matter to the paper's threat model (§2.1):
// page-granularity protections (so read-only code and guard pages behave
// correctly), distinct segments (code, data, BSS, heap, stacks, and the
// hidden "safe" regions used by safe-stack and CPI designs), and a heap
// allocator whose bugs — overflow, use-after-free, double free — can actually
// corrupt neighbouring memory.
package mem

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// PageSize is the granularity of protection, matching a 4 KiB x86-64 page.
const PageSize = 4096

// Perm is a page-permission bit set.
type Perm uint8

// Permission bits.
const (
	Read  Perm = 1 << iota // page may be read
	Write                  // page may be written
	Exec                   // page may be executed
	// Append marks an appendable memory region (AMR, §2.3.2): the MMU
	// rejects ordinary unprivileged writes; only the AppendWrite
	// instruction may store to these pages.
	Append
)

func (p Perm) String() string {
	b := []byte("----")
	if p&Read != 0 {
		b[0] = 'r'
	}
	if p&Write != 0 {
		b[1] = 'w'
	}
	if p&Exec != 0 {
		b[2] = 'x'
	}
	if p&Append != 0 {
		b[3] = 'a'
	}
	return string(b)
}

// FaultKind classifies a memory fault.
type FaultKind int

// Fault kinds.
const (
	FaultUnmapped FaultKind = iota // no page mapped at the address
	FaultPerm                      // page mapped without the required permission
)

func (k FaultKind) String() string {
	switch k {
	case FaultUnmapped:
		return "unmapped"
	case FaultPerm:
		return "protection"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// Fault is the error returned for an invalid access. It mirrors a hardware
// page fault: the VM turns unhandled faults into a crash of the monitored
// program (a SIGSEGV analogue).
type Fault struct {
	Addr uint64
	Kind FaultKind
	Need Perm
}

func (f *Fault) Error() string {
	return fmt.Sprintf("mem: %s fault at %#x (need %s)", f.Kind, f.Addr, f.Need)
}

// page is one mapped page: permissions plus backing bytes. The backing is
// demand-zero: it stays nil until the first store (storing zeros through
// the word, byte and block operations leaves it nil), and reads of an
// untouched page see zeros.
type page struct {
	perm Perm
	data *[PageSize]byte
}

// backing returns the page's bytes, allocating them on first use.
func (pg *page) backing() *[PageSize]byte {
	if pg.data == nil {
		pg.data = new([PageSize]byte)
	}
	return pg.data
}

// tlbSize is the number of entries in the direct-mapped translation cache.
const tlbSize = 64

// tlbEntry caches one page-map lookup. It holds the *page itself, so a
// Protect is visible through the cache at once; Unmap clears the entry.
type tlbEntry struct {
	base uint64
	pg   *page // nil marks an empty entry
}

// Memory is a sparse paged address space. A Memory is not safe for
// concurrent use: even reads fill its translation cache.
type Memory struct {
	pages map[uint64]*page
	tlb   [tlbSize]tlbEntry
}

// New creates an empty address space.
func New() *Memory {
	return &Memory{pages: make(map[uint64]*page)}
}

// lookup returns the page containing addr, or nil when none is mapped. Hits
// are served from the translation cache in front of the page map.
func (m *Memory) lookup(addr uint64) *page {
	base := addr &^ (PageSize - 1)
	e := &m.tlb[(addr/PageSize)%tlbSize]
	if e.base == base && e.pg != nil {
		return e.pg
	}
	pg := m.pages[base]
	if pg != nil {
		e.base, e.pg = base, pg
	}
	return pg
}

// Map maps [addr, addr+size) with the given permissions. Both bounds are
// rounded outward to page boundaries. Mapping over an existing page fails:
// segments are laid out disjointly by the loader. Only the permissions are
// recorded; each page's backing is allocated on its first store.
func (m *Memory) Map(addr, size uint64, perm Perm) error {
	if size == 0 {
		return fmt.Errorf("mem: zero-size mapping at %#x", addr)
	}
	start := addr &^ (PageSize - 1)
	end := (addr + size + PageSize - 1) &^ (PageSize - 1)
	for p := start; p < end; p += PageSize {
		if _, ok := m.pages[p]; ok {
			return fmt.Errorf("mem: page %#x already mapped", p)
		}
	}
	pages := make([]page, (end-start)/PageSize)
	for i := range pages {
		pages[i].perm = perm
		m.pages[start+uint64(i)*PageSize] = &pages[i]
	}
	return nil
}

// Protect changes the permissions of all pages covering [addr, addr+size).
func (m *Memory) Protect(addr, size uint64, perm Perm) error {
	start := addr &^ (PageSize - 1)
	end := (addr + size + PageSize - 1) &^ (PageSize - 1)
	for p := start; p < end; p += PageSize {
		pg, ok := m.pages[p]
		if !ok {
			return &Fault{Addr: p, Kind: FaultUnmapped}
		}
		pg.perm = perm
	}
	return nil
}

// Unmap removes all pages covering [addr, addr+size).
func (m *Memory) Unmap(addr, size uint64) {
	start := addr &^ (PageSize - 1)
	end := (addr + size + PageSize - 1) &^ (PageSize - 1)
	for p := start; p < end; p += PageSize {
		delete(m.pages, p)
		if e := &m.tlb[(p/PageSize)%tlbSize]; e.base == p {
			*e = tlbEntry{}
		}
	}
}

// PermAt returns the permissions of the page containing addr, and whether a
// page is mapped there at all.
func (m *Memory) PermAt(addr uint64) (Perm, bool) {
	pg := m.lookup(addr)
	if pg == nil {
		return 0, false
	}
	return pg.perm, true
}

// writable reports whether an ordinary store may write pg: an Append page
// rejects ordinary writes even when Write is also set (the AMR property of
// §2.3.2).
func (pg *page) writable() bool { return pg.perm&(Write|Append) == Write }

// check verifies that every byte of [addr, addr+n) is mapped with need.
// An Append page rejects ordinary writes even when Write is also set,
// enforcing the AMR property of §2.3.2.
func (m *Memory) check(addr, n uint64, need Perm) error {
	if n == 0 {
		return nil
	}
	end := addr + n
	if end < addr {
		return &Fault{Addr: addr, Kind: FaultUnmapped, Need: need}
	}
	for p := addr &^ (PageSize - 1); p < end; p += PageSize {
		pg := m.lookup(p)
		if pg == nil {
			return &Fault{Addr: max(p, addr), Kind: FaultUnmapped, Need: need}
		}
		if pg.perm&need != need {
			return &Fault{Addr: max(p, addr), Kind: FaultPerm, Need: need}
		}
		if need&Write != 0 && pg.perm&Append != 0 {
			return &Fault{Addr: max(p, addr), Kind: FaultPerm, Need: need}
		}
	}
	return nil
}

// Read copies len(dst) bytes from addr into dst.
func (m *Memory) Read(addr uint64, dst []byte) error {
	if err := m.check(addr, uint64(len(dst)), Read); err != nil {
		return err
	}
	m.copyOut(addr, dst)
	return nil
}

// Write copies src into memory at addr, honouring page protections.
func (m *Memory) Write(addr uint64, src []byte) error {
	if err := m.check(addr, uint64(len(src)), Write); err != nil {
		return err
	}
	m.copyIn(addr, src)
	return nil
}

// AppendWrite stores src at addr inside an appendable memory region,
// bypassing the ordinary-write rejection. Only the AppendWrite instruction
// (package uarch) may use this path.
func (m *Memory) AppendWrite(addr uint64, src []byte) error {
	if err := m.check(addr, uint64(len(src)), Append); err != nil {
		return err
	}
	m.copyIn(addr, src)
	return nil
}

// WriteUnchecked stores src at addr ignoring Write permission (but the pages
// must be mapped). It models kernel-privileged stores (e.g. the loader
// populating read-only sections) and must never be reachable from guest code.
func (m *Memory) WriteUnchecked(addr uint64, src []byte) error {
	if err := m.check(addr, uint64(len(src)), 0); err != nil {
		return err
	}
	m.copyIn(addr, src)
	return nil
}

// copyOut and copyIn move bytes of a range check has already admitted.
func (m *Memory) copyOut(addr uint64, dst []byte) {
	for len(dst) > 0 {
		pg := m.lookup(addr)
		off := addr & (PageSize - 1)
		n := min(uint64(len(dst)), PageSize-off)
		if pg.data == nil {
			clear(dst[:n])
		} else {
			copy(dst, pg.data[off:off+n])
		}
		dst = dst[n:]
		addr += n
	}
}

func (m *Memory) copyIn(addr uint64, src []byte) {
	for len(src) > 0 {
		pg := m.lookup(addr)
		off := addr & (PageSize - 1)
		n := copy(pg.backing()[off:], src)
		src = src[n:]
		addr += uint64(n)
	}
}

// ReadWord loads a 64-bit little-endian word. A word inside one readable
// page is read in place; anything else takes the general path, which also
// builds the fault.
func (m *Memory) ReadWord(addr uint64) (uint64, error) {
	if off := addr & (PageSize - 1); off <= PageSize-8 {
		if pg := m.lookup(addr); pg != nil && pg.perm&Read != 0 {
			if pg.data == nil {
				return 0, nil
			}
			return binary.LittleEndian.Uint64(pg.data[off:]), nil
		}
	}
	var b [8]byte
	if err := m.Read(addr, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteWord stores a 64-bit little-endian word, in place when the word lies
// inside one writable page. Storing zero to an untouched page leaves it
// untouched.
func (m *Memory) WriteWord(addr, v uint64) error {
	if off := addr & (PageSize - 1); off <= PageSize-8 {
		if pg := m.lookup(addr); pg != nil && pg.writable() {
			if v != 0 || pg.data != nil {
				binary.LittleEndian.PutUint64(pg.backing()[off:], v)
			}
			return nil
		}
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return m.Write(addr, b[:])
}

// LoadByte loads one byte.
func (m *Memory) LoadByte(addr uint64) (byte, error) {
	pg := m.lookup(addr)
	if pg == nil || pg.perm&Read == 0 {
		return 0, m.check(addr, 1, Read)
	}
	if pg.data == nil {
		return 0, nil
	}
	return pg.data[addr&(PageSize-1)], nil
}

// StoreByte stores one byte.
func (m *Memory) StoreByte(addr uint64, v byte) error {
	pg := m.lookup(addr)
	if pg == nil || !pg.writable() {
		return m.check(addr, 1, Write)
	}
	if v != 0 || pg.data != nil {
		pg.backing()[addr&(PageSize-1)] = v
	}
	return nil
}

// Memmove copies n bytes from src to dst, handling overlap like memmove(3).
// Both ranges are checked before any byte moves, so a fault leaves memory
// unwritten. The copy runs in chunks that stay inside one source and one
// destination page, backward when dst overlaps the tail of src.
func (m *Memory) Memmove(dst, src, n uint64) error {
	if n == 0 {
		return nil
	}
	if err := m.check(src, n, Read); err != nil {
		return err
	}
	if err := m.check(dst, n, Write); err != nil {
		return err
	}
	if dst <= src || dst >= src+n {
		for n > 0 {
			c := min(n, PageSize-dst&(PageSize-1), PageSize-src&(PageSize-1))
			m.moveChunk(dst, src, c)
			dst, src, n = dst+c, src+c, n-c
		}
		return nil
	}
	for n > 0 {
		de, se := dst+n, src+n
		c := min(n, (de-1)&(PageSize-1)+1, (se-1)&(PageSize-1)+1)
		m.moveChunk(de-c, se-c, c)
		n -= c
	}
	return nil
}

// moveChunk copies n bytes within one source and one destination page.
func (m *Memory) moveChunk(dst, src, n uint64) {
	sp, dp := m.lookup(src), m.lookup(dst)
	if sp.data == nil && dp.data == nil {
		return // zeros onto zeros
	}
	d := dp.backing()[dst&(PageSize-1):][:n]
	if sp.data == nil {
		clear(d)
		return
	}
	copy(d, sp.data[src&(PageSize-1):][:n])
}

// Memset fills [addr, addr+n) with v. The range is checked before any byte
// is written, so a fault leaves memory unwritten.
func (m *Memory) Memset(addr uint64, v byte, n uint64) error {
	if err := m.check(addr, n, Write); err != nil {
		return err
	}
	for n > 0 {
		pg := m.lookup(addr)
		off := addr & (PageSize - 1)
		c := min(n, PageSize-off)
		if v != 0 || pg.data != nil {
			b := pg.backing()[off : off+c]
			for i := range b {
				b[i] = v
			}
		}
		addr, n = addr+c, n-c
	}
	return nil
}

// MappedRanges returns the mapped regions as sorted [start, end) pairs,
// coalescing adjacent pages with equal permissions. Used by diagnostics.
func (m *Memory) MappedRanges() []Range {
	if len(m.pages) == 0 {
		return nil
	}
	addrs := make([]uint64, 0, len(m.pages))
	for a := range m.pages {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	var out []Range
	for _, a := range addrs {
		p := m.pages[a].perm
		if n := len(out); n > 0 && out[n-1].End == a && out[n-1].Perm == p {
			out[n-1].End = a + PageSize
			continue
		}
		out = append(out, Range{Start: a, End: a + PageSize, Perm: p})
	}
	return out
}

// Range is a contiguous mapped region.
type Range struct {
	Start, End uint64
	Perm       Perm
}

func (r Range) String() string {
	return fmt.Sprintf("[%#x,%#x) %s", r.Start, r.End, r.Perm)
}
