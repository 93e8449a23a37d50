package mem

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

func wantFault(t *testing.T, what string, err error, kind FaultKind, addr uint64) {
	t.Helper()
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("%s: err = %v, want a %s fault", what, err, kind)
	}
	if f.Kind != kind || f.Addr != addr {
		t.Fatalf("%s: fault %v, want %s at %#x", what, f, kind, addr)
	}
}

func TestUntouchedPageReadsZero(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, 2*PageSize, Read|Write)
	buf := bytes.Repeat([]byte{0xff}, 64)
	if err := m.Read(0x1ff0, buf); err != nil { // spans both pages
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, 64)) {
		t.Errorf("untouched pages read %x, want zeros", buf)
	}
	if w, err := m.ReadWord(0x1008); err != nil || w != 0 {
		t.Errorf("ReadWord = %#x, %v", w, err)
	}
	if b, err := m.LoadByte(0x2fff); err != nil || b != 0 {
		t.Errorf("LoadByte = %#x, %v", b, err)
	}
	// Zero stores leave a page untouched; the first other store backs it.
	if err := m.WriteWord(0x1000, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Memset(0x1000, 0, PageSize); err != nil {
		t.Fatal(err)
	}
	if m.pages[0x1000].data != nil {
		t.Error("zero stores allocated the page's backing")
	}
	if err := m.StoreByte(0x1001, 7); err != nil {
		t.Fatal(err)
	}
	if m.pages[0x1000].data == nil || m.pages[0x2000].data != nil {
		t.Error("a store must back exactly the page it touches")
	}
	if w, _ := m.ReadWord(0x1000); w != 7<<8 {
		t.Errorf("ReadWord after StoreByte = %#x", w)
	}

	// Zeros stored into a backed page overwrite it, whatever the path.
	for _, clearOp := range []func() error{
		func() error { return m.WriteWord(0x1000, 0) },
		func() error { return m.StoreByte(0x1001, 0) },
		func() error { return m.Memset(0x1000, 0, 8) },
		func() error { return m.Memmove(0x1000, 0x2000, 8) }, // from the untouched page
	} {
		if err := m.StoreByte(0x1001, 7); err != nil {
			t.Fatal(err)
		}
		if err := clearOp(); err != nil {
			t.Fatal(err)
		}
		if w, _ := m.ReadWord(0x1000); w != 0 {
			t.Errorf("zero store into a backed page left %#x", w)
		}
	}
	if m.pages[0x2000].data != nil {
		t.Error("reading an untouched page as a move source backed it")
	}
}

func TestPermissionsEnforcedOnUntouchedPages(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, PageSize, Read)
	mustMap(t, m, 0x3000, PageSize, Exec)
	mustMap(t, m, 0x5000, PageSize, Read|Write|Append)

	// Read-only: every kind of store faults.
	wantFault(t, "Write ro", m.Write(0x1010, []byte{1}), FaultPerm, 0x1010)
	wantFault(t, "WriteWord ro", m.WriteWord(0x1010, 1), FaultPerm, 0x1010)
	wantFault(t, "StoreByte ro", m.StoreByte(0x1010, 1), FaultPerm, 0x1010)
	wantFault(t, "Memset ro", m.Memset(0x1010, 1, 4), FaultPerm, 0x1010)
	wantFault(t, "Memmove ro", m.Memmove(0x1010, 0x1000, 4), FaultPerm, 0x1010)

	// Exec-only: every kind of load faults.
	_, err := m.ReadWord(0x3000)
	wantFault(t, "ReadWord x", err, FaultPerm, 0x3000)
	_, err = m.LoadByte(0x3001)
	wantFault(t, "LoadByte x", err, FaultPerm, 0x3001)
	wantFault(t, "Read x", m.Read(0x3002, make([]byte, 2)), FaultPerm, 0x3002)
	wantFault(t, "Memmove from x", m.Memmove(0x5000, 0x3000, 4), FaultPerm, 0x3000)

	// Append: ordinary stores fault even with Write set; AppendWrite lands.
	wantFault(t, "WriteWord amr", m.WriteWord(0x5000, 1), FaultPerm, 0x5000)
	wantFault(t, "StoreByte amr", m.StoreByte(0x5000, 1), FaultPerm, 0x5000)
	wantFault(t, "Memset amr", m.Memset(0x5000, 1, 8), FaultPerm, 0x5000)
	if err := m.AppendWrite(0x5000, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if b, err := m.LoadByte(0x5000); err != nil || b != 9 {
		t.Errorf("LoadByte after AppendWrite = %d, %v", b, err)
	}
	for _, p := range []uint64{0x1000, 0x3000} {
		if m.pages[p].data != nil {
			t.Errorf("faulting stores backed page %#x", p)
		}
	}
}

func TestUnmapInvalidatesTranslationCache(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, PageSize, Read|Write)
	if err := m.WriteWord(0x1008, 42); err != nil { // fills the cache
		t.Fatal(err)
	}
	m.Unmap(0x1000, PageSize)
	_, err := m.ReadWord(0x1008)
	wantFault(t, "ReadWord after Unmap", err, FaultUnmapped, 0x1008)
	wantFault(t, "StoreByte after Unmap", m.StoreByte(0x1008, 1), FaultUnmapped, 0x1008)

	// A fresh mapping of the same page is demand-zero again.
	mustMap(t, m, 0x1000, PageSize, Read|Write)
	if w, err := m.ReadWord(0x1008); err != nil || w != 0 {
		t.Errorf("ReadWord after Unmap+Map = %d, %v; want 0", w, err)
	}
}

func TestProtectAppliesThroughTranslationCache(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, PageSize, Read|Write)
	if err := m.WriteWord(0x1000, 1); err != nil { // cached as writable
		t.Fatal(err)
	}
	if err := m.Protect(0x1000, PageSize, Read); err != nil {
		t.Fatal(err)
	}
	wantFault(t, "WriteWord after Protect", m.WriteWord(0x1000, 2), FaultPerm, 0x1000)
	if err := m.Protect(0x1000, PageSize, 0); err != nil {
		t.Fatal(err)
	}
	_, err := m.ReadWord(0x1000)
	wantFault(t, "ReadWord after Protect(0)", err, FaultPerm, 0x1000)
}

func TestTranslationCacheCollisions(t *testing.T) {
	// Pages tlbSize apart share a cache entry; alternating between them
	// must never serve one page's bytes for the other.
	m := New()
	a, b := uint64(0x10000), uint64(0x10000+tlbSize*PageSize)
	mustMap(t, m, a, PageSize, Read|Write)
	mustMap(t, m, b, PageSize, Read)
	for i := uint64(0); i < 4; i++ {
		if err := m.WriteWord(a+8*i, i+1); err != nil {
			t.Fatal(err)
		}
		wantFault(t, "WriteWord ro alias", m.WriteWord(b+8*i, 1), FaultPerm, b+8*i)
		if w, _ := m.ReadWord(b + 8*i); w != 0 {
			t.Fatalf("aliased page read %d", w)
		}
		if w, _ := m.ReadWord(a + 8*i); w != i+1 {
			t.Fatalf("page a word %d = %d", i, w)
		}
	}
}

func TestFastAndSlowPathFaultsAgree(t *testing.T) {
	// A word straddling into an unmapped page faults at the boundary, as
	// the byte-range path always has.
	m := New()
	mustMap(t, m, 0x1000, PageSize, Read|Write)
	_, err := m.ReadWord(0x1ffc)
	wantFault(t, "ReadWord straddle", err, FaultUnmapped, 0x2000)
	wantFault(t, "WriteWord straddle", m.WriteWord(0x1ffc, 1), FaultUnmapped, 0x2000)
	_, err = m.LoadByte(0x9000)
	wantFault(t, "LoadByte unmapped", err, FaultUnmapped, 0x9000)
}

func TestMappedRangesUnchangedByTouching(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, 3*PageSize, Read|Write)
	mustMap(t, m, 0x8000, PageSize, Read)
	before := m.MappedRanges()
	if err := m.Memset(0x1800, 0xaa, PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadWord(0x8000); err != nil {
		t.Fatal(err)
	}
	if after := m.MappedRanges(); !reflect.DeepEqual(before, after) {
		t.Errorf("MappedRanges changed by access: %v -> %v", before, after)
	}
	want := []Range{{0x1000, 0x4000, Read | Write}, {0x8000, 0x9000, Read}}
	if !reflect.DeepEqual(before, want) {
		t.Errorf("MappedRanges = %v, want %v", before, want)
	}
}

func TestMemmoveOverlapAcrossPageBoundary(t *testing.T) {
	const base = 0x10000
	for _, tc := range []struct {
		name     string
		dst, src uint64
	}{
		{"forward", base + PageSize - 100, base + PageSize - 60},  // dst < src
		{"backward", base + PageSize - 60, base + PageSize - 100}, // dst > src
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := New()
			mustMap(t, m, base, 3*PageSize, Read|Write)
			ref := make([]byte, 3*PageSize)
			for i := range ref {
				ref[i] = byte(i*7 + 3)
			}
			if err := m.Write(base, ref); err != nil {
				t.Fatal(err)
			}
			const n = PageSize + 200 // both ranges cross two page boundaries
			if err := m.Memmove(tc.dst, tc.src, n); err != nil {
				t.Fatal(err)
			}
			copy(ref[tc.dst-base:][:n], ref[tc.src-base:][:n])
			got := make([]byte, len(ref))
			if err := m.Read(base, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, ref) {
				t.Fatal("overlapping Memmove differs from memmove(3) semantics")
			}
		})
	}
}

func TestBlockOpsFaultInGuardPageWithoutPartialWrite(t *testing.T) {
	// [0x1000, 0x3000) mapped, 0x3000 is an unmapped guard page.
	m := New()
	mustMap(t, m, 0x1000, 2*PageSize, Read|Write)
	if err := m.Memset(0x1000, 0x11, 2*PageSize); err != nil {
		t.Fatal(err)
	}
	snapshot := func() []byte {
		b := make([]byte, 2*PageSize)
		if err := m.Read(0x1000, b); err != nil {
			t.Fatal(err)
		}
		return b
	}
	before := snapshot()
	wantFault(t, "Memset into guard", m.Memset(0x2f00, 0x22, 0x200), FaultUnmapped, 0x3000)
	wantFault(t, "Memmove into guard", m.Memmove(0x2f00, 0x1000, 0x200), FaultUnmapped, 0x3000)
	wantFault(t, "Memmove from guard", m.Memmove(0x1000, 0x2f00, 0x200), FaultUnmapped, 0x3000)
	wantFault(t, "Write into guard", m.Write(0x2ff8, make([]byte, 16)), FaultUnmapped, 0x3000)
	if !bytes.Equal(before, snapshot()) {
		t.Error("a faulting block operation wrote part of its range")
	}
}

func TestBlockOpsMatchReferenceModel(t *testing.T) {
	// Random word, byte and block operations over three pages, some never
	// touched, checked byte for byte against a flat slice.
	const base, size = 0x40000, 3 * PageSize
	m := New()
	mustMap(t, m, base, size, Read|Write)
	ref := make([]byte, size)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		off := uint64(rng.Intn(size))
		switch rng.Intn(4) {
		case 0:
			n := uint64(rng.Intn(2 * PageSize))
			src := uint64(rng.Intn(size))
			n = min(n, size-off, size-src)
			if err := m.Memmove(base+off, base+src, n); err != nil {
				t.Fatal(err)
			}
			copy(ref[off:off+n], ref[src:src+n])
		case 1:
			n := min(uint64(rng.Intn(PageSize)), size-off)
			v := byte(rng.Intn(3)) // zero often, to exercise untouched pages
			if err := m.Memset(base+off, v, n); err != nil {
				t.Fatal(err)
			}
			for j := off; j < off+n; j++ {
				ref[j] = v
			}
		case 2:
			off = min(off, size-8)
			v := rng.Uint64() >> uint(rng.Intn(64))
			if err := m.WriteWord(base+off, v); err != nil {
				t.Fatal(err)
			}
			for j := 0; j < 8; j++ {
				ref[off+uint64(j)] = byte(v >> (8 * j))
			}
		case 3:
			v := byte(rng.Intn(256))
			if err := m.StoreByte(base+off, v); err != nil {
				t.Fatal(err)
			}
			ref[off] = v
		}
	}
	got := make([]byte, size)
	if err := m.Read(base, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("memory diverged from the reference model")
	}
}

func TestBlockOpsAllocationFree(t *testing.T) {
	m := New()
	mustMap(t, m, 0x1000, 4*PageSize, Read|Write)
	if err := m.Memset(0x1000, 1, 4*PageSize); err != nil { // back every page
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		_ = m.Memset(0x1100, 0x5a, 2*PageSize)
		_ = m.Memmove(0x1200, 0x1100, 2*PageSize) // overlapping, backward
		_ = m.Memmove(0x1100, 0x1200, 2*PageSize) // overlapping, forward
		_ = m.StoreByte(0x1fff, 3)
		_ = m.WriteWord(0x2000, 4)
		_, _ = m.ReadWord(0x2000)
	})
	if allocs != 0 {
		t.Errorf("block and word operations allocate %.1f times per run, want 0", allocs)
	}
}
