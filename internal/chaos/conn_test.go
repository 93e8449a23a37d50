package chaos

import (
	"errors"
	"net"
	"os"
	"syscall"
	"testing"
	"time"

	"herqules/internal/ipc"
)

// socketpair returns both ends of a real AF_UNIX/SOCK_STREAM socketpair as
// net.Conns — the exact transport class the fd-framing layer was built for,
// with real kernel short reads and writes, unlike net.Pipe's synchronous
// in-process rendezvous.
func socketpair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatalf("socketpair: %v", err)
	}
	mk := func(fd int, name string) net.Conn {
		f := os.NewFile(uintptr(fd), name)
		defer f.Close() // FileConn dups the fd
		c, err := net.FileConn(f)
		if err != nil {
			t.Fatalf("FileConn: %v", err)
		}
		return c
	}
	a := mk(fds[0], "sp-a")
	b := mk(fds[1], "sp-b")
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// TestFrameCarryOverSocketpair drives the partial-frame carry across real
// kernel socket reads: the writer deliberately lands byte counts that end
// mid-frame, and the decoder must (a) report the carry, (b) reassemble every
// frame bit-exactly, and (c) never surface a partial frame as data.
func TestFrameCarryOverSocketpair(t *testing.T) {
	w, r := socketpair(t)
	dec := ipc.NewFrameDecoder(r)

	const frames = 64
	// Encode the whole stream, then write it in chunk sizes that are
	// coprime with the 48-byte frame so nearly every read ends mid-frame.
	raw := make([]byte, 0, frames*ipc.MessageSize)
	var buf [ipc.MessageSize]byte
	for i := 0; i < frames; i++ {
		m := ipc.Message{Op: ipc.OpCounterInc, PID: 9, Arg1: uint64(i), Seq: uint64(i + 1)}
		m.Encode(buf[:])
		raw = append(raw, buf[:]...)
	}

	// Phase 1: exactly one and a half frames. The decoder must deliver the
	// whole frame and hold the half back as carry.
	if _, err := w.Write(raw[:72]); err != nil {
		t.Fatal(err)
	}
	var out [frames]ipc.Message
	n, ok, err := dec.Decode(out[:])
	if err != nil || !ok || n != 1 {
		t.Fatalf("phase 1 decode: n=%d ok=%t err=%v, want 1 true nil", n, ok, err)
	}
	if !dec.Carried() {
		t.Fatal("decoder reports no carry with 24 trailing bytes buffered")
	}
	if dec.Buffered() != 0 {
		t.Fatalf("buffered whole frames = %d, want 0 (only the carry remains)", dec.Buffered())
	}

	// Phase 2: the rest of the stream from a concurrent writer, in 31-byte
	// chunks (gcd(31,48)=1), so frame boundaries and read boundaries stay
	// misaligned the whole way down.
	done := make(chan error, 1)
	go func() {
		rest := raw[72:]
		for len(rest) > 0 {
			k := 31
			if k > len(rest) {
				k = len(rest)
			}
			if _, err := w.Write(rest[:k]); err != nil {
				done <- err
				return
			}
			rest = rest[k:]
		}
		done <- w.Close()
	}()

	got := 1
	for got < frames {
		n, ok, err := dec.Decode(out[got:])
		if err != nil {
			t.Fatalf("decode after %d frames: %v", got, err)
		}
		got += n
		if !ok {
			break
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("writer: %v", err)
	}
	if got != frames {
		t.Fatalf("decoded %d frames, want %d", got, frames)
	}
	for i := 0; i < got; i++ {
		want := ipc.Message{Op: ipc.OpCounterInc, PID: 9, Arg1: uint64(i), Seq: uint64(i + 1)}
		if out[i] != want {
			t.Fatalf("frame %d = %+v, want %+v", i, out[i], want)
		}
	}
	// Clean EOF on an exhausted stream: no error, no phantom frame.
	n, ok, err = dec.Decode(out[:])
	if n != 0 || ok || err != nil {
		t.Fatalf("EOF decode: n=%d ok=%t err=%v, want 0 false nil", n, ok, err)
	}
}

// encodeFrames returns n encoded counter frames (Arg1 = i, Seq = i+1).
func encodeFrames(pid int32, n int) []byte {
	raw := make([]byte, 0, n*ipc.MessageSize)
	var buf [ipc.MessageSize]byte
	for i := 0; i < n; i++ {
		m := ipc.Message{Op: ipc.OpCounterInc, PID: pid, Arg1: uint64(i), Seq: uint64(i + 1)}
		m.Encode(buf[:])
		raw = append(raw, buf[:]...)
	}
	return raw
}

// seedCuttingInside returns the first seed under which fault f, drawn per
// frame at rate on a connection's first stream, first hits frame k of an
// n-frame write with 0 < k < n: the cut then lands strictly inside the
// write, with whole frames escaping before it.
func seedCuttingInside(f Fault, rate float64, n int) (seed uint64, k int) {
	for seed = 1; ; seed++ {
		inj := NewInjector(seed)
		for k = 0; k < n && !hit(inj.draw(f, 1, uint64(k)), rate); k++ {
		}
		if k > 0 && k < n {
			return seed, k
		}
	}
}

// TestChaosConnDropTruncatesExactlyMidFrame injects FaultConnDrop on a real
// socketpair: the chaos wrapper writes the frames before the faulted one and
// exactly half of it, then kills the transport. The decoder must deliver the
// whole frames and then classify the stream end as a truncation (an
// integrity violation carrying the trailing byte count), not as a clean EOF
// — a silently shortened stream is precisely what fail-closed must catch.
// The single-frame case is one frame per write; the burst case is a
// coalesced write whose fault is drawn at a frame inside it.
func TestChaosConnDropTruncatesExactlyMidFrame(t *testing.T) {
	const burst = 6
	seed, k := seedCuttingInside(FaultConnDrop, 0.3, burst)
	cases := []struct {
		name         string
		inj          *Injector
		frames, want int
	}{
		{"single-frame", NewInjector(42, WithConnDrop(1)), 1, 0},
		{"burst", NewInjector(seed, WithConnDrop(0.3)), burst, k},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w, r := socketpair(t)
			cw := tc.inj.Conn(w)
			raw := encodeFrames(3, tc.frames)
			if n, err := cw.Write(raw); err == nil {
				t.Fatal("chaos-dropped write reported success")
			} else if want := tc.want*ipc.MessageSize + ipc.MessageSize/2; n != want {
				t.Fatalf("write reported %d bytes, want %d", n, want)
			}

			dec := ipc.NewFrameDecoder(r)
			var out [burst]ipc.Message
			got := 0
			var derr error
			for {
				n, ok, err := dec.Decode(out[got:])
				got += n
				if err != nil || !ok {
					derr = err
					break
				}
			}
			if got != tc.want {
				t.Fatalf("decoded %d whole frames before the drop, want %d", got, tc.want)
			}
			var trunc *ipc.TruncatedFrameError
			if !errors.As(derr, &trunc) {
				t.Fatalf("decode error = %v, want TruncatedFrameError", derr)
			}
			if trunc.Trailing != ipc.MessageSize/2 {
				t.Fatalf("trailing = %d, want %d (half a frame)", trunc.Trailing, ipc.MessageSize/2)
			}
			if !errors.Is(derr, ipc.ErrIntegrity) {
				t.Fatal("truncation does not unwrap to ipc.ErrIntegrity")
			}
			if got := tc.inj.Counts().ConnDrops; got != 1 {
				t.Fatalf("conn drops = %d, want 1", got)
			}
		})
	}
}

// TestChaosConnDropAtFrameBoundary injects FaultConnDropBoundary on a real
// socketpair: the chaos wrapper cuts a frame-aligned burst exactly at the
// start of the frame that drew the fault and kills the transport. Unlike the
// mid-frame drop, the far side's decoder must see a clean, carry-free
// end-of-stream — the loss is invisible to framing and only the session
// layer (lease expiry, CheckSeq gap) can catch it. The test first exercises
// the partial-frame carry over the same socket to prove the decoder
// distinguishes the two endings.
func TestChaosConnDropAtFrameBoundary(t *testing.T) {
	const frames, burst = 6, 4
	seed, k := seedCuttingInside(FaultConnDropBoundary, 0.3, burst)
	w, r := socketpair(t)
	inj := NewInjector(seed, WithConnDropAtBoundary(0.3))
	cw := inj.Conn(w)
	dec := ipc.NewFrameDecoder(r)
	raw := encodeFrames(5, frames)

	// Phase 1: a frame and a half through the RAW socket (bypassing the
	// wrapper, which assumes frame-aligned writes). The decoder must hold
	// the half back as carry — this is the ending the boundary drop must
	// NOT look like.
	if _, err := w.Write(raw[:ipc.MessageSize+ipc.MessageSize/2]); err != nil {
		t.Fatal(err)
	}
	var out [frames]ipc.Message
	n, ok, err := dec.Decode(out[:])
	if err != nil || !ok || n != 1 {
		t.Fatalf("phase 1 decode: n=%d ok=%t err=%v, want 1 true nil", n, ok, err)
	}
	if !dec.Carried() {
		t.Fatal("decoder reports no carry with half a frame buffered")
	}

	// Phase 2: complete the carried frame through the raw socket.
	if _, err := w.Write(raw[ipc.MessageSize+ipc.MessageSize/2 : 2*ipc.MessageSize]); err != nil {
		t.Fatal(err)
	}
	if n, ok, err = dec.Decode(out[1:]); err != nil || !ok || n != 1 {
		t.Fatalf("phase 2 decode: n=%d ok=%t err=%v, want 1 true nil", n, ok, err)
	}

	// Phase 3+4: a 4-frame aligned burst through the chaos wrapper, decoded
	// concurrently (the -race value of a real socketpair). The fault is
	// drawn per frame: the k frames before the first hit escape, then the
	// wrapper closes the conn. The writer must see the failure, the reader
	// must drain exactly those k frames and then hit a clean, carry-free EOF.
	werr := make(chan error, 1)
	go func() {
		_, err := cw.Write(raw[2*ipc.MessageSize:])
		werr <- err
	}()
	got := 2
	for {
		n, ok, err := dec.Decode(out[got:])
		if err != nil {
			t.Fatalf("decode after %d frames: %v (boundary drop must not surface truncation)", got, err)
		}
		got += n
		if !ok {
			break
		}
	}
	if err := <-werr; err == nil {
		t.Fatal("chaos boundary-dropped write reported success")
	}
	if got != 2+k {
		t.Fatalf("decoded %d frames, want %d (2 clean + %d of the dropped burst)", got, 2+k, k)
	}
	if dec.Carried() {
		t.Fatal("boundary drop left a carry: cut did not land on a frame boundary")
	}
	for i := 0; i < got; i++ {
		want := ipc.Message{Op: ipc.OpCounterInc, PID: 5, Arg1: uint64(i), Seq: uint64(i + 1)}
		if out[i] != want {
			t.Fatalf("frame %d = %+v, want %+v", i, out[i], want)
		}
	}
	if c := inj.Counts(); c.ConnDropBoundaries != 1 || c.ConnDrops != 0 {
		t.Fatalf("counts = %+v, want exactly one boundary drop and no mid-frame drops", c)
	}
}

// TestChaosConnFaultsPerFrame: connection faults are drawn per frame, not
// per write call, so coalescing frames into fewer writes does not thin out
// the faults. The same 64 frames written once as a single burst and once as
// 64 single-frame writes meet the same stalls, and the same boundary drop
// cuts both streams after the same frame.
func TestChaosConnFaultsPerFrame(t *testing.T) {
	const frames = 64
	raw := encodeFrames(7, frames)
	run := func(chunk int) (Counts, int) {
		w, r := socketpair(t)
		inj := NewInjector(11, WithConnStall(0.2, time.Microsecond), WithConnDropAtBoundary(0.02))
		cw := inj.Conn(w)
		go func() {
			for off := 0; off < len(raw); off += chunk {
				if _, err := cw.Write(raw[off : off+chunk]); err != nil {
					return
				}
			}
			cw.Close()
		}()
		dec := ipc.NewFrameDecoder(r)
		var out [frames]ipc.Message
		got := 0
		for {
			n, ok, err := dec.Decode(out[got:])
			if err != nil {
				t.Fatalf("chunk %d: decode: %v", chunk, err)
			}
			got += n
			if !ok {
				break
			}
		}
		return inj.Counts(), got
	}
	burstCounts, burstGot := run(frames * ipc.MessageSize)
	singleCounts, singleGot := run(ipc.MessageSize)
	if burstCounts.ConnStalls == 0 || burstCounts.ConnDropBoundaries != 1 {
		t.Fatalf("burst write drew %+v, want stalls and one boundary drop", burstCounts)
	}
	if burstCounts != singleCounts || burstGot != singleGot {
		t.Fatalf("one burst: %+v, %d frames delivered; single frames: %+v, %d frames delivered — want equal",
			burstCounts, burstGot, singleCounts, singleGot)
	}
}

// TestConnDecisionsDeterministic: the per-connection handshake-abuse
// decisions are a pure function of (seed, stream), and they perturb the
// schedule hash — two runs with one seed agree bit-for-bit, two seeds don't.
func TestConnDecisionsDeterministic(t *testing.T) {
	run := func(seed uint64) (string, uint64) {
		inj := NewInjector(seed, WithDupHello(0.5), WithStaleResume(0.5))
		var pattern []byte
		for i := 0; i < 64; i++ {
			stream := inj.NextStream()
			b := byte('0')
			if inj.DupHello(stream) {
				b |= 1
			}
			if inj.StaleResume(stream) {
				b |= 2
			}
			pattern = append(pattern, b)
		}
		return string(pattern), inj.ScheduleHash()
	}
	p1, h1 := run(7)
	p2, h2 := run(7)
	if p1 != p2 || h1 != h2 {
		t.Fatalf("same seed diverged: %q/%x vs %q/%x", p1, h1, p2, h2)
	}
	p3, h3 := run(8)
	if p1 == p3 && h1 == h3 {
		t.Fatal("different seeds produced identical decision pattern and hash")
	}
	// Both fault classes actually fire at rate 0.5 over 64 connections.
	inj := NewInjector(7, WithDupHello(0.5), WithStaleResume(0.5))
	for i := 0; i < 64; i++ {
		s := inj.NextStream()
		inj.DupHello(s)
		inj.StaleResume(s)
	}
	c := inj.Counts()
	if c.DupHellos == 0 || c.StaleResumes == 0 {
		t.Fatalf("faults never fired at rate 0.5: %+v", c)
	}
}
