package chaos

import (
	"net"
	"sync/atomic"
	"time"

	"herqules/internal/ipc"
)

// faultConn applies connection-level faults to a wrapped net.Conn: write
// stalls (a frozen path) and transport death mid-frame (half a frame on the
// wire, then close) or at a frame boundary. All three are drawn once per
// 48-byte frame inside each write, indexed by the frame's position in the
// connection's byte stream, so a client that coalesces many frames into one
// write meets as many faults as one that writes them singly. The frame
// index still depends on write timing (which write carries which frame), so
// the draws are excluded from the schedule hash, like RecvBatch call counts.
//
// The wrapper faults only the write side: a dropped write is observable at
// the far end as a truncated frame (the exact failure the fd-framing
// partial-frame carry and the networked resume protocol both exist to
// handle), whereas a read-side drop would be indistinguishable from the
// peer simply not having sent yet.
type faultConn struct {
	net.Conn
	inj    *Injector
	stream uint64
	// frames counts frames written (whole or started). Atomic: a client
	// serializes its own writes, but the session read loop's acks and a
	// gate verdict may share one conn from separate goroutines.
	frames atomic.Uint64
	dead   atomic.Bool
}

// Conn wraps nc with the injector's connection-level faults. Use it as
// hqnet.ClientConfig.WrapConn (or around any stream transport carrying
// 48-byte frames).
func (inj *Injector) Conn(nc net.Conn) net.Conn {
	return &faultConn{Conn: nc, inj: inj, stream: inj.streams.Add(1)}
}

func (fc *faultConn) Write(p []byte) (int, error) {
	inj := fc.inj
	n := uint64((len(p) + ipc.MessageSize - 1) / ipc.MessageSize)
	first := fc.frames.Add(n) - n
	if fc.dead.Load() {
		// Already chaos-killed: behave like the closed socket it is.
		return fc.Conn.Write(p)
	}
	for f := uint64(0); f < n; f++ {
		i, start := first+f, int(f)*ipc.MessageSize
		if hit(inj.draw(FaultConnStall, fc.stream, i), inj.cfg.connStall) {
			inj.count(FaultConnStall)
			time.Sleep(inj.cfg.connStallFor)
		}
		cut := -1
		if hit(inj.draw(FaultConnDrop, fc.stream, i), inj.cfg.connDrop) {
			inj.count(FaultConnDrop)
			// Truncate exactly inside this frame: the frames before it and
			// half of it escape, then the transport dies. The far side's
			// decoder must observe a mid-frame end, never a silently
			// shortened-but-clean stream.
			cut = start + min(ipc.MessageSize, len(p)-start)/2
		} else if hit(inj.draw(FaultConnDropBoundary, fc.stream, i), inj.cfg.connDropBoundary) {
			inj.count(FaultConnDropBoundary)
			// Truncate exactly AT this frame's start: the frames before it
			// escape, then the transport dies. Writes of whole frames (every
			// hqnet writer's) put the cut on a stream frame boundary, so the
			// far side's decoder sees a clean, carry-free end-of-stream and
			// the loss is detectable only above framing (lease expiry or a
			// CheckSeq gap).
			cut = start
		}
		if cut >= 0 {
			fc.dead.Store(true)
			written := 0
			if cut > 0 {
				written, _ = fc.Conn.Write(p[:cut])
			}
			fc.Conn.Close()
			return written, net.ErrClosed
		}
	}
	return fc.Conn.Write(p)
}

// connStreams hands out per-connection stream identifiers for the
// handshake-level decisions below; separate from the wrapper streams so a
// driver that does not wrap its conns still draws deterministically.
//
// DupHello decides whether the chaos-driven client on stream should send a
// duplicate HELLO after admission (a protocol violation the daemon answers
// by severing). Per-connection, so it is folded into the schedule hash —
// call it exactly once per connection stream.
func (inj *Injector) DupHello(stream uint64) bool {
	f := FaultNone
	if hit(inj.draw(FaultDupHello, stream, uint64(FaultDupHello)), inj.cfg.dupHello) {
		f = FaultDupHello
		inj.count(f)
	}
	inj.recordDecision(stream, uint64(FaultDupHello), f)
	return f == FaultDupHello
}

// StaleResume decides whether the chaos-driven client on stream should first
// attempt a resume with a forged token (which the daemon must reject without
// touching any live session). Per-connection, folded into the schedule hash —
// call it exactly once per connection stream.
func (inj *Injector) StaleResume(stream uint64) bool {
	f := FaultNone
	if hit(inj.draw(FaultStaleResume, stream, uint64(FaultStaleResume)), inj.cfg.staleResume) {
		f = FaultStaleResume
		inj.count(f)
	}
	inj.recordDecision(stream, uint64(FaultStaleResume), f)
	return f == FaultStaleResume
}

// NextStream allocates a fresh stream identifier from the injector's
// creation-order counter, for drivers that make per-connection decisions
// (DupHello, StaleResume) without wrapping a Sender/Receiver/Conn.
func (inj *Injector) NextStream() uint64 { return inj.streams.Add(1) }
