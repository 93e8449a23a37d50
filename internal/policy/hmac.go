package policy

import (
	"fmt"

	"herqules/internal/ipc"
)

// HMAC is the verifier-side half of the CCFI-style authenticated channel
// (Mashtizadeh et al., PAPERS.md): every message arrives sealed by
// ipc.SealSender under the process's kernel-programmed key, and this policy —
// a Sealer, so it runs before the sequence check and every other policy —
// recomputes the tag, checks the stream position, and strips the envelope.
// On an untrusted transport this turns bit flips, replays, reorders, and
// cross-process splices into attributable authentication kills instead of
// silent corruption or misattributed sequence-gap kills.
type HMAC struct {
	ring *Keyring
	// key caches the process key once ProcessStarted resolves it; the hot
	// path then never touches the keyring lock.
	key   ipc.MacKey
	bound bool
	pid   int32
	// last is the verifier-side stream position: the Seq of the last
	// authenticated message. Sealed streams count from 1 with no gaps, so
	// anything other than last+1 is a replay, reorder, or drop.
	last uint64
}

// NewHMAC creates the policy. A nil ring (the registry default) is bound
// later through KeyBinder; an unbound instance rejects every message, which
// is the fail-closed reading of "no key was ever programmed".
func NewHMAC(ring *Keyring) *HMAC {
	return &HMAC{ring: ring}
}

// Name implements Policy.
func (h *HMAC) Name() string { return "hmac" }

// Entries implements Policy; the sealer keeps no per-message metadata.
func (h *HMAC) Entries() int { return 0 }

// BindKeyring implements KeyBinder.
func (h *HMAC) BindKeyring(kr *Keyring) { h.ring = kr }

// ProcessStarted implements Policy, caching the key the kernel programmed at
// registration (the kernel programs it before the process becomes visible,
// so the lookup here cannot race the first message).
func (h *HMAC) ProcessStarted(pid int32) {
	h.pid = pid
	h.resolveKey()
}

// ProcessForked implements Policy on the cloned child instance: the child
// inherits the parent's key (the keyring copied it at kernel fork time) but
// its channel — and therefore its sequence stream — starts fresh.
func (h *HMAC) ProcessForked(parent, child int32) {
	h.pid = child
	h.last = 0
	h.bound = false
	h.resolveKey()
}

func (h *HMAC) resolveKey() {
	if h.ring == nil {
		return
	}
	if k, ok := h.ring.Key(h.pid); ok {
		h.key, h.bound = k, true
	}
}

// Clone implements Policy. The keyring pointer is shared (it is the system
// keyring); the cached key and stream position are per-instance and the
// child's are reset by ProcessForked.
func (h *HMAC) Clone() Policy {
	n := *h
	return &n
}

// Ops implements Policy: the sealer handles no op, so the verifier never
// calls its Handle.
func (h *HMAC) Ops() ipc.OpSet { return 0 }

// Handle implements Policy; all of the sealer's checking happens in Unseal.
func (h *HMAC) Handle(m ipc.Message) *Violation { return nil }

// Unseal implements Sealer: verify the tag, verify the stream position,
// strip the envelope.
func (h *HMAC) Unseal(m ipc.Message) (ipc.Message, *Violation) {
	if !h.bound {
		h.resolveKey() // late binding: key programmed after attach (tests)
		if !h.bound {
			return m, &Violation{PID: m.PID, Op: m.Op, Addr: m.Arg1, Policy: "hmac",
				Reason: "message authentication failed: no key programmed for process"}
		}
	}
	if ipc.MacSeal(h.key, m, m.Seq) != m.Mac {
		return m, &Violation{PID: m.PID, Op: m.Op, Addr: m.Arg1, Value: m.Mac, Policy: "hmac",
			Reason: "message authentication failed: MAC mismatch (forged, corrupted or spliced)"}
	}
	if m.Seq != h.last+1 {
		return m, &Violation{PID: m.PID, Op: m.Op, Addr: m.Arg1, Value: m.Seq, Policy: "hmac",
			Reason: fmt.Sprintf("message authentication failed: stream position %d after %d (replayed, reordered or dropped)",
				m.Seq, h.last)}
	}
	h.last = m.Seq
	m.Mac = 0
	return m, nil
}

var (
	_ Policy    = (*HMAC)(nil)
	_ Sealer    = (*HMAC)(nil)
	_ KeyBinder = (*HMAC)(nil)
)
