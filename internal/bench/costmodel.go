// Package bench implements the evaluation harness: the Memtier-like
// workload generators, the calibrated virtual-time cost model, and the
// experiment drivers that regenerate every table and figure of the
// paper's §6 (see DESIGN.md's per-experiment index).
package bench

import (
	"fmt"
	"time"

	"mvedsua/internal/mve"
	"mvedsua/internal/sysabi"
)

// Mode is a Table 2 configuration row.
type Mode int

// Table 2 rows.
const (
	ModeNative   Mode = iota // plain binary
	ModeKitsune              // DSU-ready binary (update-point checks)
	ModeVaran1               // MVE single-leader interception only
	ModeMvedsua1             // Kitsune + Varan single-leader (steady state)
	ModeVaran2               // MVE leader/follower recording
	ModeMvedsua2             // full MVEDSUA during an update window
	ModeLockstep             // MUC/Mx-style lockstep baseline (related work)
)

// Modes lists the Table 2 rows in presentation order.
var Modes = []Mode{ModeNative, ModeKitsune, ModeVaran1, ModeMvedsua1, ModeVaran2, ModeMvedsua2}

// String names the mode as in Table 2.
func (m Mode) String() string {
	switch m {
	case ModeNative:
		return "Native"
	case ModeKitsune:
		return "Kitsune"
	case ModeVaran1:
		return "Varan-1"
	case ModeMvedsua1:
		return "Mvedsua-1"
	case ModeVaran2:
		return "Varan-2"
	case ModeMvedsua2:
		return "Mvedsua-2"
	case ModeLockstep:
		return "Lockstep (MUC-like)"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// The calibrated cost constants. The *mechanism* that charges each cost
// is structural (interception happens per syscall, recording per leader
// syscall, and so on); only these magnitudes are fitted, once, so that
// the Table 2 overhead bands match the paper's measurements:
// Kitsune 0-3%, single-leader MVEDSUA 3-9%, leader/follower 25-52%.
// Absolute ops/sec are not expected to match the paper's testbed.
const (
	// SyscallBase is the native cost of any virtual syscall.
	SyscallBase = 1300 * time.Nanosecond

	// InterceptCost is Varan's per-syscall single-leader overhead.
	InterceptCost = 100 * time.Nanosecond
	// RecordCost is the leader's per-syscall overhead while a follower
	// is attached (ring-buffer registration + signalling).
	RecordCost = 550 * time.Nanosecond
	// ReplayCost is the follower's per-event processing time; it elapses
	// in parallel with leader service and sets the catch-up drain rate.
	// Calibrated so a follower drains the buffer at roughly twice the
	// leader's fill rate, matching the paper's footnote 11 ("it will
	// take half that time to consume the buffer").
	ReplayCost = 1250 * time.Nanosecond
	// UpdateCheckCost is Kitsune's per-update-point check.
	UpdateCheckCost = 100 * time.Nanosecond
	// LockstepSyncCost is the per-syscall synchronization penalty of the
	// MUC/Mx lockstep execution model.
	LockstepSyncCost = 3 * time.Microsecond

	// Per-command user-space CPU, differentiating the workloads:
	// Memcached ops are almost pure syscall dispatch; the kvstore does
	// a little more parsing; FTP command processing is user-space heavy
	// ("small" transfers stress it, §6.1).
	KVStoreCmdCPU  = 2 * time.Microsecond
	MemcacheCmdCPU = 200 * time.Nanosecond
	FTPCmdCPU      = 8 * time.Microsecond
)

// KernelCost is the vos.Kernel BaseCost hook: native per-syscall cost.
// Every syscall costs SyscallBase whatever it carries. Payload bytes are
// free because Table 2's large-file Vsftpd rows are calibrated without
// a per-byte term; adding one would move every byte-heavy figure.
func KernelCost(sysabi.Call) time.Duration {
	return SyscallBase
}

// MVECosts returns the monitor cost set for a mode.
func MVECosts(m Mode) mve.Costs {
	switch m {
	case ModeVaran1, ModeMvedsua1:
		return mve.Costs{Intercept: InterceptCost}
	case ModeVaran2, ModeMvedsua2:
		return mve.Costs{
			Intercept: InterceptCost,
			Record:    RecordCost,
			Replay:    ReplayCost,
		}
	case ModeLockstep:
		return mve.Costs{
			Intercept:    InterceptCost,
			Record:       RecordCost,
			Replay:       ReplayCost,
			LockstepSync: LockstepSyncCost,
		}
	default:
		return mve.Costs{}
	}
}

// DSUCheckCost returns the update-point cost for a mode.
func DSUCheckCost(m Mode) time.Duration {
	switch m {
	case ModeKitsune, ModeMvedsua1, ModeMvedsua2:
		return UpdateCheckCost
	default:
		return 0
	}
}
