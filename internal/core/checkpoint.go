package core

// Checkpoint/restore of controller state: both COCA forms expose their
// cross-slot state as explicit, versioned snapshot values with exact JSON
// round-trips, so a controller interrupted mid-year can be restarted and
// continue bit-for-bit. The sim-engine Policy's only state is its deficit
// queue (the engine owns the clock and the switching anchor); the
// group-level Controller adds its slot cursor, switching anchor and the
// P3 solver's evolved state.

import (
	"encoding/json"
	"fmt"

	"repro/internal/lyapunov"
)

// SolverState is the optional checkpoint surface of a P3 solver. Solvers
// that evolve cross-slot state (gsd.Solver: the advancing seed and the
// warm-start vector) implement it so Controller checkpoints can carry that
// state opaquely; stateless solvers simply don't, and the controller
// checkpoint omits the solver blob.
type SolverState interface {
	// CheckpointState returns the solver's evolved state as JSON.
	CheckpointState() ([]byte, error)
	// RestoreState replaces the solver's evolved state from JSON. On
	// error it must leave the state untouched: Controller.RestoreFrom
	// relies on that to stay atomic.
	RestoreState([]byte) error
}

// ControllerCheckpointVersion is the current ControllerCheckpoint schema
// version.
const ControllerCheckpointVersion = 1

// ControllerCheckpoint is the versioned snapshot of a Controller: the slot
// cursor, the settled switching-cost anchor, the deficit queue, and (when
// the plugged solver implements SolverState) the solver's evolved state.
// Snapshots are taken between slots — after Settle, before the next Step —
// so no half-decided slot needs capturing.
type ControllerCheckpoint struct {
	Version    int                      `json:"version"`
	Slot       int                      `json:"slot"`
	PrevActive int                      `json:"prev_active"`
	Queue      lyapunov.QueueCheckpoint `json:"queue"`
	Solver     json.RawMessage          `json:"solver,omitempty"`
}

// Checkpoint snapshots the controller's cross-slot state.
func (c *Controller) Checkpoint() (ControllerCheckpoint, error) {
	ck := ControllerCheckpoint{
		Version:    ControllerCheckpointVersion,
		Slot:       c.slot,
		PrevActive: c.prevActive,
		Queue:      c.queue.Checkpoint(),
	}
	if ss, ok := c.Solver.(SolverState); ok {
		blob, err := ss.CheckpointState()
		if err != nil {
			return ControllerCheckpoint{}, fmt.Errorf("core: solver checkpoint: %w", err)
		}
		ck.Solver = blob
	}
	return ck, nil
}

// RestoreFrom replaces the controller's cross-slot state with the
// snapshot. The cluster, schedule and solver configuration are not part of
// the snapshot — the caller must rebuild the controller with the same
// construction parameters, then restore; a snapshot carrying solver state
// for a solver that cannot accept it is an error rather than a silent
// divergence. Restore is atomic: the snapshot is validated and decoded in
// full before any state moves, so a rejected snapshot leaves the
// controller exactly as it was.
func (c *Controller) RestoreFrom(ck ControllerCheckpoint) error {
	if ck.Version != ControllerCheckpointVersion {
		return fmt.Errorf("core: controller checkpoint version %d, want %d", ck.Version, ControllerCheckpointVersion)
	}
	if ck.Slot < 0 {
		return fmt.Errorf("core: controller checkpoint slot %d is negative", ck.Slot)
	}
	if ck.PrevActive < 0 {
		return fmt.Errorf("core: controller checkpoint prev_active %d is negative", ck.PrevActive)
	}
	queue := *c.queue
	if err := queue.RestoreFrom(ck.Queue); err != nil {
		return err
	}
	if len(ck.Solver) > 0 {
		ss, ok := c.Solver.(SolverState)
		if !ok {
			return fmt.Errorf("core: checkpoint carries solver state but solver %T cannot restore it", c.Solver)
		}
		// The last fallible step: SolverState restores are all-or-nothing,
		// so a failure here still leaves every piece of state untouched.
		if err := ss.RestoreState(ck.Solver); err != nil {
			return err
		}
	}
	*c.queue = queue
	c.setGauge()
	c.slot = ck.Slot
	c.prevActive = ck.PrevActive
	return nil
}

// Checkpoint snapshots the policy's cross-slot state: its deficit queue.
// The engine's own checkpoint (sim.EngineCheckpoint) carries the clock and
// the switching anchor. SetV and the queue gauge are configuration, not
// state, and are left to the caller to re-apply.
func (p *Policy) Checkpoint() lyapunov.QueueCheckpoint { return p.queue.Checkpoint() }

// RestoreFrom replaces the policy's deficit queue with the snapshot.
func (p *Policy) RestoreFrom(ck lyapunov.QueueCheckpoint) error {
	if err := p.queue.RestoreFrom(ck); err != nil {
		return err
	}
	p.setGauge()
	return nil
}
