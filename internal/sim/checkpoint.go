package sim

import "fmt"

// EngineCheckpointVersion is the current EngineCheckpoint schema version.
const EngineCheckpointVersion = 1

// EngineCheckpoint is the versioned snapshot of an Engine's run state: the
// slot cursor, the previous slot's active count (the switching-cost
// anchor), and the records of every settled slot. The scenario and policy
// are construction parameters, not state — rebuild them identically (and
// restore the policy's own checkpoint, e.g. core.Policy's queue) before
// restoring the engine; the Policy name is carried only as a guard against
// resuming the wrong pairing. SlotRecord is all exported float64/int
// fields, so the snapshot round-trips through JSON bit-for-bit.
type EngineCheckpoint struct {
	Version    int          `json:"version"`
	Policy     string       `json:"policy"`
	Slot       int          `json:"slot"`
	PrevActive int          `json:"prev_active"`
	Records    []SlotRecord `json:"records"`
}

// Checkpoint snapshots the engine between steps. The records are copied,
// so a later Step does not mutate the snapshot.
func (e *Engine) Checkpoint() EngineCheckpoint {
	return EngineCheckpoint{
		Version:    EngineCheckpointVersion,
		Policy:     e.res.Policy,
		Slot:       e.t,
		PrevActive: e.prevActive,
		Records:    append([]SlotRecord(nil), e.res.Records...),
	}
}

// RestoreFrom replaces the engine's run state with the snapshot: the next
// Step executes slot ck.Slot exactly as the uninterrupted run would have,
// producing the same records, observer calls and spans. It validates the
// snapshot against the engine's scenario and policy.
func (e *Engine) RestoreFrom(ck EngineCheckpoint) error {
	if ck.Version != EngineCheckpointVersion {
		return fmt.Errorf("sim: engine checkpoint version %d, want %d", ck.Version, EngineCheckpointVersion)
	}
	if ck.Policy != e.res.Policy {
		return fmt.Errorf("sim: engine checkpoint for policy %q, engine runs %q", ck.Policy, e.res.Policy)
	}
	if ck.Slot < 0 || ck.Slot > e.sc.Slots {
		return fmt.Errorf("sim: engine checkpoint slot %d outside horizon [0, %d]", ck.Slot, e.sc.Slots)
	}
	if len(ck.Records) != ck.Slot {
		return fmt.Errorf("sim: engine checkpoint has %d records for slot cursor %d", len(ck.Records), ck.Slot)
	}
	if ck.PrevActive < 0 || ck.PrevActive > e.sc.N {
		return fmt.Errorf("sim: engine checkpoint prev_active %d outside fleet [0, %d]", ck.PrevActive, e.sc.N)
	}
	e.t = ck.Slot
	e.prevActive = ck.PrevActive
	e.res.Records = append(e.res.Records[:0], ck.Records...)
	return nil
}
