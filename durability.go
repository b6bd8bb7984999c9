package repro

import (
	"repro/internal/relation/durable"
)

// The crash-consistent segment store (DESIGN.md §15): sealed segments spill
// to checksummed per-segment files, the active tail is protected by an
// append-only WAL, and a generation-numbered manifest is replaced atomically.
// A System built over a durable store serves the store's surviving rows —
// when recovery quarantined corrupt segments, the system runs degraded
// (StorageDegraded) and the server reports it via healthz's "durability"
// block and an X-Degraded: storage response header.

type (
	// DurableStore is an on-disk, crash-consistent segment store the relation
	// can spill to and be recovered from.
	DurableStore = durable.Store
	// DurableOptions configures Create/Open of a DurableStore.
	DurableOptions = durable.Options
	// DurabilityStats is the durability snapshot behind healthz.
	DurabilityStats = durable.Stats
	// Quarantine describes one segment recovery took out of service.
	Quarantine = durable.Quarantine
	// SyncPolicy says when the store fsyncs acknowledged appends.
	SyncPolicy = durable.SyncPolicy
)

// Sync policies: fsync every append, every batch, or only on structural
// writes (seal, manifest, close).
const (
	SyncAlways = durable.SyncAlways
	SyncBatch  = durable.SyncBatch
	SyncNone   = durable.SyncNone
)

// CreateDurable initializes a new durable store in dir (which must not
// already hold one).
func CreateDurable(dir string, schema *Schema, opts DurableOptions) (*DurableStore, error) {
	return durable.Create(dir, schema, opts)
}

// OpenDurable recovers the store in dir: the WAL is replayed to the first
// torn record, column-page checksums are verified as Relation reads them, and
// corrupt segments are quarantined rather than refusing to start.
func OpenDurable(dir string, opts DurableOptions) (*DurableStore, error) {
	return durable.Open(dir, opts)
}

// IsDurableNotExist reports whether err (from OpenDurable) means dir holds
// no store — the caller should CreateDurable and seed it.
func IsDurableNotExist(err error) bool { return durable.IsNotExist(err) }

// ParseSyncPolicy parses "always", "batch" (the default), or "none".
func ParseSyncPolicy(s string) (SyncPolicy, error) { return durable.ParseSyncPolicy(s) }

// DurabilityStats returns the durable store's counters and quarantine state.
// ok is false when the system is purely in-memory (no Config.Durable).
func (s *System) DurabilityStats() (DurabilityStats, bool) {
	if s.dur == nil {
		return DurabilityStats{}, false
	}
	return s.dur.Stats(), true
}

// StorageDegraded reports whether the backing durable store quarantined any
// segment — the system is serving the surviving rows, not the full dataset.
// Always false for purely in-memory systems.
func (s *System) StorageDegraded() bool {
	return s.dur != nil && s.dur.Degraded()
}

// DurableStore returns the backing store, or nil for in-memory systems.
func (s *System) DurableStore() *DurableStore { return s.dur }
