package redodb

// Buffered durability for RedoDB: the session-facing half of the engine's
// group-commit mode (see internal/core/redo/buffered.go for the crash-safety
// argument). Puts commit into the in-flight epoch and return immediately;
// durability arrives when a caller seals the epoch — one fence for the
// whole group — and advances the durable-epoch watermark. The engine runs
// no persister of its own: Session.Sync and DB.Persist seal on the calling
// thread, keeping instruction counts deterministic for the crash sweeps, and
// the sharded front-end's group persister drives DB.Persist on a cadence.

// DurableEpoch returns the durable-epoch watermark. Operations whose epoch
// (Session.LastEpoch) is at or below it survive any crash.
func (db *DB) DurableEpoch() uint64 { return db.eng.DurableSeq() }

// CommittedEpoch returns the in-flight epoch's tail.
func (db *DB) CommittedEpoch() uint64 { return db.eng.CommittedSeq() }

// Persist seals the in-flight epoch, waits for it to become durable on the
// calling thread, and returns the new watermark. Safe to call concurrently
// from several threads. In synchronous mode it is a no-op returning the
// watermark (always the committed tail).
func (db *DB) Persist() uint64 {
	if !db.buffered {
		return db.eng.DurableSeq()
	}
	db.persistMu.Lock()
	defer db.persistMu.Unlock()
	return db.eng.Persist() // panics propagate (simulated power failure)
}

// LastEpoch returns the epoch of the session's last completed operation.
func (s *Session) LastEpoch() uint64 { return s.db.eng.LastSeq(s.tid) }

// Sync blocks until the session's last completed operation is durable: the
// buffered-durability consistency point. It seals the epoch on this thread
// when the watermark lags, and is a load otherwise; concurrent Syncs share
// one seal (group commit). A no-op in synchronous mode.
func (s *Session) Sync() {
	if !s.db.buffered {
		return
	}
	if s.db.eng.DurableSeq() >= s.db.eng.LastSeq(s.tid) {
		return
	}
	s.db.Persist()
}
