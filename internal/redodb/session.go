package redodb

import "repro/internal/ptm"

// Session is a per-thread handle to the database. All methods are durable
// linearizable transactions with bounded wait-free progress.
type Session struct {
	db  *DB
	tid int

	// Optimistic-read scratch: parameters and result buffer for the
	// pre-bound getFn/hasFn closures, valid only for the duration of one
	// TryRead call on this session's goroutine. Announced closures must
	// never touch these — a stale helper could observe a later call's
	// values — which is why the contended fallbacks below clone instead.
	readKey  []byte
	readHash uint64
	readDst  []byte
	getFn    func(ptm.Mem) uint64
	hasFn    func(ptm.Mem) uint64
}

// Put stores (key, value), overwriting any previous value. The closure may
// be re-executed by helper threads, so key and value are snapshotted — into
// a single shared backing array, the method's only data allocation.
func (s *Session) Put(key, value []byte) {
	kv := make([]byte, len(key)+len(value))
	copy(kv, key)
	copy(kv[len(key):], value)
	k, v := kv[:len(key):len(key)], kv[len(key):]
	root := s.db.root
	s.db.eng.Update(s.tid, func(m ptm.Mem) uint64 {
		return putLocked(m, root, k, v)
	})
}

// getRead is the optimistic lookup bound to getFn at session creation.
func (s *Session) getRead(m ptm.Mem) uint64 {
	node, _, _ := findNode(m, s.db.root, s.readKey, s.readHash)
	if node == 0 {
		return 0
	}
	s.readDst = ptm.LoadBytesAppend(m, m.Load(node+ndVal), s.readDst)
	return 1
}

// hasRead is the optimistic membership probe bound to hasFn.
func (s *Session) hasRead(m ptm.Mem) uint64 {
	node, _, _ := findNode(m, s.db.root, s.readKey, s.readHash)
	if node == 0 {
		return 0
	}
	return 1
}

// Get returns the value stored under key, or (nil, false) if absent.
func (s *Session) Get(key []byte) ([]byte, bool) {
	val, ok := s.GetAppend(nil, key)
	if !ok {
		return nil, false
	}
	if val == nil {
		val = []byte{}
	}
	return val, true
}

// GetAppend appends the value stored under key to dst and returns the
// extended slice, plus whether the key was present (dst is returned
// unchanged when absent). With sufficient capacity in dst the uncontended
// path performs zero heap allocations — the value travels from persistent
// words straight into dst, with no intermediate clone or outbox copy.
func (s *Session) GetAppend(dst, key []byte) ([]byte, bool) {
	// Optimistic path: TryRead never announces the closure, so it may
	// alias key and dst through the session scratch fields.
	s.readKey, s.readHash, s.readDst = key, hashKey(key), dst
	res, ok := s.db.eng.TryRead(s.tid, s.getFn)
	out := s.readDst
	s.readKey, s.readDst = nil, nil
	if ok {
		return out, res == 1
	}
	// Contended: announce a helper-safe closure (clones the key, routes
	// the value through the executor outbox).
	k := append([]byte(nil), key...)
	root := s.db.root
	found, val := s.db.eng.ReadWithBytes(s.tid, func(m ptm.Mem) uint64 {
		node, _, _ := findNode(m, root, k, hashKey(k))
		if node == 0 {
			return 0
		}
		ptm.EmitBytes(m, ptm.LoadBytes(m, m.Load(node+ndVal)))
		return 1
	})
	if found == 0 {
		return dst, false
	}
	return append(dst, val...), true
}

// Has reports whether key is present, without materializing the value.
func (s *Session) Has(key []byte) bool {
	s.readKey, s.readHash = key, hashKey(key)
	res, ok := s.db.eng.TryRead(s.tid, s.hasFn)
	s.readKey = nil
	if ok {
		return res == 1
	}
	k := append([]byte(nil), key...)
	root := s.db.root
	return s.db.eng.Read(s.tid, func(m ptm.Mem) uint64 {
		node, _, _ := findNode(m, root, k, hashKey(k))
		if node == 0 {
			return 0
		}
		return 1
	}) == 1
}

// Delete removes key, reporting whether it was present.
func (s *Session) Delete(key []byte) bool {
	k := append([]byte(nil), key...)
	root := s.db.root
	return s.db.eng.Update(s.tid, func(m ptm.Mem) uint64 {
		return deleteLocked(m, root, k)
	}) == 1
}

// Len returns the number of keys.
func (s *Session) Len() uint64 {
	root := s.db.root
	return s.db.eng.Read(s.tid, func(m ptm.Mem) uint64 {
		return m.Load(m.Load(root) + hdrCount)
	})
}

// Op is one write of a batch: a put of Val under Key, or, with Del set, a
// delete of Key.
type Op struct {
	Key, Val []byte
	Del      bool
}

// applyOps applies ops in order inside an update transaction; later ops on
// the same key win.
func applyOps(m ptm.Mem, root uint64, ops []Op) {
	for _, op := range ops {
		if op.Del {
			deleteLocked(m, root, op.Key)
		} else {
			putLocked(m, root, op.Key, op.Val)
		}
	}
}

// Write applies ops as one atomic durable transaction and, when tagSlot >= 0,
// records tag in persistent root slot tagSlot in the same transaction. A
// multi-shard coordinator tags each shard's sub-batch with the batch
// sequence number: after a crash, the recovered tag tells exactly which
// sub-batches were already applied, making replay idempotent. tagSlot must
// not be a slot the engine owns (0 and 2).
//
// Write takes ownership of ops and the bytes they reference: the closure may
// be re-executed by helpers, so the caller must not modify them afterwards.
func (s *Session) Write(ops []Op, tagSlot int, tag uint64) {
	root := s.db.root
	tagAddr := tagAddrOf(tagSlot)
	s.db.eng.Update(s.tid, func(m ptm.Mem) uint64 {
		applyOps(m, root, ops)
		if tagAddr != 0 {
			m.Store(tagAddr, tag)
		}
		return 0
	})
}

// tagAddrOf maps a Write tag slot to its root address (0: no tag).
func tagAddrOf(tagSlot int) uint64 {
	if tagSlot < 0 {
		return 0
	}
	return ptm.RootAddr(tagSlot)
}

// TagAt returns the tag last recorded in root slot tagSlot by Write
// (0 if never written).
func (s *Session) TagAt(tagSlot int) uint64 {
	tagAddr := ptm.RootAddr(tagSlot)
	return s.db.eng.Read(s.tid, func(m ptm.Mem) uint64 {
		return m.Load(tagAddr)
	})
}
