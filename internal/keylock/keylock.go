// Package keylock hands out one mutex per key, so work on one block is
// serialized while work on different blocks runs in parallel.
package keylock

import "sync"

// Table is a set of per-key mutexes. Its map holds only the keys that
// are locked or waited on, so its size is bounded by the number of
// concurrent holders, not by the number of keys ever locked. The zero
// value is ready for use.
type Table[K comparable] struct {
	mu   sync.Mutex
	held map[K]*entry
}

type entry struct {
	mu   sync.Mutex
	refs int // holders plus waiters; the entry is dropped at zero
}

// Lock acquires key's mutex.
func (t *Table[K]) Lock(key K) {
	t.mu.Lock()
	if t.held == nil {
		t.held = make(map[K]*entry)
	}
	e := t.held[key]
	if e == nil {
		e = new(entry)
		t.held[key] = e
	}
	e.refs++
	t.mu.Unlock()
	e.mu.Lock()
}

// Unlock releases key's mutex, which the caller must hold.
func (t *Table[K]) Unlock(key K) {
	t.mu.Lock()
	e := t.held[key]
	e.mu.Unlock()
	if e.refs--; e.refs == 0 {
		delete(t.held, key)
	}
	t.mu.Unlock()
}
