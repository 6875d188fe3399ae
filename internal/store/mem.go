package store

import (
	"context"
	"sync"
)

// MemStore is the process-local reference backend: a mutex-guarded map.
// It is the semantic model the other backends are tested against.
type MemStore struct {
	mu sync.RWMutex
	m  map[string][]byte
}

// NewMemStore builds an empty memory store.
func NewMemStore() *MemStore {
	return &MemStore{m: make(map[string][]byte)}
}

// Get returns the value for key, or ErrNotFound.
func (s *MemStore) Get(_ context.Context, key string) ([]byte, error) {
	s.mu.RLock()
	v, ok := s.m[key]
	s.mu.RUnlock()
	if !ok {
		return nil, ErrNotFound
	}
	// Copy out: callers may retain and mutate the returned slice.
	out := make([]byte, len(v))
	copy(out, v)
	return out, nil
}

// Put stores a copy of val under key.
func (s *MemStore) Put(_ context.Context, key string, val []byte) error {
	cp := make([]byte, len(val))
	copy(cp, val)
	s.mu.Lock()
	s.m[key] = cp
	s.mu.Unlock()
	return nil
}
