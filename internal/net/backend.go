package netio

import (
	"fmt"
	"sync"

	"approxcode/internal/chaos"
)

// A DataNode server fronts any chaos.NodeIO backend. Two are provided:
// MemBackend for tests and demos, FileBackend (columnlog.go) for a
// DataNode that persists its columns to a directory and survives
// process restarts (the rejoin-after-kill path of the chaos suite).

// MemBackend is an in-memory column store implementing chaos.NodeIO and
// chaos.PartialReader with the same semantics as the store's built-in
// nodes: copies on every boundary (stored bytes are never aliased by
// callers), chaos.ErrColumnMissing for absent columns, an empty write
// deletes. It takes writes one column at a time: a server over it runs
// the per-column side of handleWriteBatch.
type MemBackend struct {
	mu sync.RWMutex
	// columns[node][object][stripe]
	columns map[int]map[string]map[int][]byte
}

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend {
	return &MemBackend{columns: make(map[int]map[string]map[int][]byte)}
}

// ReadColumn implements chaos.NodeIO.
func (m *MemBackend) ReadColumn(node int, object string, stripe int) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	col, ok := m.columns[node][object][stripe]
	if !ok {
		return nil, fmt.Errorf("%w: node %d %s/%d", chaos.ErrColumnMissing, node, object, stripe)
	}
	out := make([]byte, len(col))
	copy(out, col)
	return out, nil
}

// ReadColumnAt implements chaos.PartialReader.
func (m *MemBackend) ReadColumnAt(node int, object string, stripe, off, n int) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	col, ok := m.columns[node][object][stripe]
	if !ok {
		return nil, fmt.Errorf("%w: node %d %s/%d", chaos.ErrColumnMissing, node, object, stripe)
	}
	// int64 arithmetic: off+n could wrap negative on 32-bit platforms
	// and sneak past the bounds check into a panicking slice.
	if off < 0 || n < 0 || int64(off)+int64(n) > int64(len(col)) {
		return nil, fmt.Errorf("%w: range [%d,%d) outside column of %d bytes",
			ErrInvalid, off, int64(off)+int64(n), len(col))
	}
	out := make([]byte, n)
	copy(out, col[off:off+n])
	return out, nil
}

// WriteColumn implements chaos.NodeIO.
func (m *MemBackend) WriteColumn(node int, object string, stripe int, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	m.mu.Lock()
	defer m.mu.Unlock()
	byObj := m.columns[node]
	if byObj == nil {
		byObj = make(map[string]map[int][]byte)
		m.columns[node] = byObj
	}
	byStripe := byObj[object]
	if byStripe == nil {
		byStripe = make(map[int][]byte)
		byObj[object] = byStripe
	}
	if len(cp) == 0 {
		delete(byStripe, stripe)
	} else {
		byStripe[stripe] = cp
	}
	return nil
}
