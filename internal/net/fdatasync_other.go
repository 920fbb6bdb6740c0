//go:build !linux

package netio

import "os"

// fdatasync falls back to a full fsync where the platform has no
// portable data-only sync.
func fdatasync(f *os.File) error { return f.Sync() }
