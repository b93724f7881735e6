//go:build !linux

package store

// dropPages does nothing: package syscall has madvise on Linux only.
func dropPages([]byte) error { return nil }
