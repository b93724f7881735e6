package store

import "syscall"

// dropPages tells the kernel the pages of a file mapping need not stay
// resident; they are read back from the file on the next touch.
func dropPages(mapping []byte) error {
	return syscall.Madvise(mapping, syscall.MADV_DONTNEED)
}
