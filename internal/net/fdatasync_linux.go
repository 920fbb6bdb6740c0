package netio

import (
	"os"
	"syscall"
)

// fdatasync flushes the file's data and the metadata needed to read it
// back (its length), not its timestamps: what an append needs to be
// durable, in one journal commit less than fsync on most filesystems.
func fdatasync(f *os.File) error {
	conn, err := f.SyscallConn()
	if err != nil {
		return err
	}
	var serr error
	if err := conn.Control(func(fd uintptr) {
		for {
			if serr = syscall.Fdatasync(int(fd)); serr != syscall.EINTR {
				return
			}
		}
	}); err != nil {
		return err
	}
	return serr
}
