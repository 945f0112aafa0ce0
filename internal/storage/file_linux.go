//go:build linux

package storage

import (
	"io"
	"runtime"
	"syscall"
	"unsafe" //mlpvet:allow unsafeconfine FileTier's per-op system calls take their NUL-terminated paths as raw pointers: the syscall package's string wrappers allocate a copy of every path, and renameat2 has no wrapper at all
)

// FileTier's system-call primitives on Linux: every per-operation call
// goes straight to the kernel on a raw descriptor, with the path a
// NUL-terminated cpath built in the caller's stack buffer, so a Read,
// ReadVec, Write or Delete allocates nothing. The os package would
// allocate a path copy per call, an *os.File per open and a FileInfo
// per Stat.

// rawFile is an open descriptor.
type rawFile int

// sysRenameat2 is renameat2's system call number on this architecture,
// or 0 where it is not listed here; there exchange reports
// errNoExchange and rename goes through the syscall package.
var sysRenameat2 = map[string]uintptr{
	"amd64":   316,
	"386":     353,
	"arm64":   276,
	"riscv64": 276,
	"loong64": 276,
}[runtime.GOARCH]

const (
	atFDCWD        = -0x64  // AT_FDCWD: paths resolve from the working directory
	renameExchange = 1 << 1 // renameat2's RENAME_EXCHANGE flag
)

// openat opens p, retrying EINTR.
func openat(p cpath, flags int, mode uint32) (rawFile, error) {
	dirfd := atFDCWD
	for {
		fd, _, errno := syscall.Syscall6(syscall.SYS_OPENAT,
			uintptr(dirfd), uintptr(unsafe.Pointer(&p[0])),
			uintptr(flags|syscall.O_CLOEXEC|syscall.O_LARGEFILE), uintptr(mode), 0, 0)
		switch errno {
		case 0:
			return rawFile(fd), nil
		case syscall.EINTR:
			continue
		}
		return -1, errno
	}
}

// openObject opens p for reading and returns the descriptor with the
// size of the file it names.
func openObject(p cpath) (rawFile, int64, error) {
	f, err := openat(p, syscall.O_RDONLY, 0)
	if err != nil {
		return -1, 0, err
	}
	var st syscall.Stat_t
	if err := syscall.Fstat(int(f), &st); err != nil {
		f.Close()
		return -1, 0, err
	}
	return f, st.Size, nil
}

// createExcl creates p, which must not exist, for writing at mode 0644
// (less the umask).
func createExcl(p cpath) (rawFile, error) {
	return openat(p, syscall.O_WRONLY|syscall.O_CREAT|syscall.O_EXCL, 0o644)
}

// ReadAt is pread(2). A read at or past the end of the file reports
// io.EOF, as os.File's does.
func (f rawFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := syscall.Pread(int(f), p, off)
	if err != nil {
		return 0, err
	}
	if n == 0 && len(p) > 0 {
		return 0, io.EOF
	}
	return n, nil
}

// WriteAt is pwrite(2).
func (f rawFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := syscall.Pwrite(int(f), p, off)
	if err != nil {
		return 0, err
	}
	return n, nil
}

// Close closes the descriptor. It is not retried on EINTR: Linux has
// released the descriptor by then.
func (f rawFile) Close() error { return syscall.Close(int(f)) }

// rename moves oldpath to newpath, replacing any file there.
func rename(oldpath, newpath cpath) error {
	if sysRenameat2 != 0 {
		if err := renameat2(oldpath, newpath, 0); err != syscall.ENOSYS {
			return err
		}
	}
	return syscall.Rename(oldpath.String(), newpath.String())
}

// exchange atomically swaps the directory entries oldpath and newpath,
// both of which must exist: afterwards newpath names oldpath's inode and
// oldpath names newpath's. A missing entry fails with ENOENT. A kernel,
// filesystem or architecture without the exchange fails with
// errNoExchange.
func exchange(oldpath, newpath cpath) error {
	if sysRenameat2 == 0 {
		return errNoExchange
	}
	switch err := renameat2(oldpath, newpath, renameExchange); err {
	case nil:
		return nil
	case syscall.EINVAL, syscall.ENOSYS, syscall.EOPNOTSUPP:
		return errNoExchange
	default:
		return err
	}
}

// renameat2 is renameat2(2) relative to the working directory. It
// returns a nil error or a bare syscall.Errno.
func renameat2(oldpath, newpath cpath, flags uintptr) error {
	dirfd := atFDCWD
	_, _, errno := syscall.Syscall6(sysRenameat2,
		uintptr(dirfd), uintptr(unsafe.Pointer(&oldpath[0])),
		uintptr(dirfd), uintptr(unsafe.Pointer(&newpath[0])),
		flags, 0)
	if errno != 0 {
		return errno
	}
	return nil
}

// unlink removes the file p.
func unlink(p cpath) error {
	dirfd := atFDCWD
	_, _, errno := syscall.Syscall(syscall.SYS_UNLINKAT,
		uintptr(dirfd), uintptr(unsafe.Pointer(&p[0])), 0)
	if errno != 0 {
		return errno
	}
	return nil
}
