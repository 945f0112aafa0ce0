//go:build linux

package storage

import (
	"runtime"
	"syscall"
	"unsafe" //mlpvet:allow unsafeconfine renameat2 has no syscall-package wrapper; its two path arguments must cross as raw pointers
)

// sysRenameat2 is renameat2's system call number on this architecture,
// or 0 where it is not listed here; there exchange reports
// errNoExchange and Write publishes by plain rename.
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

// exchange atomically swaps the directory entries oldpath and newpath,
// both of which must exist: afterwards newpath names oldpath's inode and
// oldpath names newpath's. A missing entry fails with ENOENT. A kernel,
// filesystem or architecture without the exchange fails with
// errNoExchange.
func exchange(oldpath, newpath string) error {
	if sysRenameat2 == 0 {
		return errNoExchange
	}
	oldp, err := syscall.BytePtrFromString(oldpath)
	if err != nil {
		return err
	}
	newp, err := syscall.BytePtrFromString(newpath)
	if err != nil {
		return err
	}
	dirfd := atFDCWD
	_, _, errno := syscall.Syscall6(sysRenameat2,
		uintptr(dirfd), uintptr(unsafe.Pointer(oldp)),
		uintptr(dirfd), uintptr(unsafe.Pointer(newp)),
		renameExchange, 0)
	switch errno {
	case 0:
		return nil
	case syscall.EINVAL, syscall.ENOSYS, syscall.EOPNOTSUPP:
		return errNoExchange
	}
	return errno
}
