//go:build !linux

package storage

import "os"

// FileTier's system-call primitives outside Linux go through the os
// package; the paths arrive as the same NUL-terminated cpaths Linux
// passes to the kernel.

// rawFile is an open file.
type rawFile struct{ *os.File }

// openObject opens p for reading and returns the file with the size of
// the object it names.
func openObject(p cpath) (rawFile, int64, error) {
	fh, err := os.Open(p.String())
	if err != nil {
		return rawFile{}, 0, err
	}
	st, err := fh.Stat()
	if err != nil {
		fh.Close()
		return rawFile{}, 0, err
	}
	return rawFile{fh}, st.Size(), nil
}

// createExcl creates p, which must not exist, for writing at mode 0644
// (less the umask).
func createExcl(p cpath) (rawFile, error) {
	fh, err := os.OpenFile(p.String(), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	return rawFile{fh}, err
}

// rename moves oldpath to newpath, replacing any file there.
func rename(oldpath, newpath cpath) error {
	return os.Rename(oldpath.String(), newpath.String())
}

// exchange is Linux's renameat2(RENAME_EXCHANGE); elsewhere Write
// publishes by plain rename.
func exchange(oldpath, newpath cpath) error { return errNoExchange }

// unlink removes the file p.
func unlink(p cpath) error { return os.Remove(p.String()) }
