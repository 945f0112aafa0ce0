//go:build !linux

package storage

// exchange is Linux's renameat2(RENAME_EXCHANGE); elsewhere Write
// publishes by plain rename.
func exchange(oldpath, newpath string) error { return errNoExchange }
