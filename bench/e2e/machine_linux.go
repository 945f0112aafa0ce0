package main

import (
	"fmt"
	"os"
	"strings"
	"syscall"
)

// procField returns the first value of key in a /proc "key: value" file.
func procField(path, key string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

func cpuModel() string { return procField("/proc/cpuinfo", "model name") }

func kernelRelease() string {
	data, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(data))
}

// peakRSSMiB is the process's resident-set high-water mark so far.
func peakRSSMiB() float64 {
	var kb float64
	if _, err := fmt.Sscanf(procField("/proc/self/status", "VmHWM"), "%f kB", &kb); err != nil {
		return 0
	}
	return kb / 1024
}

// filesystemOf names the filesystem holding dir, by its statfs magic.
func filesystemOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return ""
	}
	names := map[int64]string{
		0xef53: "ext4", 0x58465342: "xfs", 0x9123683e: "btrfs", 0x01021994: "tmpfs",
		0x794c7630: "overlayfs", 0x6969: "nfs", 0x2fc12fc1: "zfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
