//go:build !linux

package main

// Only Linux exposes what these report; elsewhere the benchmark still
// runs and leaves them blank (peak_rss_mib reads 0).

func cpuModel() string           { return "" }
func kernelRelease() string      { return "" }
func peakRSSMiB() float64        { return 0 }
func filesystemOf(string) string { return "" }
