package main

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procIO is /proc/self/io: bytes and calls the process passed to
// write(2)-family syscalls, whatever the page cache later did with them.
type procIO struct {
	wchar, syscw int64
}

// readProcIO returns zeros where /proc is not available; the metrics
// built on it then read 0 instead of failing the run.
func readProcIO() procIO {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return procIO{}
	}
	defer f.Close()
	var io procIO
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, _ := strings.Cut(sc.Text(), ": ")
		n, _ := strconv.ParseInt(val, 10, 64)
		switch key {
		case "wchar":
			io.wchar = n
		case "syscw":
			io.syscw = n
		}
	}
	return io
}

// dirBytes sums the sizes of the regular files under root.
func dirBytes(root string) int64 {
	var total int64
	// Files may vanish mid-walk (a seal deletes staged chunks); what is
	// left when the walk reaches them is what counts.
	_ = filepath.WalkDir(root, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}
