package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat.
// Linux fixes it at 100 for userspace on every mainstream architecture.
const clockTicks = 100

// cpuMicros returns a process's user+system CPU time in microseconds,
// read from /proc/<pid>/stat.
func cpuMicros(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	f, err := statFields(b)
	if err != nil {
		return 0, fmt.Errorf("pid %d: %w", pid, err)
	}
	// Fields after the command name start at field 3 (state); utime and
	// stime are fields 14 and 15.
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("pid %d: bad utime/stime %q %q", pid, f[11], f[12])
	}
	return (ut + st) * (1_000_000 / clockTicks), nil
}

// statFields splits /proc/<pid>/stat after the parenthesised command
// name (which may itself hold spaces and parentheses).
func statFields(b []byte) ([]string, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return nil, fmt.Errorf("malformed stat line")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return nil, fmt.Errorf("short stat line (%d fields)", len(f))
	}
	return f, nil
}

// statusKB returns a memory field of /proc/<pid>/status in KiB, such
// as VmHWM (peak resident set) or VmRSS (resident set now).
func statusKB(pid int, field string) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("pid %d: no %s", pid, field)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
