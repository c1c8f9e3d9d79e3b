package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// runMeta describes the environment a result was measured in. Results
// are comparable only between runs whose metadata agree (the seed and
// workload aside, which vary between runs on purpose).
type runMeta struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	// Executor is the file backend's I/O executor (io_uring or pread),
	// "sim" for the simulated device model.
	Executor string `json:"executor"`
	// DirectIO reports whether shard files are read with O_DIRECT.
	DirectIO bool `json:"direct_io"`
	// ShardFS is the filesystem type holding the shard files.
	ShardFS string `json:"shard_fs"`
}

func newMeta(workload string, seed int64) runMeta {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease") // empty off Linux
	return runMeta{
		Workload:   workload,
		Seed:       seed,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     strings.TrimSpace(string(kernel)),
		Executor:   "sim",
		ShardFS:    "none",
	}
}

// diff names the fields, other than the seed, in which m and old differ.
func (m runMeta) diff(old runMeta) []string {
	var out []string
	chk := func(name string, a, b any) {
		if a != b {
			out = append(out, fmt.Sprintf("%s (%v, was %v)", name, a, b))
		}
	}
	chk("nproc", m.NumCPU, old.NumCPU)
	chk("gomaxprocs", m.GOMAXPROCS, old.GOMAXPROCS)
	chk("go_version", m.GoVersion, old.GoVersion)
	chk("kernel", m.Kernel, old.Kernel)
	chk("executor", m.Executor, old.Executor)
	chk("direct_io", m.DirectIO, old.DirectIO)
	chk("shard_fs", m.ShardFS, old.ShardFS)
	return out
}

// fsType names the filesystem holding path.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("0x%x", uint32(st.Type))
	}
}
