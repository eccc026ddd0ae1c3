package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// environment is recorded in every result file, so two files can be told
// apart when their numbers differ for reasons outside the program.
type environment struct {
	GitSHA     string `json:"git_sha"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	// WALFSType is the filesystem under the WAL temp dir: the fsync figures
	// are this sandbox's, not a storage device's.
	WALFSType string `json:"wal_fs_type"`
}

func readEnvironment(tmpRoot string) environment {
	e := environment{GitSHA: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), CPUModel: "unknown", WALFSType: fsType(tmpRoot)}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.GitSHA = strings.TrimSpace(string(out))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
				e.CPUModel = strings.TrimSpace(val)
				break
			}
		}
	}
	return e
}

// fsType names the filesystem holding dir ("" = the system temp dir).
func fsType(dir string) string {
	if dir == "" {
		dir = os.TempDir()
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("%#x", uint32(st.Type))
}
