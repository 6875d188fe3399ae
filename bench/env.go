package bench

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// Env stamps a result file with what is needed to compare it with another:
// core count, Go version and runtime settings, CPU, kernel, and commit.
type Env struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOGC       string `json:"gogc"`
	GOMEMLIMIT string `json:"gomemlimit"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	GitSHA     string `json:"git_sha"`
	GitDirty   bool   `json:"git_dirty"`
}

// Stamp reads the environment. The commit comes from the working
// directory's own .git (run.sh works from the checkout root); outside a
// git checkout it is "unknown".
func Stamp() Env {
	e := Env{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOGC:       os.Getenv("GOGC"),
		GOMEMLIMIT: os.Getenv("GOMEMLIMIT"),
		CPUModel:   cpuModel(),
		Kernel:     readTrim("/proc/sys/kernel/osrelease"),
		GitSHA:     "unknown",
	}
	if _, err := os.Stat(".git"); err == nil {
		git := func(args ...string) (string, error) {
			// --git-dir pins git to this checkout; it never searches upwards.
			out, err := exec.Command("git", append([]string{"--git-dir", ".git", "--work-tree", "."}, args...)...).Output()
			return strings.TrimSpace(string(out)), err
		}
		if sha, err := git("rev-parse", "HEAD"); err == nil {
			e.GitSHA = sha
			status, err := git("status", "--porcelain", "--untracked-files=no")
			e.GitDirty = err != nil || status != ""
		}
	}
	return e
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// load1 is the 1-minute load average, or -1 where /proc has none.
func load1() float64 {
	fields := strings.Fields(readTrim("/proc/loadavg"))
	if len(fields) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return -1
	}
	return v
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}
