package experiments

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Component groups for Table 6, mapping the paper's component breakdown to
// this repository's packages. Every package directory of the module belongs
// to exactly one component (TestTable6Counts enforces it).
var table6Components = []struct {
	Label string
	Dirs  []string
}{
	{"Hardware (FPGA+µarch)", []string{"internal/fpga", "internal/uarch"}},
	{"Kernel", []string{"internal/kernel"}},
	{"Compiler", []string{"internal/compiler", "internal/mir", "internal/analysis"}},
	{"IPC Interfaces", []string{"internal/ipc"}},
	{"Runtime (VM)", []string{"internal/vm", "internal/mem", "internal/sim"}},
	{"Verifier", []string{"internal/verifier", "internal/policy"}},
	{"Framework", []string{".", "internal/supervisor"}},
	{"Network (hqd)", []string{"internal/hqnet", "cmd/hqd"}},
	{"Observability", []string{"internal/telemetry", "internal/obs"}},
	{"Model checking", []string{"internal/verify", "internal/dsched"}},
	{"Evaluation", []string{"internal/workload", "internal/ripe", "internal/experiments", "internal/chaos"}},
	{"Tools", []string{"cmd/hqbench", "cmd/hqdemo", "cmd/hqrun", "cmd/loccount"}},
	{"Examples", []string{"examples/cfi", "examples/dfi", "examples/memsafety", "examples/quickstart", "examples/webserver"}},
}

// Table6 counts lines of code per component under root, excluding tests,
// blank lines, and comment-only lines — roughly the paper's "approximate
// lines of code" measure.
func Table6(root string) (string, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-24s %8s %8s\n", "Component", "Code", "Tests")
	var totalCode, totalTest int
	for _, c := range table6Components {
		var code, tests int
		for _, d := range c.Dirs {
			dir := filepath.Join(root, d)
			entries, err := os.ReadDir(dir)
			if err != nil {
				return "", fmt.Errorf("table6: %w", err)
			}
			for _, e := range entries {
				if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
					continue
				}
				n, err := countLoC(filepath.Join(dir, e.Name()))
				if err != nil {
					return "", err
				}
				if strings.HasSuffix(e.Name(), "_test.go") {
					tests += n
				} else {
					code += n
				}
			}
		}
		totalCode += code
		totalTest += tests
		fmt.Fprintf(&sb, "%-24s %8d %8d\n", c.Label, code, tests)
	}
	fmt.Fprintf(&sb, "%-24s %8d %8d\n", "Total", totalCode, totalTest)
	return sb.String(), nil
}

// countLoC counts non-blank, non-comment-only lines of a Go file.
func countLoC(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n := 0
	inBlock := false
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if inBlock {
			if strings.Contains(line, "*/") {
				inBlock = false
			}
			continue
		}
		if strings.HasPrefix(line, "//") {
			continue
		}
		if strings.HasPrefix(line, "/*") && !strings.Contains(line, "*/") {
			inBlock = true
			continue
		}
		n++
	}
	return n, sc.Err()
}
