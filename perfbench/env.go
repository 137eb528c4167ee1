package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// stamp is the environment every result records.
type stamp struct {
	Seed       uint64 `json:"seed"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func envStamp(seed uint64) stamp {
	return stamp{
		Seed:       seed,
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

func stampJSON(seed uint64) string {
	b, _ := json.Marshal(envStamp(seed)) // a struct of strings and ints always marshals
	return string(b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit names the source revision go build stamped into the binary
// (with "+modified" for a dirty tree), or "unknown" when the checkout is
// not a git work tree.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, modified := "unknown", false
	for _, kv := range info.Settings {
		switch kv.Key {
		case "vcs.revision":
			rev = kv.Value
		case "vcs.modified":
			modified = kv.Value == "true"
		}
	}
	if modified && rev != "unknown" {
		rev += "+modified"
	}
	return rev
}

// summary is one metric's distribution across repeated runs.
type summary struct {
	Unit   string    `json:"unit"`
	N      int       `json:"n"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"iqr_over_median"`
	Values []float64 `json:"values"`
}

// repeatRuns runs this binary n times with seeds seed, seed+1, … and
// prints every metric's median, quartiles (Python statistics.quantiles,
// n=4) and spread, stamped with the environment. It fails if any run
// fails.
func repeatRuns(n int, workload string, seed uint64, seconds, trace int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	var seeds []uint64
	for i := 0; i < n; i++ {
		s := seed + uint64(i)
		cmd := exec.Command(self, "--workload", workload, "--seed", fmt.Sprint(s),
			"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i, s, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("run %d (seed %d): result line: %w", i, s, err)
		}
		if !res.Correct || res.Failed > 0 {
			return fmt.Errorf("run %d (seed %d): %d of %d ops failed", i, s, res.Failed, res.Attempted)
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		seeds = append(seeds, s)
		fmt.Fprintf(os.Stderr, "perfbench: run %d/%d done\n", i+1, n)
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	out := repeatSummary{Workload: workload, Trace: trace, Seconds: seconds, Seeds: seeds,
		Env: envStamp(seed), Metrics: map[string]summary{}}
	for _, name := range names {
		v := values[name]
		q1, med, q3 := quartiles(v)
		var spread float64 // reported as 0 when the median is 0
		if med != 0 {
			spread = (q3 - q1) / math.Abs(med)
		}
		s := summary{Unit: units[name], N: len(v), Median: med, Q1: q1, Q3: q3, Spread: spread, Values: v}
		out.Metrics[name] = s
		fmt.Printf("# %-30s %14.4f %-7s q1 %14.4f q3 %14.4f spread %.4f (n=%d)\n",
			name, s.Median, s.Unit, s.Q1, s.Q3, s.Spread, s.N)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// repeatSummary is the output of --repeat.
type repeatSummary struct {
	Workload string             `json:"workload"`
	Trace    int                `json:"trace"`
	Seconds  int                `json:"seconds"`
	Seeds    []uint64           `json:"seeds"`
	Env      stamp              `json:"env"`
	Metrics  map[string]summary `json:"metrics"`
}
