// Command e2e is the repository's benchmark: the real offload engine,
// driven through its public functions on file-backed tiers, measured end
// to end and layer by layer. See README.md beside this file.
//
//	go run ./bench/e2e -seed 1                    # every workload, untraced then traced
//	go run ./bench/e2e -runs 5 -out a.json        # five sets; medians and quartiles
//	go run ./bench/e2e -compare a.json b.json     # regression verdict per metric
//	go run ./bench/e2e -workload mlp-smallobj     # some workloads, in the order given
//	go run ./bench/e2e -list
//
// With -trace 0|1 the command is one run of one workload in this process
// and its last line of output is the run's result as JSON; that is the
// form the benchmark driver (BENCHMARK.json) and the set runner invoke.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"

	"github.com/datastates/mlpoffload/internal/metrics"
)

func main() {
	os.Exit(run(os.Args[1:], spawnChild))
}

type flags struct {
	workload string
	seed     int64
	seconds  float64
	iters    int
	trace    int
	scale    string
	dir      string
	out      string
	runs     int
	list     bool
	compare  bool
}

// run is the command. spawn runs one workload of a set and returns its
// result: a child process, except in tests.
func run(args []string, spawn func(flags) (result, error)) int {
	var f flags
	fs := flag.NewFlagSet("e2e", flag.ContinueOnError)
	fs.StringVar(&f.workload, "workload", "", "workloads to run, comma-separated, in this order (default: all)")
	fs.Int64Var(&f.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&f.seconds, "seconds", 12, "length of a run's timed window")
	fs.IntVar(&f.iters, "iters", 0, "measure exactly this many iterations instead of -seconds (-scale smoke: 3)")
	fs.IntVar(&f.trace, "trace", -1, "run the one -workload once in this process: 0 end-to-end metrics, 1 traced, per-layer metrics")
	fs.StringVar(&f.scale, "scale", "full", "full | smoke")
	fs.StringVar(&f.dir, "dir", "", "directory to create the tier directories in (default: a temporary one)")
	fs.StringVar(&f.out, "out", filepath.Join("bench", "e2e", "out", "run.json"), "report file; traces are written beside it")
	fs.IntVar(&f.runs, "runs", 1, "sets of runs; the report gives median and quartiles over them")
	fs.BoolVar(&f.list, "list", false, "list the workloads and exit")
	fs.BoolVar(&f.compare, "compare", false, "compare two report files: -compare base.json next.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(os.Stderr, "e2e: "+format+"\n", a...)
		return 2
	}

	if f.list {
		for _, w := range workloads {
			fmt.Printf("%-18s %s\n", w.name, w.why)
		}
		return 0
	}
	if f.compare {
		if fs.NArg() != 2 {
			return usage("-compare takes two report files")
		}
		base, err := readReport(fs.Arg(0))
		if err != nil {
			return usage("%v", err)
		}
		next, err := readReport(fs.Arg(1))
		if err != nil {
			return usage("%v", err)
		}
		if compare(os.Stdout, base, next) {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		return usage("unexpected argument %q", fs.Arg(0))
	}

	sc, ok := scales[f.scale]
	if !ok {
		return usage("unknown -scale %q", f.scale)
	}
	if f.iters == 0 && sc.name == "smoke" {
		f.iters = 3
	}
	var wls []workload
	if f.workload == "" {
		wls = workloads
	} else {
		for _, name := range strings.Split(f.workload, ",") {
			w, err := workloadByName(name)
			if err != nil {
				return usage("%v", err)
			}
			wls = append(wls, w)
		}
	}

	// Tier directories live under dir and are removed on every exit path:
	// each rig removes its own, and a temporary parent goes with them.
	dir := f.dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "mlpoffload-e2e-")
		if err != nil {
			return usage("%v", err)
		}
		defer os.RemoveAll(tmp)
		dir = tmp
		// An interrupt skips the deferred removal; remove here instead.
		// Children are in the same process group and stop on their own.
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sig)
		go func() {
			if _, ok := <-sig; ok {
				os.RemoveAll(tmp)
				os.Exit(130)
			}
		}()
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return usage("%v", err)
	}

	if f.trace >= 0 {
		if len(wls) != 1 {
			return usage("-trace runs exactly one -workload")
		}
		res, err := runOne(f.opts(wls[0], sc, dir))
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2e: %s: %v\n", wls[0].name, err)
			return 1
		}
		printResult(wls[0].name, res)
		if !res.Correct {
			return 1
		}
		return 0
	}

	rp := &report{Machine: thisMachine(dir), Scale: sc.name, Seed: f.seed, Sets: f.runs}
	for _, w := range wls {
		rp.Workloads = append(rp.Workloads, w.name)
	}
	failed := false
	for set := 0; set < f.runs; set++ {
		for _, w := range wls {
			// The traced run is shorter: it exists for the shares and
			// counts of the layers, not for a stable total.
			for _, traced := range []bool{false, true} {
				cf := f
				cf.workload, cf.dir, cf.seed, cf.trace = w.name, dir, f.seed+int64(set), 0
				if traced {
					cf.trace, cf.seconds = 1, f.seconds/2
				}
				fmt.Fprintf(os.Stderr, "e2e: set %d/%d %s trace=%d\n", set+1, f.runs, w.name, cf.trace)
				res, err := spawn(cf)
				if err != nil {
					fmt.Fprintf(os.Stderr, "e2e: %s: %v\n", w.name, err)
					return 1
				}
				failed = failed || !res.Correct
				rp.Runs = append(rp.Runs, runRecord{Workload: w.name, Set: set, Traced: traced, Seed: cf.seed, result: res})
			}
		}
	}
	rp.summarise()
	rp.print(os.Stdout)
	if err := os.MkdirAll(filepath.Dir(f.out), 0o755); err != nil {
		return usage("%v", err)
	}
	if err := rp.write(f.out); err != nil {
		return usage("%v", err)
	}
	fmt.Printf("\nreport: %s\n", f.out)
	if failed {
		return 1
	}
	return 0
}

// printResult writes every metric by name with its unit, then the result
// as one JSON object on the last line.
func printResult(workload string, res result) {
	for _, n := range metrics.SortedKeys(res.Metrics) {
		m := res.Metrics[n]
		fmt.Printf("%s %s %s %s\n", workload, n, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil { // only a NaN or Inf metric could do this; ratio() rules them out
		panic(err)
	}
	fmt.Println(string(line))
}

// opts is the single run that flags describe.
func (f flags) opts(wl workload, sc scale, dir string) runOpts {
	return runOpts{wl: wl, sc: sc, seed: f.seed, seconds: f.seconds, iters: f.iters, trace: f.trace == 1, dir: dir, outDir: filepath.Dir(f.out)}
}

// spawnChild runs one workload in a child process — this same binary — so
// that peak_rss_mib is the workload's own, and returns the result the
// child printed last.
func spawnChild(f flags) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(exe,
		"-workload", f.workload, "-seed", strconv.FormatInt(f.seed, 10),
		"-seconds", strconv.FormatFloat(f.seconds, 'g', -1, 64), "-iters", strconv.Itoa(f.iters),
		"-trace", strconv.Itoa(f.trace), "-scale", f.scale, "-dir", f.dir, "-out", f.out)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		return result{}, err
	}
	// A child that ran but failed an operation exits 1 and still prints
	// its result; one that printed none is an error.
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		return result{}, fmt.Errorf("child printed no result (%v): %v", err, jerr)
	}
	return res, nil
}
