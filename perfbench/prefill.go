package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"sync"

	"rsti/internal/compilecache"
)

// The serve-warm pre-step runs in a child process, so its compile and
// encode work, and the memory they leave behind, stay outside the
// measured process. The child is this same binary, selected by an
// environment variable (test binaries dispatch on it in TestMain).
const (
	childEnv     = "PERFBENCH_CHILD"
	childPrefill = "prefill"
)

// prefill fills dir with the artifacts of programs 0..n-1 of a seeded
// family and waits for the child to exit.
func prefill(dir string, seed uint64, family string, n, iters int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe,
		"-dir", dir, "-seed", strconv.FormatUint(seed, 10),
		"-family", family, "-n", strconv.Itoa(n), "-iters", strconv.Itoa(iters))
	cmd.Env = append(os.Environ(), childEnv+"="+childPrefill)
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("prefill child: %v: %s", err, clip(string(out)))
	}
	return nil
}

func prefillMain(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("prefill", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "", "artifact directory")
	seed := fs.Uint64("seed", 1, "input seed")
	family := fs.String("family", "", "program family")
	n := fs.Int("n", 0, "programs")
	iters := fs.Int("iters", 0, "loop iterations per program")
	if err := fs.Parse(args); err != nil || *dir == "" || *n <= 0 {
		fmt.Fprintln(stderr, "prefill: need -dir and -n > 0")
		return 2
	}
	cache := compilecache.New(compilecache.Config{Dir: *dir, MaxEntries: -1, MaxBytes: -1})
	var wg sync.WaitGroup
	errs := make([]error, *n)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < *n; i += 2 {
				_, errs[i] = cache.Get(generate(*seed, *family, i, *iters))
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			fmt.Fprintf(stderr, "prefill: program %d: %v\n", i, err)
			return 1
		}
	}
	if st := cache.Stats(); st.DiskWrites != int64(*n) || st.DiskErrors != 0 {
		fmt.Fprintf(stderr, "prefill: wrote %d artifacts (%d errors), want %d\n", st.DiskWrites, st.DiskErrors, *n)
		return 1
	}
	return 0
}
