package compilecache

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rsti/internal/core"
)

// program returns a distinct well-formed source per n so the cache sees
// genuinely different content hashes.
func program(n int) string {
	return fmt.Sprintf("int main() { int x; x = %d; return x; }", n)
}

func TestGetCompilesOnceAndHits(t *testing.T) {
	c := New(Config{})
	var calls atomic.Int64
	c.compile = func(src string) (*core.Compilation, error) {
		calls.Add(1)
		return core.Compile(src)
	}
	src := program(1)
	first, err := c.Get(src)
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.Get(src)
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Fatal("repeat Get returned a different Compilation")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("compile ran %d times, want 1", n)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", s)
	}
	if s.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", s.HitRate())
	}
}

func TestSingleflightDedupesConcurrentGets(t *testing.T) {
	c := New(Config{})
	var calls atomic.Int64
	release := make(chan struct{})
	c.compile = func(src string) (*core.Compilation, error) {
		calls.Add(1)
		<-release // hold the flight open so every other Get must join it
		return core.Compile(src)
	}
	src := program(2)
	const waiters = 8
	results := make([]*core.Compilation, waiters)
	var wg sync.WaitGroup
	wg.Add(waiters)
	for i := 0; i < waiters; i++ {
		go func(i int) {
			defer wg.Done()
			comp, err := c.Get(src)
			if err != nil {
				t.Error(err)
			}
			results[i] = comp
		}(i)
	}
	// Release the flight only once every Get has reached the cache (one
	// opened the flight, the rest joined it). Released any earlier, a
	// late Get could find the finished entry and count as a hit, not a
	// dedup.
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
		if s := c.Stats(); s.Misses+s.Dedups == waiters {
			break
		}
	}
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("compile ran %d times for %d concurrent Gets, want 1", n, waiters)
	}
	for i := 1; i < waiters; i++ {
		if results[i] != results[0] {
			t.Fatalf("waiter %d got a different Compilation", i)
		}
	}
	if s := c.Stats(); s.Dedups != waiters-1 {
		t.Fatalf("dedups = %d, want %d", s.Dedups, waiters-1)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	c := New(Config{})
	fail := errors.New("transient")
	var calls atomic.Int64
	c.compile = func(src string) (*core.Compilation, error) {
		if calls.Add(1) == 1 {
			return nil, fail
		}
		return core.Compile(src)
	}
	src := program(3)
	if _, err := c.Get(src); !errors.Is(err, fail) {
		t.Fatalf("first Get error = %v, want %v", err, fail)
	}
	if c.Len() != 0 {
		t.Fatal("failed compile was stored")
	}
	if _, err := c.Get(src); err != nil {
		t.Fatalf("retry after error failed: %v", err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("compile ran %d times, want 2 (error not cached)", n)
	}
}

// TestEntryCapBoundsChurn drives many distinct programs through a small
// cache and proves the footprint stays bounded the whole way.
func TestEntryCapBoundsChurn(t *testing.T) {
	const cap = 4
	c := New(Config{MaxEntries: cap})
	for i := 0; i < 10*cap; i++ {
		if _, err := c.Get(program(i)); err != nil {
			t.Fatal(err)
		}
		if n := c.Len(); n > cap {
			t.Fatalf("after %d inserts cache holds %d entries, cap %d", i+1, n, cap)
		}
	}
	s := c.Stats()
	if s.Entries != cap {
		t.Fatalf("entries = %d, want %d", s.Entries, cap)
	}
	if want := int64(10*cap - cap); s.Evictions != want {
		t.Fatalf("evictions = %d, want %d", s.Evictions, want)
	}
}

func TestByteCapBoundsChurn(t *testing.T) {
	// Pick a byte cap that fits a couple of tiny programs but not many.
	probe := New(Config{})
	comp, err := probe.Get(program(0))
	if err != nil {
		t.Fatal(err)
	}
	one := estimateSize(program(0), comp)
	c := New(Config{MaxBytes: 3 * one})
	for i := 0; i < 12; i++ {
		if _, err := c.Get(program(i)); err != nil {
			t.Fatal(err)
		}
		if s := c.Stats(); s.Bytes > 3*one+one {
			t.Fatalf("bytes = %d beyond cap %d (+1 entry slack)", s.Bytes, 3*one)
		}
	}
	if s := c.Stats(); s.Evictions == 0 {
		t.Fatal("byte cap never evicted")
	}
}

func TestLRUEvictsColdestFirst(t *testing.T) {
	c := New(Config{MaxEntries: 2})
	a, b, d := program(100), program(101), program(102)
	if _, err := c.Get(a); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(b); err != nil {
		t.Fatal(err)
	}
	// Touch a so b becomes the coldest, then insert d to force eviction.
	if _, err := c.Get(a); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(d); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	if _, err := c.Get(a); err != nil { // must still be cached
		t.Fatal(err)
	}
	if s := c.Stats(); s.Hits != before.Hits+1 {
		t.Fatal("recently used entry was evicted instead of coldest")
	}
	if _, err := c.Get(b); err != nil { // evicted: recompiles (a miss)
		t.Fatal(err)
	}
	if s := c.Stats(); s.Misses != before.Misses+1 {
		t.Fatal("coldest entry survived eviction")
	}
}

func TestUnlimitedWhenNegative(t *testing.T) {
	c := New(Config{MaxEntries: -1, MaxBytes: -1})
	for i := 0; i < DefaultMaxEntries/32; i++ {
		if _, err := c.Get(program(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s := c.Stats(); s.Evictions != 0 {
		t.Fatalf("unlimited cache evicted %d entries", s.Evictions)
	}
}

// TestConcurrentChurnStaysBounded hammers a small cache from several
// goroutines with overlapping keys; run under -race this also checks the
// locking.
func TestConcurrentChurnStaysBounded(t *testing.T) {
	const cap = 8
	c := New(Config{MaxEntries: cap})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if _, err := c.Get(program((g*17 + i) % 24)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > cap {
		t.Fatalf("cache holds %d entries, cap %d", n, cap)
	}
	s := c.Stats()
	if s.Hits+s.Misses+s.Dedups != 4*40 {
		t.Fatalf("counter sum = %d, want %d", s.Hits+s.Misses+s.Dedups, 4*40)
	}
}

// await receives from ch, but fails the test instead of hanging the
// binary when nothing arrives by nine tenths of the test's own deadline:
// a flight that never lands blocks every later Get of its source.
func await[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	var expire <-chan time.Time
	if d, ok := t.Deadline(); ok {
		expire = time.After(time.Until(d) * 9 / 10)
	}
	select {
	case v := <-ch:
		return v
	case <-expire:
		t.Fatalf("%s still blocked near the test deadline: its flight never landed", what)
	}
	var zero T
	return zero
}

// getBounded is c.Get(src), bounded by await.
func getBounded(t *testing.T, c *Cache, src string) (*core.Compilation, error) {
	t.Helper()
	type result struct {
		comp *core.Compilation
		err  error
	}
	done := make(chan result, 1)
	go func() {
		comp, err := c.Get(src)
		done <- result{comp, err}
	}()
	r := await(t, done, "Get")
	return r.comp, r.err
}

// TestPanickingCompileReleasesFlight: a compile hook that panics takes
// its panic to the Get that ran it, hands the Get that joined its flight
// an error, and leaves the source free, so the next Get compiles again
// instead of waiting forever on the abandoned flight.
func TestPanickingCompileReleasesFlight(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	c := New(Config{Compile: func(src string) (*core.Compilation, error) {
		if calls.Add(1) == 1 {
			<-release // hold the flight open until the waiter joins
			panic("compile hook failure")
		}
		return core.Compile(src)
	}})
	src := program(9)

	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		c.Get(src)
	}()
	joined := make(chan error, 1)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
		if s := c.Stats(); s.Misses == 1 {
			break
		}
	}
	go func() {
		_, err := c.Get(src)
		joined <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); runtime.Gosched() {
		if s := c.Stats(); s.Dedups == 1 {
			break
		}
	}
	close(release)
	if r := <-panicked; r == nil {
		t.Fatal("the Get that ran the panicking hook returned normally")
	}
	if err := await(t, joined, "the Get that joined the flight"); !errors.Is(err, errFlightPanicked) {
		t.Fatalf("the joined Get returned %v, want errFlightPanicked", err)
	}

	comp, err := getBounded(t, c, src)
	if err != nil || comp == nil {
		t.Fatalf("Get after the panic: (%v, %v), want a compilation", comp, err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("compile ran %d times, want 2 (the panic, then the retry)", n)
	}
	if s := c.Stats(); s.Misses != 2 || s.Dedups != 1 || s.Entries != 1 {
		t.Fatalf("stats %+v, want 2 misses, 1 dedup, 1 entry", s)
	}
}
