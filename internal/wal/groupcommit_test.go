package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dvp/internal/obs"
)

func TestGroupLogAppendDurableAndOrdered(t *testing.T) {
	inner := NewMemLog()
	g := NewGroupLog(inner, GroupCommitOptions{})
	defer g.Close()
	for i := 1; i <= 5; i++ {
		lsn, err := g.Append(RecCommit, []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i) {
			t.Fatalf("append %d got LSN %d", i, lsn)
		}
		// The Log contract: record is stable when Append returns.
		if inner.LastLSN() < lsn {
			t.Fatalf("append %d returned before inner durable (inner at %d)", i, inner.LastLSN())
		}
	}
	if g.DurableLSN() != 5 || g.LastLSN() != 5 {
		t.Fatalf("durable=%d last=%d, want 5", g.DurableLSN(), g.LastLSN())
	}
}

func TestGroupLogBatchesConcurrentAppends(t *testing.T) {
	// Gate the first flush so concurrent appenders pile up, then count
	// flushes: k appends must arrive in far fewer than k flushes.
	inner := NewMemLog()
	g := NewGroupLog(inner, GroupCommitOptions{})
	defer g.Close()

	var flushes atomic.Int64
	flushes.Add(1) // the gated first flush
	release := gateFirstFlush(g, func(int64, int) { flushes.Add(1) })

	const k = 32
	lsns := make([]uint64, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lsn, err := g.Append(RecCommit, []byte{byte(i)})
			if err != nil {
				t.Error(err)
				return
			}
			lsns[i] = lsn
		}(i)
	}
	waitForWaiters(t, g, k)
	release()
	wg.Wait()

	if n := flushes.Load(); n >= k/2 {
		t.Errorf("%d appends took %d flushes — no batching happened", k, n)
	}
	seen := make(map[uint64]bool)
	for i, lsn := range lsns {
		if lsn == 0 || seen[lsn] {
			t.Fatalf("appender %d got bad/duplicate LSN %d", i, lsn)
		}
		seen[lsn] = true
	}
	if g.Waiters() != 0 {
		t.Errorf("waiters = %d after drain", g.Waiters())
	}
}

func TestGroupLogMaxBatch(t *testing.T) {
	inner := NewMemLog()
	g := NewGroupLog(inner, GroupCommitOptions{MaxBatch: 4})
	defer g.Close()

	var maxSeen atomic.Int64
	release := gateFirstFlush(g, func(_ int64, batch int) {
		if int64(batch) > maxSeen.Load() {
			maxSeen.Store(int64(batch))
		}
	})

	const k = 19
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := g.Append(RecCommit, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	waitForWaiters(t, g, k)
	release()
	wg.Wait()
	if maxSeen.Load() > 4 {
		t.Errorf("flush carried %d records, MaxBatch is 4", maxSeen.Load())
	}
	if g.LastLSN() != k {
		t.Errorf("LastLSN = %d, want %d", g.LastLSN(), k)
	}
}

func TestGroupLogLinger(t *testing.T) {
	// With a linger, two appends issued a moment apart should share a
	// flush. Issue the second from a goroutine shortly after the first.
	inner := NewMemLog()
	g := NewGroupLog(inner, GroupCommitOptions{Linger: 20 * time.Millisecond})
	defer g.Close()
	var flushes atomic.Int64
	g.SetFlushHook(func(int) { flushes.Add(1) })

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.Append(RecCommit, nil)
		}()
		time.Sleep(2 * time.Millisecond)
	}
	wg.Wait()
	if flushes.Load() != 1 {
		t.Errorf("2 appends within the linger window took %d flushes, want 1", flushes.Load())
	}
}

// gateFirstFlush makes the first flush's leader wait in the flush hook
// until the returned release is called, so the appenders started
// meanwhile all queue behind it; then calls next, if non-nil, for
// every later flush.
func gateFirstFlush(g *GroupLog, next func(call int64, batch int)) (release func()) {
	ch := make(chan struct{})
	var calls atomic.Int64
	g.SetFlushHook(func(batch int) {
		call := calls.Add(1)
		if call == 1 {
			<-ch
		} else if next != nil {
			next(call, batch)
		}
	})
	return func() { close(ch) }
}

// waitForWaiters polls until n appends are queued or in flight.
func waitForWaiters(t *testing.T, g *GroupLog, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for g.Waiters() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d appenders queued", g.Waiters(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestGroupLogErrorFailsWholeGroup: a failing AppendBatch returns its
// error to every appender of that batch — none of them may be
// acknowledged — and the next leader then flushes normally.
func TestGroupLogErrorFailsWholeGroup(t *testing.T) {
	inner := NewMemLog()
	boom := errors.New("disk full")
	g := NewGroupLog(inner, GroupCommitOptions{})
	defer g.Close()

	var failedBatch atomic.Int64
	release := gateFirstFlush(g, func(call int64, batch int) {
		// The hook runs before the write: arm the fault for the
		// second flush (the queued group), disarm it for the third.
		if call == 2 {
			failedBatch.Store(int64(batch))
			inner.SetAppendHook(func(Record) error { return boom })
		} else {
			inner.SetAppendHook(nil)
		}
	})
	const k = 8
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = g.Append(RecCommit, []byte{byte(i)})
		}(i)
	}
	waitForWaiters(t, g, k)
	release()
	wg.Wait()

	var failed int
	for _, err := range errs {
		switch {
		case errors.Is(err, boom):
			failed++
		case err != nil:
			t.Errorf("unexpected error %v", err)
		}
	}
	if failed != k-1 || failedBatch.Load() != k-1 {
		t.Fatalf("%d appenders failed, failing batch carried %d; want both %d", failed, failedBatch.Load(), k-1)
	}
	if lsn, err := g.Append(RecCommit, nil); err != nil || lsn != 2 {
		t.Fatalf("next leader after the failed batch: lsn=%d err=%v, want 2, nil", lsn, err)
	}
	if g.DurableLSN() != 2 || g.Waiters() != 0 {
		t.Errorf("durable=%d waiters=%d, want 2, 0", g.DurableLSN(), g.Waiters())
	}
}

// TestGroupLogCloseDrainsThenRejects: Close with appenders still
// queued flushes every one of them before closing the inner log;
// afterwards Append fails with ErrClosed and Close is idempotent.
func TestGroupLogCloseDrainsThenRejects(t *testing.T) {
	inner := NewMemLog()
	g := NewGroupLog(inner, GroupCommitOptions{})
	release := gateFirstFlush(g, nil)
	const k = 8
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = g.Append(RecCommit, []byte{byte(i)})
		}(i)
	}
	waitForWaiters(t, g, k)
	closed := make(chan error, 1)
	go func() { closed <- g.Close() }()
	for {
		g.mu.Lock()
		c := g.closed
		g.mu.Unlock()
		if c {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	release()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("queued appender %d: %v", i, err)
		}
	}
	if inner.LastLSN() != k {
		t.Errorf("inner holds %d records after Close, want %d", inner.LastLSN(), k)
	}
	if _, err := g.Append(RecCommit, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupLogConcurrentLSNsDenseAndScanned: concurrent appenders get
// distinct, contiguous LSNs, each appender's LSNs rise in its own
// issue order, and Scan returns every record at the LSN its appender
// was given — over native batching (MemLog, FileLog) and over the
// per-record fallback for a log without AppendBatch.
func TestGroupLogConcurrentLSNsDenseAndScanned(t *testing.T) {
	fileLog := func(t *testing.T) Log {
		fl, err := OpenFileLog(filepath.Join(t.TempDir(), "wal"), FileLogOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return fl
	}
	for _, tc := range []struct {
		name  string
		inner func(t *testing.T) Log
	}{
		{"memlog", func(*testing.T) Log { return NewMemLog() }},
		{"filelog", fileLog},
		{"no-batch", func(*testing.T) Log { return struct{ Log }{NewMemLog()} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := NewGroupLog(tc.inner(t), GroupCommitOptions{MaxBatch: 16})
			defer g.Close()
			const appenders, each = 8, 64
			lsns := make([][]uint64, appenders)
			var wg sync.WaitGroup
			for a := 0; a < appenders; a++ {
				wg.Add(1)
				go func(a int) {
					defer wg.Done()
					for i := 0; i < each; i++ {
						lsn, err := g.Append(RecCommit, []byte{byte(a), byte(i)})
						if err != nil {
							t.Error(err)
							return
						}
						lsns[a] = append(lsns[a], lsn)
					}
				}(a)
			}
			wg.Wait()

			owner := make(map[uint64][2]byte)
			for a, got := range lsns {
				for i, lsn := range got {
					if _, dup := owner[lsn]; dup {
						t.Fatalf("LSN %d handed out twice", lsn)
					}
					if i > 0 && lsn <= got[i-1] {
						t.Fatalf("appender %d: LSN %d after %d", a, lsn, got[i-1])
					}
					owner[lsn] = [2]byte{byte(a), byte(i)}
				}
			}
			const n = appenders * each
			if len(owner) != n || g.DurableLSN() != n || g.LastLSN() != n {
				t.Fatalf("%d LSNs, durable=%d last=%d; want %d each", len(owner), g.DurableLSN(), g.LastLSN(), n)
			}
			next := uint64(1)
			err := g.Scan(1, func(r Record) error {
				if r.LSN != next {
					return fmt.Errorf("scan gave LSN %d, want %d", r.LSN, next)
				}
				if want := owner[r.LSN]; string(r.Data) != string(want[:]) {
					return fmt.Errorf("LSN %d holds %v, its appender wrote %v", r.LSN, r.Data, want)
				}
				next++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if next != n+1 {
				t.Fatalf("scan returned %d records, want %d", next-1, n)
			}
		})
	}
}

// TestGroupLogStartsNoGoroutine: group commit runs on the appenders'
// own goroutines — constructing and using a GroupLog adds none. (The
// count may drop: goroutines of earlier tests can still be exiting.)
func TestGroupLogStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	g := NewGroupLog(NewMemLog(), GroupCommitOptions{})
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("NewGroupLog: %d goroutines, was %d", after, before)
	}
	if _, err := g.Append(RecCommit, nil); err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("after Append: %d goroutines, was %d", after, before)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupLogLingerOverSlowDeviceBatches: with a linger and a device
// that pays one serialized force per write, 8 concurrent appenders
// share flushes — batches larger than 1, fewer flushes than records.
func TestGroupLogLingerOverSlowDeviceBatches(t *testing.T) {
	dev := NewSlowDevice(NewMemLog(), time.Millisecond, nil)
	g := NewGroupLog(dev, GroupCommitOptions{Linger: 2 * time.Millisecond})
	defer g.Close()
	var flushes, maxBatch atomic.Int64
	g.SetFlushHook(func(batch int) {
		flushes.Add(1)
		if int64(batch) > maxBatch.Load() {
			maxBatch.Store(int64(batch))
		}
	})
	const appenders, each = 8, 4
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := g.Append(RecCommit, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if maxBatch.Load() <= 1 || flushes.Load() >= appenders*each {
		t.Errorf("%d records took %d flushes, largest batch %d: no batching", appenders*each, flushes.Load(), maxBatch.Load())
	}
	if g.LastLSN() != appenders*each {
		t.Errorf("LastLSN = %d, want %d", g.LastLSN(), appenders*each)
	}
}

func TestGroupLogScanCompactDelegate(t *testing.T) {
	inner := NewMemLog()
	g := NewGroupLog(inner, GroupCommitOptions{})
	defer g.Close()
	for i := 0; i < 4; i++ {
		g.Append(RecCommit, []byte{byte(i)})
	}
	if err := g.Compact(2); err != nil {
		t.Fatal(err)
	}
	var lsns []uint64
	g.Scan(1, func(r Record) error { lsns = append(lsns, r.LSN); return nil })
	if len(lsns) != 2 || lsns[0] != 3 {
		t.Errorf("after compact: %v", lsns)
	}
	if g.Inner() != Log(inner) {
		t.Error("Inner() must expose the wrapped log")
	}
}

func TestGroupLogInstrument(t *testing.T) {
	reg := obs.NewRegistry()
	g := NewGroupLog(NewMemLog(), GroupCommitOptions{})
	defer g.Close()
	g.Instrument(reg, "site", "1")
	g.Append(RecCommit, nil)
	if n := reg.CounterValue("dvp_wal_group_flushes_total", "site", "1"); n == 0 {
		t.Error("flush counter did not move")
	}
	if n := reg.CounterValue("dvp_wal_group_records_total", "site", "1"); n != 1 {
		t.Errorf("records counter = %d", n)
	}
	if h := reg.Histogram("dvp_wal_flush_seconds", "site", "1"); h.Count() == 0 {
		t.Error("flush latency histogram empty")
	}
	if h := reg.Histogram("dvp_wal_group_batch", "site", "1"); h.Count() == 0 {
		t.Error("batch size histogram empty")
	}
}

func TestGroupLogOverFileLogSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal")
	fl, err := OpenFileLog(path, FileLogOptions{Sync: false})
	if err != nil {
		t.Fatal(err)
	}
	g := NewGroupLog(fl, GroupCommitOptions{})
	const k = 16
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := g.Append(RecCommit, []byte(fmt.Sprintf("r%d", i))); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFileLog(path, FileLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	var n int
	var last uint64
	re.Scan(1, func(r Record) error {
		n++
		if r.LSN != last+1 {
			t.Errorf("LSN gap: %d after %d", r.LSN, last)
		}
		last = r.LSN
		return nil
	})
	if n != k {
		t.Errorf("reopened log has %d records, want %d", n, k)
	}
}

func TestFileLogAppendBatchFrames(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal")
	fl, err := OpenFileLog(path, FileLogOptions{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	first, err := fl.AppendBatch([]BatchEntry{
		{Kind: RecCommit, Data: []byte("a")},
		{Kind: RecVmCreate, Data: []byte("bb")},
		{Kind: RecApplied, Data: nil},
	})
	if err != nil {
		t.Fatal(err)
	}
	if first != 1 || fl.LastLSN() != 3 {
		t.Fatalf("first=%d last=%d", first, fl.LastLSN())
	}
	if _, err := fl.AppendBatch(nil); err == nil {
		t.Error("empty batch must error")
	}
	fl.Close()
	re, err := OpenFileLog(path, FileLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	var kinds []RecordKind
	re.Scan(1, func(r Record) error { kinds = append(kinds, r.Kind); return nil })
	want := []RecordKind{RecCommit, RecVmCreate, RecApplied}
	if len(kinds) != len(want) {
		t.Fatalf("got %d records", len(kinds))
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("record %d kind %v, want %v", i, kinds[i], want[i])
		}
	}
	// A torn tail mid-batch is truncated at reopen like any tail.
	raw, _ := os.ReadFile(path)
	os.WriteFile(path, raw[:len(raw)-3], 0o644)
	re2, err := OpenFileLog(path, FileLogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if re2.LastLSN() != 2 {
		t.Errorf("after torn tail LastLSN = %d, want 2", re2.LastLSN())
	}
}

func TestSlowLogBatchPaysOneDelayPerFlush(t *testing.T) {
	l := NewSlowLog(NewMemLog(), 10*time.Millisecond, nil)
	sl := l.(*SlowLog)
	entries := make([]BatchEntry, 8)
	for i := range entries {
		entries[i] = BatchEntry{Kind: RecCommit}
	}
	start := time.Now()
	first, err := sl.AppendBatch(entries)
	if err != nil || first != 1 {
		t.Fatalf("first=%d err=%v", first, err)
	}
	elapsed := time.Since(start)
	if elapsed < 9*time.Millisecond {
		t.Errorf("batch paid %v, want ≥ one 10ms force", elapsed)
	}
	if elapsed > 50*time.Millisecond {
		t.Errorf("batch paid %v — looks like per-record delay, want one per flush", elapsed)
	}
}
