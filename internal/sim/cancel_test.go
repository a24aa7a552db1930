package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"ssp/internal/ir"
)

// TestRunContextBackgroundMatchesRun: running under a background (or
// otherwise never-cancelled) context must be byte-identical to plain Run —
// the stop flag is a pure observer.
func TestRunContextBackgroundMatchesRun(t *testing.T) {
	p := chaseProgram(500, true)
	img, err := ir.Link(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{testInOrder(), testOOO()} {
		plain, err := New(cfg, img).Run()
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
		under, err := New(cfg, img).RunContext(ctx)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, under) {
			t.Errorf("%v: RunContext result differs from Run", cfg.Model)
		}
	}
}

// TestRunContextCancelPrompt: cancelling mid-run must return ctx.Err()
// quickly instead of simulating to the watchdog limit. The watchdog is set
// absurdly high so a missed cancellation path shows up as a test timeout,
// not a silent success.
func TestRunContextCancelPrompt(t *testing.T) {
	for _, cfg := range []Config{testInOrder(), testOOO()} {
		cfg.MaxCycles = 1 << 60
		p := chaseProgram(200_000, false)
		img, err := ir.Link(p)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		m := New(cfg, img)
		done := make(chan error, 1)
		go func() {
			_, err := m.RunContext(ctx)
			done <- err
		}()
		time.Sleep(10 * time.Millisecond) // let the run get going
		start := time.Now()
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%v: got %v, want context.Canceled", cfg.Model, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%v: run did not stop within 5s of cancellation", cfg.Model)
		}
		if wall := time.Since(start); wall > 2*time.Second {
			t.Errorf("%v: cancellation took %v, want well under a second", cfg.Model, wall)
		}
	}
}

// TestRunContextDeadline: an already-expired and a soon-expiring deadline
// both surface context.DeadlineExceeded.
func TestRunContextDeadline(t *testing.T) {
	cfg := testInOrder()
	cfg.MaxCycles = 1 << 60
	img, err := ir.Link(chaseProgram(200_000, false))
	if err != nil {
		t.Fatal(err)
	}

	expired, cancel := context.WithTimeout(context.Background(), -time.Second)
	defer cancel()
	if _, err := New(cfg, img).RunContext(expired); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: got %v", err)
	}

	short, cancel2 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel2()
	if _, err := New(cfg, img).RunContext(short); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("short deadline: got %v", err)
	}
}

// TestCancelledMachineResetIsClean: a machine abandoned by cancellation,
// then Reset and rerun, must produce exactly the result a fresh machine
// does — the guarantee that makes pooling mistakes survivable, and the
// reason the pools can simply discard dirty machines without tracking them.
func TestCancelledMachineResetIsClean(t *testing.T) {
	cfg := testInOrder()
	short := chaseProgram(300, true)
	long := chaseProgram(200_000, false)
	simg, err := ir.Link(short)
	if err != nil {
		t.Fatal(err)
	}
	limg, err := ir.Link(long)
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(cfg, simg).Run()
	if err != nil {
		t.Fatal(err)
	}

	longCfg := cfg
	longCfg.MaxCycles = 1 << 60
	m := New(longCfg, limg)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	if _, err := m.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancel: got %v", err)
	}

	m.Reset(cfg, Predecode(simg))
	got, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reused machine after cancellation diverged from a fresh one")
	}
}

// TestPoolStats: the pool counts gets, recycles, and puts; a discarded
// machine never advances Puts.
func TestPoolStats(t *testing.T) {
	var pool Pool
	cfg := testInOrder()
	dp := Predecode(mustLink(t, chaseProgram(100, false)))

	m1 := pool.Get(cfg, dp)
	if s := pool.Stats(); s.Gets != 1 || s.Hits != 0 || s.Puts != 0 {
		t.Fatalf("after first Get: %+v", s)
	}
	if _, err := m1.Run(); err != nil {
		t.Fatal(err)
	}
	pool.Put(m1)
	m2 := pool.Get(cfg, dp)
	if s := pool.Stats(); s.Gets != 2 || s.Hits != 1 || s.Puts != 1 {
		t.Fatalf("after recycle: %+v, want Gets=2 Hits=1 Puts=1", s)
	}
	if m2 != m1 {
		t.Fatal("Get built a new machine while an idle one was pooled")
	}
	// Simulate a failed run: the machine is dropped, not Put.
	if s := pool.Stats(); s.Puts != 1 {
		t.Fatalf("discard advanced Puts: %+v", s)
	}
}

func mustLink(t *testing.T, p *ir.Program) *ir.Image {
	t.Helper()
	img, err := ir.Link(p)
	if err != nil {
		t.Fatal(err)
	}
	return img
}
