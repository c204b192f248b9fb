package backoff

import (
	"testing"
	"time"
)

func TestDeterministicDelay(t *testing.T) {
	p := Policy{Base: time.Second, Max: 30 * time.Second}
	want := []time.Duration{
		1 * time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second,
		16 * time.Second, 30 * time.Second, 30 * time.Second,
	}
	for n, w := range want {
		if got := p.Delay(n); got != w {
			t.Errorf("Delay(%d) = %v, want %v", n, got, w)
		}
	}
}

func TestJitterBounds(t *testing.T) {
	p := Policy{Base: 100 * time.Millisecond, Max: time.Second, Jitter: true}
	for n := 0; n < 8; n++ {
		cap := 100 * time.Millisecond << n
		if cap > time.Second {
			cap = time.Second
		}
		for i := 0; i < 50; i++ {
			d := p.Delay(n)
			if d <= 0 || d > cap {
				t.Fatalf("Delay(%d) = %v outside (0, %v]", n, d, cap)
			}
		}
	}
}

func TestZeroBase(t *testing.T) {
	var p Policy
	if d := p.Delay(5); d != 0 {
		t.Fatalf("zero policy Delay = %v, want 0", d)
	}
	if !p.Sleep(3, nil) {
		t.Fatal("zero-delay Sleep reported interrupted")
	}
}

func TestSleepInterrupted(t *testing.T) {
	p := Policy{Base: time.Minute, Max: time.Minute}
	done := make(chan struct{})
	close(done)
	start := time.Now()
	if p.Sleep(0, done) {
		t.Fatal("Sleep with closed done reported completed")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("interrupted Sleep took %v", elapsed)
	}
}

// Overflow guard: huge attempt counts must clamp at Max, not wrap.
func TestLargeAttemptClamps(t *testing.T) {
	p := Policy{Base: time.Second, Max: 30 * time.Second}
	for _, n := range []int{40, 63, 64, 100, 1 << 20} {
		if got := p.Delay(n); got != 30*time.Second {
			t.Errorf("Delay(%d) = %v, want 30s", n, got)
		}
	}
}
