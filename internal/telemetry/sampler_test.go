package telemetry

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/vtime"
)

// TestSamplerVirtualBoundaries drives a virtual clock through a known
// schedule and checks one sample lands on every crossed interval
// boundary with the registry values that were current at the jump.
func TestSamplerVirtualBoundaries(t *testing.T) {
	v := vtime.NewVirtual()
	r := NewRegistry()
	s := NewSampler(r, 10*time.Millisecond)
	s.Start(v)

	c := r.Counter("work")
	g := vtime.NewGroup(v)
	g.Go(func() {
		for i := 0; i < 3; i++ {
			c.Inc()
			v.Sleep(25 * time.Millisecond) // crosses 2-3 boundaries per step
		}
	})
	g.Wait()
	s.Stop()

	samples := s.Samples()
	// 75ms of virtual time at a 10ms interval: boundaries 10..70.
	if len(samples) != 7 {
		t.Fatalf("got %d samples, want 7: %+v", len(samples), samples)
	}
	for i, sm := range samples {
		want := time.Duration(i+1) * 10 * time.Millisecond
		if sm.Offset != want {
			t.Fatalf("sample %d at %v, want %v", i, sm.Offset, want)
		}
	}
	// The counter is 1 after the first sleep begins, so the 10ms and
	// 20ms samples see 1; 30..50 see 2; 60..70 see 3.
	wantVals := []int64{1, 1, 2, 2, 2, 3, 3}
	for i, w := range wantVals {
		if got := samples[i].Values["work"]; got != w {
			t.Fatalf("sample %d work = %d, want %d", i, got, w)
		}
	}
}

// TestSamplerVirtualIdle: a sampler on an otherwise idle virtual clock
// must not advance simulated time on its own — it schedules no events,
// so zero activity means zero elapsed and zero samples.
func TestSamplerVirtualIdle(t *testing.T) {
	v := vtime.NewVirtual()
	s := NewSampler(NewRegistry(), time.Millisecond)
	s.Start(v)
	if got := v.Elapsed(); got != 0 {
		t.Fatalf("sampler advanced idle clock to %v", got)
	}
	s.Stop()
	if n := len(s.Samples()); n != 0 {
		t.Fatalf("idle run emitted %d samples", n)
	}
}

// TestSamplerVirtualQuiescentPark: the virtual-mode sampler runs no
// goroutine, so Start/Stop cycles leak nothing.
func TestSamplerVirtualQuiescentPark(t *testing.T) {
	before := runtime.NumGoroutine()
	v := vtime.NewVirtual()
	for i := 0; i < 10; i++ {
		s := NewSampler(NewRegistry(), time.Millisecond)
		s.Start(v)
		s.Stop()
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew %d -> %d", before, after)
	}
}

func TestMarshalSamplesJSONAndCSV(t *testing.T) {
	samples := []Sample{
		{Offset: 10 * time.Millisecond, Values: map[string]int64{"b": 2, "a": 1}},
		{Offset: 20 * time.Millisecond, Values: map[string]int64{"a": 3}},
	}
	want := `[{"t_ns":10000000,"values":{"a":1,"b":2}},{"t_ns":20000000,"values":{"a":3}}]`
	if got := string(MarshalSamplesJSON(samples)); got != want {
		t.Fatalf("json = %s, want %s", got, want)
	}
	var buf bytes.Buffer
	if err := WriteSamplesCSV(&buf, samples); err != nil {
		t.Fatal(err)
	}
	wantCSV := strings.Join([]string{
		"t_ns,a,b",
		"10000000,1,2",
		"20000000,3,0",
	}, "\n") + "\n"
	if buf.String() != wantCSV {
		t.Fatalf("csv = %q, want %q", buf.String(), wantCSV)
	}
}
