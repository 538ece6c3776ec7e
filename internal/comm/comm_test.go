package comm

import (
	"math"
	"testing"
)

func TestEthernetModelShape(t *testing.T) {
	en := DefaultEthernet()
	// Zero load: delay is about transmission + propagation.
	d0 := en.MeanDelay(128, 0)
	tx := en.transmission(128)
	if math.Abs(d0-(tx+en.Propagation)) > 1e-9 {
		t.Fatalf("idle delay = %v, want %v", d0, tx+en.Propagation)
	}
	// Delay must rise with utilization.
	prev := d0
	for _, u := range []float64{0.2, 0.5, 0.8, 0.9} {
		d := en.MeanDelay(128, u)
		if d <= prev {
			t.Fatalf("delay not increasing at u=%v: %v <= %v", u, d, prev)
		}
		prev = d
	}
	// Saturation guard: still finite near 1.
	if d := en.MeanDelay(128, 0.999); math.IsInf(d, 0) || math.IsNaN(d) {
		t.Fatalf("saturated delay = %v", d)
	}
}

func TestEthernetMinimumFrame(t *testing.T) {
	en := DefaultEthernet()
	if en.transmission(1) != en.transmission(64) {
		t.Fatal("frames below the 64-byte minimum must pad")
	}
	if en.transmission(1000) <= en.transmission(64) {
		t.Fatal("bigger frames must take longer")
	}
}
