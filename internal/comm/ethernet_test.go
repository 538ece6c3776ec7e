package comm

import "testing"

func TestEthernetDelayMatchesMean(t *testing.T) {
	e := DefaultEthernet()
	for _, u := range []float64{0, 0.3, 0.7} {
		if e.Delay(200, u) != e.MeanDelay(200, u) {
			t.Fatalf("Ethernet Delay must be deterministic at u=%v", u)
		}
	}
}

func TestZeroAndFixedMeanDelay(t *testing.T) {
	if (ZeroDelay{}).Delay(100, 0.5) != 0 {
		t.Fatal("ZeroDelay delay must be 0")
	}
	if (FixedDelay{D: 3}).Delay(100, 0.9) != 3 {
		t.Fatal("FixedDelay delay must be the constant")
	}
}
