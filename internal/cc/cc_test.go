package cc

import (
	"strings"
	"testing"

	"carat/internal/lock"
)

func TestParseCanonicalAndAliases(t *testing.T) {
	cases := map[string]Paradigm{
		"2PL":                TwoPhaseDetect,
		"2pl-detect":         TwoPhaseDetect,
		"Wait-Die":           TwoPhaseWaitDie,
		"waitdie":            TwoPhaseWaitDie,
		"WOUND-WAIT":         TwoPhaseWoundWait,
		"2pl-wound-wait":     TwoPhaseWoundWait,
		"basic-TO":           TimestampOrdering,
		"timestamp-ordering": TimestampOrdering,
		"to":                 TimestampOrdering,
		"OCC":                Optimistic,
		"optimistic":         Optimistic,
		"QueCC":              QueueOrdered,
		"quecc":              QueueOrdered,
		" 2pl ":              TwoPhaseDetect,
	}
	for in, want := range cases {
		got, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		if got != want {
			t.Errorf("Parse(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestParseRejectsUnknownListingModes(t *testing.T) {
	_, err := Parse("3PL")
	if err == nil {
		t.Fatal("Parse accepted an unknown mode")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list valid mode %q", err, name)
		}
	}
}

func TestRoundTripParseString(t *testing.T) {
	for p := Paradigm(0); p < numParadigms; p++ {
		got, err := Parse(p.String())
		if err != nil || got != p {
			t.Errorf("Parse(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
}

func TestCapabilityFlags(t *testing.T) {
	// Only the detection discipline can deadlock; everything else must
	// run with the probe machinery disarmed.
	for p := Paradigm(0); p < numParadigms; p++ {
		caps := p.Capabilities()
		if got, want := caps.Deadlocks, p == TwoPhaseDetect; got != want {
			t.Errorf("%v: Deadlocks = %v, want %v", p, got, want)
		}
	}
	if !QueueOrdered.Capabilities().Deterministic {
		t.Error("QueCC must be Deterministic")
	}
	if !Optimistic.Capabilities().ValidatesAtCommit {
		t.Error("OCC must validate at commit")
	}
}

func TestLockAdapterMirrorsManager(t *testing.T) {
	granted := map[lock.TxnID]bool{}
	m := lock.NewManagerWithDiscipline(lock.Detect, lock.VictimRequester,
		func(txn lock.TxnID, _ lock.GranuleID) { granted[txn] = true })
	p := ForLockManager(m, TwoPhaseDetect)
	if d := p.Access(1, 10, false); d.Outcome != Grant {
		t.Fatalf("first shared access: %v", d.Outcome)
	}
	if d := p.Access(2, 10, true); d.Outcome != Block {
		t.Fatalf("conflicting write should queue: %v", d.Outcome)
	}
	p.Finish(1)
	if !granted[2] {
		t.Fatal("release did not dispatch the queued writer")
	}
	if !p.Validate(2) {
		t.Fatal("2PL Validate must always pass")
	}
	p.Finish(2)
	if m.NumHeld(1)+m.NumHeld(2) != 0 {
		t.Fatal("locks leaked after Finish")
	}
}

func TestLockAdapterWaitDieRestartsYounger(t *testing.T) {
	m := lock.NewManagerWithDiscipline(lock.WaitDie, lock.VictimRequester, func(lock.TxnID, lock.GranuleID) {})
	p := ForLockManager(m, TwoPhaseWaitDie)
	p.Begin(1, 100)
	p.Begin(2, 200)
	if d := p.Access(1, 5, true); d.Outcome != Grant {
		t.Fatalf("older writer: %v", d.Outcome)
	}
	if d := p.Access(2, 5, true); d.Outcome != Restart {
		t.Fatalf("younger conflicting writer under wait-die should die: %v", d.Outcome)
	}
}
