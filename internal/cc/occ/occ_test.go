package occ

import (
	"testing"

	"carat/internal/cc"
)

func TestReadOnlyTxnsNeverConflict(t *testing.T) {
	m := NewManager()
	m.Begin(1, 0)
	m.Begin(2, 0)
	m.Access(1, 7, false)
	m.Access(2, 7, false)
	if !m.Validate(1) || !m.Validate(2) {
		t.Fatal("concurrent readers must both validate")
	}
	m.Finish(1)
	m.Finish(2)
	if m.Live() != 0 {
		t.Fatalf("Live = %d after Finish", m.Live())
	}
}

func TestBackwardValidationCatchesStaleRead(t *testing.T) {
	m := NewManager()
	m.Begin(1, 0) // reader starts first
	m.Begin(2, 0)
	m.Access(1, 7, false)
	m.Access(2, 7, true)
	if !m.Validate(2) {
		t.Fatal("writer validates first and must pass")
	}
	m.Finish(2)
	if m.Validate(1) {
		t.Fatal("reader overlapped a committed write of its read set and must abort")
	}
	m.Finish(1)
}

func TestWriteWriteConflictDetected(t *testing.T) {
	m := NewManager()
	m.Begin(1, 0)
	m.Begin(2, 0)
	m.Access(1, 3, true)
	m.Access(2, 3, true)
	if !m.Validate(1) {
		t.Fatal("first writer must pass")
	}
	m.Finish(1)
	if m.Validate(2) {
		t.Fatal("second writer overlapped the first and must abort")
	}
	m.Finish(2)
}

func TestSerialTxnsNeverConflict(t *testing.T) {
	m := NewManager()
	for i := cc.TxnID(1); i <= 50; i++ {
		m.Begin(i, 0)
		m.Access(i, cc.GranuleID(i%4), true)
		if !m.Validate(i) {
			t.Fatalf("serial txn %d failed validation", i)
		}
		m.Finish(i)
	}
}

func TestDisjointWriteSetsValidate(t *testing.T) {
	m := NewManager()
	m.Begin(1, 0)
	m.Begin(2, 0)
	m.Access(1, 1, true)
	m.Access(2, 2, true)
	if !m.Validate(1) || !m.Validate(2) {
		t.Fatal("disjoint writers must both validate")
	}
	m.Finish(1)
	m.Finish(2)
}

func TestHistoryGarbageCollected(t *testing.T) {
	m := NewManager()
	for i := cc.TxnID(1); i <= 1000; i++ {
		m.Begin(i, 0)
		m.Access(i, cc.GranuleID(i), true)
		m.Validate(i)
		m.Finish(i)
	}
	if len(m.hist) > 1 {
		t.Fatalf("history not collected: %d entries survive with no live txns", len(m.hist))
	}
}

func TestLateAccessWithoutBeginIsTracked(t *testing.T) {
	m := NewManager()
	m.Access(9, 4, false) // failover read path: no explicit Begin
	if m.Live() != 1 {
		t.Fatal("late access did not open tracking state")
	}
	if !m.Validate(9) {
		t.Fatal("late read with nothing published since must validate")
	}
	m.Finish(9)
}
