package cc_test

import (
	"testing"

	"carat/internal/cc"
	"carat/internal/tso"
)

// TestTimestampAdapterRejectsStaleRead drives the basic-TO manager through
// the Protocol interface the testbed uses.
func TestTimestampAdapterRejectsStaleRead(t *testing.T) {
	var p cc.Protocol = tso.NewManager()
	if d := p.Access(10, 3, true); d.Outcome != cc.Grant {
		t.Fatalf("write by txn 10: %v", d.Outcome)
	}
	p.Finish(10)
	if d := p.Access(5, 3, false); d.Outcome != cc.Restart {
		t.Fatalf("older read after younger write must restart: %v", d.Outcome)
	}
	if d := p.Access(20, 3, true); d.Outcome != cc.Grant {
		t.Fatalf("younger write: %v", d.Outcome)
	}
	if !p.Validate(20) {
		t.Fatal("basic TO Validate must always pass")
	}
	p.Finish(20)
}
