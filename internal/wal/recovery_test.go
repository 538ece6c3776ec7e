package wal

import "testing"

func TestPreparedTxnIsInDoubt(t *testing.T) {
	s := newStore()
	l := NewLog()

	// A participant updates, prepares (force-written), then the crash
	// arrives before the COMMIT message.
	l.LogBeforeImage(10, s, 2)
	s.WriteBlock(2, 200)
	l.Prepare(10)

	losers, inDoubt := l.Recover(s)
	if len(losers) != 0 {
		t.Fatalf("losers = %v, want none", losers)
	}
	if len(inDoubt) != 1 || inDoubt[0] != 10 {
		t.Fatalf("inDoubt = %v, want [10]", inDoubt)
	}
	// In-doubt updates stay in place until resolution.
	if s.ReadBlock(2) != 200 {
		t.Fatalf("in-doubt update undone prematurely: %d", s.ReadBlock(2))
	}
}

func TestResolveInDoubtCommit(t *testing.T) {
	s := newStore()
	l := NewLog()
	l.LogBeforeImage(10, s, 2)
	s.WriteBlock(2, 200)
	l.Prepare(10)
	_, inDoubt := l.Recover(s)
	if len(inDoubt) != 1 {
		t.Fatalf("inDoubt = %v", inDoubt)
	}
	l.ResolveInDoubt(10, true, s)
	if s.ReadBlock(2) != 200 {
		t.Fatal("committed in-doubt update lost")
	}
	// A second recovery finds the transaction resolved.
	losers, inDoubt2 := l.Recover(s)
	if len(losers) != 0 || len(inDoubt2) != 0 {
		t.Fatalf("after resolution: losers=%v inDoubt=%v", losers, inDoubt2)
	}
}

func TestResolveInDoubtAbort(t *testing.T) {
	s := newStore()
	l := NewLog()
	s.WriteBlock(2, 7)
	l.LogBeforeImage(10, s, 2)
	s.WriteBlock(2, 200)
	l.Prepare(10)
	_, inDoubt := l.Recover(s)
	if len(inDoubt) != 1 {
		t.Fatalf("inDoubt = %v", inDoubt)
	}
	l.ResolveInDoubt(10, false, s)
	if s.ReadBlock(2) != 7 {
		t.Fatalf("aborted in-doubt update not undone: %d", s.ReadBlock(2))
	}
}

func TestPreparedThenCommittedIsWinner(t *testing.T) {
	s := newStore()
	l := NewLog()
	l.LogBeforeImage(10, s, 2)
	s.WriteBlock(2, 200)
	l.Prepare(10)
	c := l.Commit(10)
	l.Force(c.LSN)
	losers, inDoubt := l.Recover(s)
	if len(losers) != 0 || len(inDoubt) != 0 {
		t.Fatalf("losers=%v inDoubt=%v, want committed winner", losers, inDoubt)
	}
	if s.ReadBlock(2) != 200 {
		t.Fatal("winner's update lost")
	}
}

func TestMixedRecoveryScenario(t *testing.T) {
	// One winner, one loser, one in-doubt, all interleaved on the log.
	s := newStore()
	l := NewLog()

	l.LogBeforeImage(1, s, 1)
	s.WriteBlock(1, 100)
	l.LogBeforeImage(2, s, 2)
	s.WriteBlock(2, 200)
	l.LogBeforeImage(3, s, 3)
	s.WriteBlock(3, 300)

	c := l.Commit(1)
	l.Force(c.LSN)
	l.Prepare(3)

	losers, inDoubt := l.Recover(s)
	if len(losers) != 1 || losers[0] != 2 {
		t.Fatalf("losers = %v, want [2]", losers)
	}
	if len(inDoubt) != 1 || inDoubt[0] != 3 {
		t.Fatalf("inDoubt = %v, want [3]", inDoubt)
	}
	if s.ReadBlock(1) != 100 || s.ReadBlock(2) != 0 || s.ReadBlock(3) != 300 {
		t.Fatalf("state = %d,%d,%d", s.ReadBlock(1), s.ReadBlock(2), s.ReadBlock(3))
	}
	l.ResolveInDoubt(3, false, s)
	if s.ReadBlock(3) != 0 {
		t.Fatal("in-doubt abort resolution failed")
	}
}

// TestUnforcedCommitLeavesPreparedBranchInDoubt: a participant's commit
// record that never reached stable storage does not resolve its branch, so
// recovery finds it in doubt with its undo list rebuilt, and an abort
// resolution still rolls it back.
func TestUnforcedCommitLeavesPreparedBranchInDoubt(t *testing.T) {
	s := newStore()
	l := NewLog()
	s.WriteBlock(2, 7)
	l.LogBeforeImage(10, s, 2)
	s.WriteBlock(2, 200)
	l.Prepare(10)
	l.Commit(10) // lost in the crash
	_, inDoubt := l.Recover(s)
	if len(inDoubt) != 1 || inDoubt[0] != 10 {
		t.Fatalf("inDoubt = %v, want [10]", inDoubt)
	}
	if n := l.BeforeImageCount(10); n != 1 {
		t.Fatalf("BeforeImageCount after recovery = %d, want 1", n)
	}
	l.ResolveInDoubt(10, false, s)
	if s.ReadBlock(2) != 7 {
		t.Fatalf("aborted in-doubt update not undone: %d", s.ReadBlock(2))
	}
}
