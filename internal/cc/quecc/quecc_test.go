package quecc

import (
	"testing"

	"carat/internal/cc"
)

func collectGrants(t *testing.T) (*Scheduler, *[]cc.TxnID) {
	t.Helper()
	var woken []cc.TxnID
	s := NewScheduler(func(txn cc.TxnID) { woken = append(woken, txn) })
	return s, &woken
}

func TestPriorityOrderAdmission(t *testing.T) {
	s, woken := collectGrants(t)
	s.Plan(1, 10, true)
	s.Plan(2, 10, true)
	if d := s.Access(1, 10, true); d.Outcome != cc.Grant {
		t.Fatalf("highest-priority claim must be admitted: %v", d.Outcome)
	}
	if d := s.Access(2, 10, true); d.Outcome != cc.Block {
		t.Fatalf("younger conflicting claim must block: %v", d.Outcome)
	}
	s.Finish(1)
	if len(*woken) != 1 || (*woken)[0] != 2 {
		t.Fatalf("finish must wake the blocked successor, got %v", *woken)
	}
	s.Finish(2)
	if s.Live() != 0 {
		t.Fatal("claims leaked")
	}
}

func TestReadersShareAGranule(t *testing.T) {
	s, _ := collectGrants(t)
	s.Plan(1, 4, false)
	s.Plan(2, 4, false)
	s.Plan(3, 4, false)
	for _, txn := range []cc.TxnID{1, 2, 3} {
		if d := s.Access(txn, 4, false); d.Outcome != cc.Grant {
			t.Fatalf("reader %d must be admitted: %v", txn, d.Outcome)
		}
	}
}

func TestWriterBehindReadersWaitsForAll(t *testing.T) {
	s, woken := collectGrants(t)
	s.Plan(1, 4, false)
	s.Plan(2, 4, false)
	s.Plan(3, 4, true)
	s.Access(1, 4, false)
	s.Access(2, 4, false)
	if d := s.Access(3, 4, true); d.Outcome != cc.Block {
		t.Fatalf("writer behind readers must block: %v", d.Outcome)
	}
	s.Finish(1)
	if len(*woken) != 0 {
		t.Fatal("writer woke while a conflicting reader remained")
	}
	s.Finish(2)
	if len(*woken) != 1 || (*woken)[0] != 3 {
		t.Fatalf("writer not woken after last reader, got %v", *woken)
	}
}

func TestNoWaitEverPointsFromOlderToYounger(t *testing.T) {
	// The deadlock-freedom argument: a claim only blocks on claims ahead
	// of it in the queue, which always carry smaller ids. Exercise a
	// random-ish interleaving and assert every Block has a smaller-id
	// conflicting claim present.
	s, _ := collectGrants(t)
	for txn := cc.TxnID(1); txn <= 20; txn++ {
		for g := cc.GranuleID(0); g < 5; g++ {
			if (int(txn)+int(g))%3 != 0 {
				continue
			}
			s.Plan(txn, g, txn%2 == 0)
		}
	}
	for txn := cc.TxnID(1); txn <= 20; txn++ {
		for g := cc.GranuleID(0); g < 5; g++ {
			q := s.queues[g]
			mine := -1
			for i := range q {
				if q[i].txn == txn {
					mine = i
				}
			}
			if mine < 0 {
				continue
			}
			d := s.Access(txn, g, txn%2 == 0)
			if d.Outcome == cc.Block {
				conflict := false
				for j := 0; j < mine; j++ {
					if q[j].txn >= txn {
						t.Fatalf("claim ahead of txn %d has id %d", txn, q[j].txn)
					}
					if q[j].write || q[mine].write {
						conflict = true
					}
				}
				if !conflict {
					t.Fatalf("txn %d blocked without a conflicting predecessor on g%d", txn, g)
				}
			}
		}
	}
}

func TestLateClaimInsertsAtPriority(t *testing.T) {
	s, _ := collectGrants(t)
	s.Plan(5, 9, false)
	s.Access(5, 9, false)
	// txn 3 never planned granule 9 (the failover-read case) and claims
	// it late; as a read among reads it is admitted.
	if d := s.Access(3, 9, false); d.Outcome != cc.Grant {
		t.Fatalf("late shared claim among readers must be admitted: %v", d.Outcome)
	}
	q := s.queues[9]
	if len(q) != 2 || q[0].txn != 3 || q[1].txn != 5 {
		t.Fatalf("late claim not inserted at priority order: %v", q)
	}
}

func TestFinishWithoutClaimsIsANoOp(t *testing.T) {
	s, woken := collectGrants(t)
	s.Finish(42)
	if len(*woken) != 0 || s.Live() != 0 {
		t.Fatal("no-op Finish had side effects")
	}
}

func TestAbortedWaiterReleasesAndUnblocksSuccessors(t *testing.T) {
	s, woken := collectGrants(t)
	s.Plan(1, 7, true)
	s.Plan(2, 7, true)
	s.Plan(3, 7, true)
	s.Access(1, 7, true)
	s.Access(2, 7, true)
	s.Access(3, 7, true)
	// Txn 2 aborts (timeout) while parked: its claim must vanish and txn
	// 3 must still be woken when txn 1 finishes.
	s.Finish(2)
	s.Finish(1)
	if len(*woken) != 1 || (*woken)[0] != 3 {
		t.Fatalf("successor not woken past an aborted waiter, got %v", *woken)
	}
}
