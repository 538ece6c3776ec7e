package wal

import (
	"testing"
	"testing/quick"

	"carat/internal/rng"
	"carat/internal/storage"
)

func newStore() *storage.Store {
	return storage.NewStore(storage.Layout{Granules: 20, RecordsPerGran: 6})
}

func TestRollbackRestoresBeforeImages(t *testing.T) {
	s := newStore()
	l := NewLog()
	s.WriteBlock(3, 10)
	s.WriteBlock(7, 20)

	l.LogBeforeImage(1, s, 3)
	s.Touch(3) // 11
	l.LogBeforeImage(1, s, 7)
	s.Touch(7) // 21
	l.LogBeforeImage(1, s, 3)
	s.Touch(3) // 12

	if l.BeforeImageCount(1) != 3 {
		t.Fatalf("BeforeImageCount = %d", l.BeforeImageCount(1))
	}
	undone := l.Rollback(1, s)
	if len(undone) != 3 {
		t.Fatalf("undone = %v", undone)
	}
	// Reverse order: 3 (->11), 7 (->20), 3 (->10).
	if undone[0] != 3 || undone[1] != 7 || undone[2] != 3 {
		t.Fatalf("undo order = %v, want [3 7 3]", undone)
	}
	if s.ReadBlock(3) != 10 || s.ReadBlock(7) != 20 {
		t.Fatalf("blocks = %d,%d want 10,20", s.ReadBlock(3), s.ReadBlock(7))
	}
	if l.BeforeImageCount(1) != 0 {
		t.Fatal("undo list not cleared")
	}
}

func TestRollbackIsolatedPerTxn(t *testing.T) {
	s := newStore()
	l := NewLog()
	l.LogBeforeImage(1, s, 1)
	s.Touch(1)
	l.LogBeforeImage(2, s, 2)
	s.Touch(2)
	l.Rollback(1, s)
	if s.ReadBlock(1) != 0 {
		t.Fatal("txn 1 not undone")
	}
	if s.ReadBlock(2) != 1 {
		t.Fatal("txn 2 must be untouched by txn 1 rollback")
	}
}

func TestCommitClearsUndoList(t *testing.T) {
	s := newStore()
	l := NewLog()
	l.LogBeforeImage(1, s, 1)
	s.Touch(1)
	rec := l.Commit(1)
	if rec.Kind != Commit {
		t.Fatalf("kind = %v", rec.Kind)
	}
	if l.BeforeImageCount(1) != 0 {
		t.Fatal("commit must clear the undo list")
	}
	// A later rollback call finds nothing to undo.
	if undone := l.Rollback(1, s); len(undone) != 0 {
		t.Fatalf("rollback after commit undid %v", undone)
	}
	if s.ReadBlock(1) != 1 {
		t.Fatal("committed update lost")
	}
}

func TestLSNsMonotonic(t *testing.T) {
	s := newStore()
	l := NewLog()
	var last int64
	for i := 0; i < 10; i++ {
		r := l.LogBeforeImage(int64(i%3), s, i%5)
		if r.LSN <= last {
			t.Fatalf("LSN %d not increasing past %d", r.LSN, last)
		}
		last = r.LSN
	}
}

func TestForceAndFlushedLSN(t *testing.T) {
	l := NewLog()
	s := newStore()
	bi := l.LogBeforeImage(1, s, 0)
	rec := l.Commit(1)
	// Before-images self-force (write-ahead rule); the commit record does not.
	if l.FlushedLSN() != bi.LSN {
		t.Fatalf("FlushedLSN = %d, want %d (before-image durable, commit not)", l.FlushedLSN(), bi.LSN)
	}
	l.Force(rec.LSN)
	if l.FlushedLSN() != rec.LSN {
		t.Fatalf("FlushedLSN = %d, want %d", l.FlushedLSN(), rec.LSN)
	}
	// Forcing beyond the end clamps.
	l.Force(rec.LSN + 100)
	if l.FlushedLSN() != rec.LSN {
		t.Fatalf("FlushedLSN clamped = %d", l.FlushedLSN())
	}
}

func TestRecoverUndoesLosersOnly(t *testing.T) {
	s := newStore()
	l := NewLog()

	// Txn 1 commits durably.
	l.LogBeforeImage(1, s, 1)
	s.WriteBlock(1, 100)
	c1 := l.Commit(1)
	l.Force(c1.LSN)

	// Txn 3 in flight at crash (its before-image is durable by the
	// write-ahead rule).
	l.LogBeforeImage(3, s, 3)
	s.WriteBlock(3, 300)

	// Txn 2 updates and commits, but the commit record is never forced and
	// no later log write pushes it out: lost in the crash.
	l.LogBeforeImage(2, s, 2)
	s.WriteBlock(2, 200)
	l.Commit(2) // not forced

	losers, inDoubt := l.Recover(s)
	if len(losers) != 2 {
		t.Fatalf("losers = %v, want txns 2 and 3", losers)
	}
	if len(inDoubt) != 0 {
		t.Fatalf("inDoubt = %v, want none", inDoubt)
	}
	if s.ReadBlock(1) != 100 {
		t.Fatal("winner's update lost")
	}
	if s.ReadBlock(2) != 0 || s.ReadBlock(3) != 0 {
		t.Fatalf("losers not undone: %d, %d", s.ReadBlock(2), s.ReadBlock(3))
	}
}

func TestRecoverUndoOrderInterleaved(t *testing.T) {
	// Two losers touch the same block; undo must run in reverse LSN order
	// so the oldest before-image wins.
	s := newStore()
	l := NewLog()
	s.WriteBlock(5, 1)
	l.LogBeforeImage(1, s, 5) // image 1
	s.WriteBlock(5, 2)
	l.LogBeforeImage(2, s, 5) // image 2
	s.WriteBlock(5, 3)
	l.Force(1 << 30)
	losers, _ := l.Recover(s)
	if len(losers) != 2 {
		t.Fatalf("losers = %v", losers)
	}
	if s.ReadBlock(5) != 1 {
		t.Fatalf("block = %d, want original 1", s.ReadBlock(5))
	}
}

// TestPropertyRollbackAlwaysRestores runs random update/rollback schedules
// and checks that after rolling back every uncommitted transaction the
// store matches a shadow copy that only applied committed work.
func TestPropertyRollbackAlwaysRestores(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		layout := storage.Layout{Granules: 8, RecordsPerGran: 6}
		s := storage.NewStore(layout)
		shadow := storage.NewStore(layout)
		l := NewLog()
		const txns = 4
		liveDirty := map[int64]map[int]uint64{} // txn -> block -> pending value
		for i := 0; i < 150; i++ {
			txn := int64(1 + r.Intn(txns))
			switch r.Intn(6) {
			case 0: // commit
				if dirty, ok := liveDirty[txn]; ok {
					for b, v := range dirty {
						shadow.WriteBlock(b, v)
					}
					delete(liveDirty, txn)
				}
				l.Commit(txn)
			case 1: // abort
				l.Rollback(txn, s)
				delete(liveDirty, txn)
			default: // update a block not dirtied by another live txn
				b := r.Intn(layout.Granules)
				conflict := false
				for other, dirty := range liveDirty {
					if other != txn && dirty[b] != 0 {
						conflict = true
					}
				}
				if conflict {
					continue
				}
				if liveDirty[txn] == nil {
					liveDirty[txn] = map[int]uint64{}
				}
				if _, already := liveDirty[txn][b]; !already {
					l.LogBeforeImage(txn, s, b)
				}
				v := s.ReadBlock(b) + 1
				s.WriteBlock(b, v)
				liveDirty[txn][b] = v
			}
		}
		// Roll back everything still live.
		for txn := int64(1); txn <= txns; txn++ {
			l.Rollback(txn, s)
		}
		for b := 0; b < layout.Granules; b++ {
			if s.ReadBlock(b) != shadow.ReadBlock(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestLongLogReadsBack appends past the ramp and dozens of full-size
// segments, and reads every record back both by position and in order.
func TestLongLogReadsBack(t *testing.T) {
	l := NewLog()
	const n = 300_000
	for i := range n {
		l.LogReplicaApply(int64(i), i)
	}
	i := 0
	for r := range l.All() {
		if r.LSN != int64(i)+1 || r.Txn != int64(i) || r.Block != i {
			t.Fatalf("record %d = %+v", i, r)
		}
		if e := l.at(i); e.txn != int64(i) {
			t.Fatalf("at(%d) holds txn %d", i, e.txn)
		}
		i++
	}
	if i != n || l.FlushedLSN() != n {
		t.Fatalf("read %d records, flushed LSN %d; want %d", i, l.FlushedLSN(), n)
	}
}
