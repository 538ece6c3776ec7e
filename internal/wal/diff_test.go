package wal

import (
	"maps"
	"slices"
	"testing"

	"carat/internal/rng"
	"carat/internal/storage"
)

// refLog is the reference journal the segmented Log is checked against:
// one slice of records that append re-grows, per-transaction position
// lists for rollback, and recovery over a copy of the durable records.
type refLog struct {
	records []Record
	flushed int64
	byTxn   map[int64][]int
}

func newRefLog() *refLog { return &refLog{byTxn: map[int64][]int{}} }

func (l *refLog) append(r Record) Record {
	r.LSN = int64(len(l.records)) + 1
	l.records = append(l.records, r)
	return r
}

func (l *refLog) force(lsn int64) {
	l.flushed = min(max(l.flushed, lsn), int64(len(l.records)))
}

func (l *refLog) logBeforeImage(txn int64, s *storage.Store, g int) Record {
	r := l.append(Record{Kind: BeforeImage, Txn: txn, Block: g, Image: s.ReadBlock(g)})
	l.byTxn[txn] = append(l.byTxn[txn], len(l.records)-1)
	l.force(r.LSN)
	return r
}

func (l *refLog) rollback(txn int64, s *storage.Store) []int {
	idxs := l.byTxn[txn]
	undone := make([]int, 0, len(idxs))
	for i := len(idxs) - 1; i >= 0; i-- {
		r := l.records[idxs[i]]
		s.WriteBlock(r.Block, r.Image)
		undone = append(undone, r.Block)
	}
	l.append(Record{Kind: Abort, Txn: txn})
	delete(l.byTxn, txn)
	return undone
}

func (l *refLog) commit(txn int64) Record {
	r := l.append(Record{Kind: Commit, Txn: txn})
	delete(l.byTxn, txn)
	return r
}

func (l *refLog) durable() []Record {
	var out []Record
	for _, r := range l.records {
		if r.LSN <= l.flushed {
			out = append(out, r)
		}
	}
	return out
}

func (l *refLog) replicaVersions() map[int]int64 {
	out := map[int]int64{}
	for _, r := range l.durable() {
		if r.Kind == ReplicaApply {
			out[r.Block] = r.Txn
		}
	}
	return out
}

// loserSets returns the durable resolution and prepared sets.
func (l *refLog) loserSets() (resolved, prepared map[int64]bool) {
	resolved, prepared = map[int64]bool{}, map[int64]bool{}
	for _, r := range l.durable() {
		switch r.Kind {
		case Commit, Abort:
			resolved[r.Txn] = true
		case Prepared:
			prepared[r.Txn] = true
		}
	}
	return resolved, prepared
}

func (l *refLog) loserBlocks() []int {
	resolved, prepared := l.loserSets()
	durable := l.durable()
	var blocks []int
	for i := len(durable) - 1; i >= 0; i-- {
		if r := durable[i]; r.Kind == BeforeImage && !resolved[r.Txn] && !prepared[r.Txn] {
			blocks = append(blocks, r.Block)
		}
	}
	return blocks
}

func (l *refLog) recover(s *storage.Store) (losers, inDoubt []int64) {
	resolved, prepared := l.loserSets()
	durable := l.durable()
	seen := map[int64]bool{}
	for _, r := range durable {
		if r.Kind != BeforeImage || seen[r.Txn] {
			continue
		}
		seen[r.Txn] = true
		switch {
		case resolved[r.Txn]:
		case prepared[r.Txn]:
			inDoubt = append(inDoubt, r.Txn)
		default:
			losers = append(losers, r.Txn)
		}
	}
	for i := len(durable) - 1; i >= 0; i-- {
		if r := durable[i]; r.Kind == BeforeImage && slices.Contains(losers, r.Txn) {
			s.WriteBlock(r.Block, r.Image)
		}
	}
	l.byTxn = map[int64][]int{}
	for i, r := range l.records {
		if r.Kind == BeforeImage && r.LSN <= l.flushed && slices.Contains(inDoubt, r.Txn) {
			l.byTxn[r.Txn] = append(l.byTxn[r.Txn], i)
		}
	}
	for _, txn := range losers {
		l.force(l.append(Record{Kind: Abort, Txn: txn}).LSN)
	}
	return losers, inDoubt
}

// Differential-run geometry: a few transaction ids, so ids are reused
// after they resolve, over a small store.
const (
	diffTxns   = 6
	diffBlocks = 12
	// burstLen is how many records one burst op appends, so that short
	// op sequences still cross segment boundaries.
	burstLen = 200
)

// runDiff applies the op sequence encoded in ops (two bytes an op) to a
// Log and a refLog side by side and fails t at the first difference in
// any returned value, the journal, the durable LSN, the undo counts, the
// replica versions, the loser blocks or the store. It returns the
// journal's final length.
func runDiff(t testing.TB, ops []byte) int {
	layout := storage.Layout{Granules: diffBlocks, RecordsPerGran: 6}
	got, want := NewLog(), newRefLog()
	gs, ws := storage.NewStore(layout), storage.NewStore(layout)
	var inDoubt []int64
	differ := func(step int, what string, g, w any) {
		t.Helper()
		t.Fatalf("op %d: %s = %v, reference %v", step, what, g, w)
	}
	for step := 0; step+1 < len(ops); step += 2 {
		op, arg := ops[step]%10, int(ops[step+1])
		txn := int64(arg%diffTxns) + 1
		g := arg % diffBlocks
		switch op {
		case 0, 1: // update
			r, rr := got.LogBeforeImage(txn, gs, g), want.logBeforeImage(txn, ws, g)
			if r != rr {
				differ(step, "LogBeforeImage", r, rr)
			}
			gs.Touch(g)
			ws.Touch(g)
		case 2:
			if r, rr := got.Commit(txn), want.commit(txn); r != rr {
				differ(step, "Commit", r, rr)
			}
		case 3:
			if r, rr := got.Prepare(txn), want.append(Record{Kind: Prepared, Txn: txn}); r != rr {
				differ(step, "Prepare", r, rr)
			} else {
				want.force(rr.LSN)
			}
		case 4:
			if u, uu := got.Rollback(txn, gs), want.rollback(txn, ws); !slices.Equal(u, uu) {
				differ(step, "Rollback", u, uu)
			}
		case 5:
			r := got.LogReplicaApply(txn, 100+g)
			rr := want.append(Record{Kind: ReplicaApply, Txn: txn, Block: 100 + g, Image: uint64(txn)})
			want.force(rr.LSN)
			if r != rr {
				differ(step, "LogReplicaApply", r, rr)
			}
		case 6: // force somewhere between the durable point and past the end
			lsn := want.flushed + int64(arg%8) - 2
			got.Force(lsn)
			want.force(lsn)
		case 7:
			l, d := got.Recover(gs)
			ll, dd := want.recover(ws)
			if !slices.Equal(l, ll) || !slices.Equal(d, dd) {
				differ(step, "Recover (losers, in doubt)", [][]int64{l, d}, [][]int64{ll, dd})
			}
			inDoubt = d
		case 8: // resolve a transaction Recover left in doubt
			if len(inDoubt) > 0 {
				txn = inDoubt[arg%len(inDoubt)]
			}
			commit := arg&1 == 0
			got.ResolveInDoubt(txn, commit, gs)
			if commit {
				want.force(want.commit(txn).LSN)
			} else {
				want.rollback(txn, ws)
			}
		case 9: // burst: replica applies with an occasional unforced commit
			for i := range burstLen {
				if i%50 == 49 {
					got.Commit(txn)
					want.commit(txn)
					continue
				}
				got.LogReplicaApply(txn, 100+i%diffBlocks)
				want.force(want.append(Record{Kind: ReplicaApply, Txn: txn, Block: 100 + i%diffBlocks, Image: uint64(txn)}).LSN)
			}
		}
		if got.FlushedLSN() != want.flushed {
			differ(step, "FlushedLSN", got.FlushedLSN(), want.flushed)
		}
		for id := int64(1); id <= diffTxns; id++ {
			if n, nn := got.BeforeImageCount(id), len(want.byTxn[id]); n != nn {
				differ(step, "BeforeImageCount", n, nn)
			}
		}
		for b := range diffBlocks {
			if gs.ReadBlock(b) != ws.ReadBlock(b) {
				differ(step, "store block", gs.ReadBlock(b), ws.ReadBlock(b))
			}
		}
		// The whole-journal reads cost O(length): after every op while
		// the journal is short, then every 16th op and after the last.
		if len(want.records) > 2048 && step%32 != 0 && step+3 < len(ops) {
			continue
		}
		if recs := slices.Collect(got.All()); !slices.Equal(recs, want.records) {
			differ(step, "All()", len(recs), len(want.records))
		}
		if b, bb := got.LoserBlocks(), want.loserBlocks(); !slices.Equal(b, bb) {
			differ(step, "LoserBlocks", b, bb)
		}
		if v, vv := got.ReplicaVersions(), want.replicaVersions(); !maps.Equal(v, vv) {
			differ(step, "ReplicaVersions", v, vv)
		}
	}
	return len(want.records)
}

// TestLogMatchesReference runs long random op sequences, tens of
// thousands of records deep, so the journal crosses every ramp segment
// and several full-size ones.
func TestLogMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		r := rng.New(seed)
		ops := make([]byte, 2*1100)
		for i := range ops {
			ops[i] = byte(r.Intn(256))
		}
		if n := runDiff(t, ops); n < rampLen+2*maxSeg {
			t.Fatalf("seed %d: journal reached %d records, want past %d", seed, n, rampLen+2*maxSeg)
		}
	}
}

// FuzzLog checks arbitrary op sequences against the reference journal.
func FuzzLog(f *testing.F) {
	// Hand-written seeds: a rollback after updates, a recovery with a
	// loser and an in-doubt branch and their resolutions, bursts across
	// the first segment boundaries followed by recovery.
	f.Add([]byte{0, 1, 0, 7, 1, 13, 4, 1})
	f.Add([]byte{0, 1, 0, 2, 3, 2, 0, 9, 2, 9, 7, 0, 8, 0, 8, 1, 7, 0})
	f.Add([]byte{9, 0, 0, 3, 9, 1, 3, 3, 6, 4, 9, 2, 0, 4, 7, 0, 8, 3, 4, 3})
	// A prepared branch whose commit record was never forced is in doubt
	// after recovery, and resolving it as an abort still undoes it.
	f.Add([]byte{0, 1, 0, 7, 3, 1, 2, 1, 7, 0, 8, 1})
	r := rng.New(7)
	mixed := make([]byte, 256)
	for i := range mixed {
		mixed[i] = byte(r.Intn(256))
	}
	f.Add(mixed)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		runDiff(t, ops)
	})
}

// TestReadsAllocateNothingPerRecord checks that reading the journal,
// recovering it and rolling a transaction back allocate nothing that grows
// with the journal's length: the records are read in place.
func TestReadsAllocateNothingPerRecord(t *testing.T) {
	measure := func(n int) (all, recovery, rollback float64) {
		s := newStore()
		l := NewLog()
		// Txn 1 stays in doubt across recoveries; txn 2 is the first
		// recovery's loser; txn 3's replica applies make the journal long.
		l.LogBeforeImage(1, s, 1)
		l.Prepare(1)
		l.LogBeforeImage(2, s, 2)
		for i := range n {
			l.LogReplicaApply(3, 100+i%7)
		}
		l.LogBeforeImage(1, s, 3)
		l.Recover(s)
		var sum int64
		all = testing.AllocsPerRun(10, func() {
			for r := range l.All() {
				sum += r.LSN
			}
		})
		recovery = testing.AllocsPerRun(10, func() { l.Recover(s) })
		rollback = testing.AllocsPerRun(10, func() {
			for g := range 4 {
				l.LogBeforeImage(4, s, g)
			}
			l.Rollback(4, s)
		})
		return all, recovery, rollback
	}
	all, recovery, rollback := measure(100)
	longAll, longRecovery, longRollback := measure(50_000)
	t.Logf("allocations at 100 and 50000 records: All %v, %v; Recover %v, %v; updates+Rollback %v, %v",
		all, longAll, recovery, longRecovery, rollback, longRollback)
	if all != 0 || longAll != 0 {
		t.Errorf("All allocated %v times over 100 records and %v over 50000, want 0", all, longAll)
	}
	if longRecovery != recovery {
		t.Errorf("Recover allocated %v times over 100 records and %v over 50000", recovery, longRecovery)
	}
	// Rollback's one allocation is the list of restored blocks.
	if rollback > 1 || longRollback > 1 {
		t.Errorf("four updates and a rollback allocated %v times over 100 records and %v over 50000, want at most 1",
			rollback, longRollback)
	}
}
