// Package wal implements before-image journaling, the transaction recovery
// protocol of the CARAT testbed (Section 2: "Before-image journaling was
// used for transaction recovery").
//
// Before a transaction overwrites a database block, the block's prior
// contents (the before-image) are appended to the journal. Rolling back a
// transaction re-applies its before-images in reverse order; committing
// writes a commit record that must be force-written to stable storage
// before the transaction's locks are released (write-ahead rule). Recovery
// after a crash undoes every transaction without a commit record.
//
// The log is an in-memory sequence of records; the simulator charges the
// corresponding disk time separately through the disk package. The logical
// structure here is nonetheless complete enough to test the undo and crash
// recovery invariants directly.
package wal

import (
	"fmt"

	"carat/internal/storage"
)

// RecordKind tags journal records.
type RecordKind int

const (
	// BeforeImage stores a block's contents prior to an update.
	BeforeImage RecordKind = iota
	// Commit marks a transaction durable. It is force-written.
	Commit
	// Abort marks a transaction rolled back (written after undo).
	Abort
	// Prepared marks a two-phase-commit participant's promise: the
	// transaction's fate now rests with its coordinator. Force-written
	// before the PREPARE acknowledgment.
	Prepared
	// ReplicaApply marks a committed writer's update reaching a replica
	// copy: Block is the replica's lock-namespace id and Txn the committed
	// writer. Force-written at apply time, and deliberately invisible to
	// the loser/in-doubt selection of Recover — the writer is already
	// durably committed at its coordinator, so restart replay only needs
	// to restore the replica version map from these records.
	ReplicaApply
)

// String names the record kind.
func (k RecordKind) String() string {
	switch k {
	case BeforeImage:
		return "before-image"
	case Commit:
		return "commit"
	case Abort:
		return "abort"
	case Prepared:
		return "prepared"
	case ReplicaApply:
		return "replica-apply"
	default:
		return fmt.Sprintf("RecordKind(%d)", int(k))
	}
}

// Record is one journal entry.
type Record struct {
	LSN   int64
	Kind  RecordKind
	Txn   int64
	Block int    // BeforeImage only
	Image uint64 // BeforeImage only: prior block version
}

// Log is one site's journal.
type Log struct {
	records []Record
	nextLSN int64
	flushed int64 // LSN up to which records are on stable storage

	// byTxn indexes the positions of each live transaction's before-image
	// records for O(1) rollback lookup.
	byTxn map[int64][]int
}

// NewLog creates an empty journal.
func NewLog() *Log {
	return &Log{byTxn: make(map[int64][]int)}
}

// FlushedLSN returns the highest LSN known durable.
func (l *Log) FlushedLSN() int64 { return l.flushed }

// append adds a record and returns it.
func (l *Log) append(r Record) Record {
	l.nextLSN++
	r.LSN = l.nextLSN
	l.records = append(l.records, r)
	return r
}

// LogBeforeImage journals block g's current contents from store on behalf
// of txn. Call it before the in-place write. Returns the record for the
// caller to charge I/O against.
//
// The record is immediately durable: the testbed writes the journal
// synchronously as one of the three I/Os of an update (Table 2), and the
// write-ahead rule requires it on stable storage before the in-place page
// write. Because the log is sequential, this also forces any earlier
// unforced records.
func (l *Log) LogBeforeImage(txn int64, store *storage.Store, g int) Record {
	r := l.append(Record{Kind: BeforeImage, Txn: txn, Block: g, Image: store.ReadBlock(g)})
	l.byTxn[txn] = append(l.byTxn[txn], len(l.records)-1)
	l.Force(r.LSN)
	return r
}

// BeforeImageCount returns how many before-images txn has journaled —
// exactly the number of undo I/Os a rollback will need (the TAIO phase).
func (l *Log) BeforeImageCount(txn int64) int { return len(l.byTxn[txn]) }

// Rollback undoes txn: its before-images are applied to store in reverse
// order, an abort record is appended, and the undo list is discarded. It
// returns the blocks restored, in undo order, for the caller to charge
// rollback I/O (one database write per block).
func (l *Log) Rollback(txn int64, store *storage.Store) []int {
	idxs := l.byTxn[txn]
	undone := make([]int, 0, len(idxs))
	for i := len(idxs) - 1; i >= 0; i-- {
		rec := l.records[idxs[i]]
		store.WriteBlock(rec.Block, rec.Image)
		undone = append(undone, rec.Block)
	}
	l.append(Record{Kind: Abort, Txn: txn})
	delete(l.byTxn, txn)
	return undone
}

// Commit appends txn's commit record and returns it. The record is not
// durable until Force is called (the testbed charges a synchronous disk
// write for that — the force-write the paper blames for the model's
// small-n deviation).
func (l *Log) Commit(txn int64) Record {
	r := l.append(Record{Kind: Commit, Txn: txn})
	delete(l.byTxn, txn)
	return r
}

// LogReplicaApply appends and forces a replica-apply record: committed
// writer txn's update reached this site's copy identified by block (a
// replica lock-namespace id, not a primary granule). The caller charges the
// log-disk write; the record's durability is what lets restart recovery
// rebuild the replica version map.
func (l *Log) LogReplicaApply(txn int64, block int) Record {
	r := l.append(Record{Kind: ReplicaApply, Txn: txn, Block: block, Image: uint64(txn)})
	l.Force(r.LSN)
	return r
}

// ReplicaVersions scans the durable journal and returns the last committed
// writer of every replica block applied at this site — the restart-replay
// source for the replica version map.
func (l *Log) ReplicaVersions() map[int]int64 {
	out := make(map[int]int64)
	for _, r := range l.records {
		if r.Kind == ReplicaApply && r.LSN <= l.flushed {
			out[r.Block] = r.Txn
		}
	}
	return out
}

// Prepare appends and forces txn's prepared record (a two-phase-commit
// participant voting yes). The undo list is retained: the transaction may
// still be told to abort.
func (l *Log) Prepare(txn int64) Record {
	r := l.append(Record{Kind: Prepared, Txn: txn})
	l.Force(r.LSN)
	return r
}

// Force marks everything up to lsn durable.
func (l *Log) Force(lsn int64) {
	if lsn > l.flushed {
		l.flushed = lsn
	}
	if l.flushed > l.nextLSN {
		l.flushed = l.nextLSN
	}
}

// Records returns a copy of the journal (tests and recovery).
func (l *Log) Records() []Record {
	out := make([]Record, len(l.records))
	copy(out, l.records)
	return out
}

// Recover simulates restart after losing volatile memory: only records with
// LSN <= FlushedLSN survive. Every transaction with a surviving before-
// image but no surviving commit, abort or prepared record is a loser and is
// undone against store (presumed abort). Transactions whose last word is a
// durable prepared record are in doubt: their updates are left in place and
// their ids returned for resolution against the coordinator's log (see
// ResolveInDoubt).
func (l *Log) Recover(store *storage.Store) (losers, inDoubt []int64) {
	durable := l.records[:0:0]
	for _, r := range l.records {
		if r.LSN <= l.flushed {
			durable = append(durable, r)
		}
	}
	resolved := make(map[int64]bool)
	prepared := make(map[int64]bool)
	var undoTxns []int64
	hasUndo := make(map[int64]bool)
	for _, r := range durable {
		switch r.Kind {
		case Commit, Abort:
			resolved[r.Txn] = true
		case Prepared:
			prepared[r.Txn] = true
		case BeforeImage:
			if !hasUndo[r.Txn] {
				hasUndo[r.Txn] = true
				undoTxns = append(undoTxns, r.Txn)
			}
		}
	}
	for _, txn := range undoTxns {
		switch {
		case resolved[txn]:
		case prepared[txn]:
			inDoubt = append(inDoubt, txn)
		default:
			losers = append(losers, txn)
		}
	}
	loserSet := make(map[int64]bool, len(losers))
	for _, t := range losers {
		loserSet[t] = true
	}
	// Undo in reverse log order across all losers. In-doubt undo lists are
	// rebuilt so a later ResolveInDoubt(abort) can roll them back.
	inDoubtSet := make(map[int64]bool, len(inDoubt))
	for _, t := range inDoubt {
		inDoubtSet[t] = true
	}
	l.byTxn = make(map[int64][]int)
	for i := len(durable) - 1; i >= 0; i-- {
		r := durable[i]
		if r.Kind != BeforeImage {
			continue
		}
		if loserSet[r.Txn] {
			store.WriteBlock(r.Block, r.Image)
		}
	}
	for i, r := range l.records {
		if r.Kind == BeforeImage && r.LSN <= l.flushed && inDoubtSet[r.Txn] {
			l.byTxn[r.Txn] = append(l.byTxn[r.Txn], i)
		}
	}
	// Log the losers' abort records durably so recovery is idempotent: a
	// second restart finds them resolved.
	for _, txn := range losers {
		r := l.append(Record{Kind: Abort, Txn: txn})
		l.Force(r.LSN)
	}
	return losers, inDoubt
}

// ResolveInDoubt settles an in-doubt transaction after recovery: commit
// keeps its updates and logs a commit record; abort rolls them back.
func (l *Log) ResolveInDoubt(txn int64, commit bool, store *storage.Store) {
	if commit {
		rec := l.Commit(txn)
		l.Force(rec.LSN)
		return
	}
	l.Rollback(txn, store)
}
