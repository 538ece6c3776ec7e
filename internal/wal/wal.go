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
//
// Records are stored in append-only segments whose sizes double from 16 up
// to 4096, so no record is copied after it is appended, a short log holds
// about what it allocates, and the record at any position is found in O(1).
// Record i has LSN i+1, so the durable part of the log is always a prefix
// that readers scan in place.
package wal

import (
	"fmt"
	"iter"
	"math"
	"math/bits"

	"carat/internal/storage"
)

// RecordKind tags journal records.
type RecordKind uint8

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

// entry is a stored record. Its LSN is its position plus one; prev links a
// before-image to its transaction's previous one (the position plus one,
// 0 for none), which makes each transaction's undo list a chain through
// the log.
type entry struct {
	txn   int64
	image uint64
	block int
	prev  int32
	kind  RecordKind
}

// record returns the entry as the Record at position i.
func (e *entry) record(i int) Record {
	return Record{LSN: int64(i) + 1, Kind: e.kind, Txn: e.txn, Block: e.block, Image: e.image}
}

// Segment geometry: segment k holds firstSeg<<k records for k < rampSegs
// and maxSeg records after that.
const (
	firstSeg = 16
	maxSeg   = 4096
	rampSegs = 9                            // firstSeg<<(rampSegs-1) == maxSeg
	rampLen  = firstSeg * (1<<rampSegs - 1) // records held by the ramp
)

// segCap returns segment seg's capacity.
func segCap(seg int) int {
	if seg < rampSegs {
		return firstSeg << seg
	}
	return maxSeg
}

// locate returns the segment and offset of position i.
func locate(i int) (seg, off int) {
	if i < rampLen {
		seg = bits.Len(uint(i/firstSeg+1)) - 1
		return seg, i - firstSeg*(1<<seg-1)
	}
	i -= rampLen
	return rampSegs + i/maxSeg, i % maxSeg
}

// chain is a live transaction's undo list: the position plus one of its
// newest before-image and the number of before-images.
type chain struct{ last, n int32 }

// Log is one site's journal.
type Log struct {
	segs    [][]entry // every segment but the last is full
	n       int       // records appended; the newest has LSN n
	flushed int64     // LSN up to which records are on stable storage

	// byTxn holds each live transaction's undo chain for O(1) rollback
	// lookup.
	byTxn map[int64]chain
}

// NewLog creates an empty journal. It allocates no segment until the first
// record arrives.
func NewLog() *Log {
	return &Log{byTxn: make(map[int64]chain)}
}

// FlushedLSN returns the highest LSN known durable.
func (l *Log) FlushedLSN() int64 { return l.flushed }

// at returns the entry at position i.
func (l *Log) at(i int) *entry {
	seg, off := locate(i)
	return &l.segs[seg][off]
}

// append adds a record and returns it.
func (l *Log) append(e entry) Record {
	if l.n == math.MaxInt32 {
		panic("wal: journal exceeds 2^31-1 records")
	}
	seg, _ := locate(l.n)
	if seg == len(l.segs) {
		l.segs = append(l.segs, make([]entry, 0, segCap(seg)))
	}
	l.segs[seg] = append(l.segs[seg], e)
	l.n++
	return e.record(l.n - 1)
}

// entries yields the first n entries with their positions, in log order.
func (l *Log) entries(n int) iter.Seq2[int, *entry] {
	return func(yield func(int, *entry) bool) {
		i := 0
		for _, seg := range l.segs {
			for j := range seg {
				if i == n || !yield(i, &seg[j]) {
					return
				}
				i++
			}
		}
	}
}

// All yields every record in LSN order, reading the journal in place.
func (l *Log) All() iter.Seq[Record] {
	return func(yield func(Record) bool) {
		for i, e := range l.entries(l.n) {
			if !yield(e.record(i)) {
				return
			}
		}
	}
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
	c := l.byTxn[txn]
	r := l.append(entry{kind: BeforeImage, txn: txn, block: g, image: store.ReadBlock(g), prev: c.last})
	l.byTxn[txn] = chain{last: int32(r.LSN), n: c.n + 1}
	l.Force(r.LSN)
	return r
}

// BeforeImageCount returns how many before-images txn has journaled —
// exactly the number of undo I/Os a rollback will need (the TAIO phase).
func (l *Log) BeforeImageCount(txn int64) int { return int(l.byTxn[txn].n) }

// Rollback undoes txn: its before-images are applied to store in reverse
// order, an abort record is appended, and the undo list is discarded. It
// returns the blocks restored, in undo order, for the caller to charge
// rollback I/O (one database write per block).
func (l *Log) Rollback(txn int64, store *storage.Store) []int {
	c := l.byTxn[txn]
	undone := make([]int, 0, c.n)
	for p := c.last; p != 0; {
		e := l.at(int(p) - 1)
		store.WriteBlock(e.block, e.image)
		undone = append(undone, e.block)
		p = e.prev
	}
	l.append(entry{kind: Abort, txn: txn})
	delete(l.byTxn, txn)
	return undone
}

// Commit appends txn's commit record and returns it. The record is not
// durable until Force is called (the testbed charges a synchronous disk
// write for that — the force-write the paper blames for the model's
// small-n deviation).
func (l *Log) Commit(txn int64) Record {
	r := l.append(entry{kind: Commit, txn: txn})
	delete(l.byTxn, txn)
	return r
}

// LogReplicaApply appends and forces a replica-apply record: committed
// writer txn's update reached this site's copy identified by block (a
// replica lock-namespace id, not a primary granule). The caller charges the
// log-disk write; the record's durability is what lets restart recovery
// rebuild the replica version map.
func (l *Log) LogReplicaApply(txn int64, block int) Record {
	r := l.append(entry{kind: ReplicaApply, txn: txn, block: block, image: uint64(txn)})
	l.Force(r.LSN)
	return r
}

// ReplicaVersions scans the durable journal and returns the last committed
// writer of every replica block applied at this site — the restart-replay
// source for the replica version map.
func (l *Log) ReplicaVersions() map[int]int64 {
	out := make(map[int]int64)
	for _, e := range l.entries(int(l.flushed)) {
		if e.kind == ReplicaApply {
			out[e.block] = e.txn
		}
	}
	return out
}

// Prepare appends and forces txn's prepared record (a two-phase-commit
// participant voting yes). The undo list is retained: the transaction may
// still be told to abort.
func (l *Log) Prepare(txn int64) Record {
	r := l.append(entry{kind: Prepared, txn: txn})
	l.Force(r.LSN)
	return r
}

// Force marks everything up to lsn durable.
func (l *Log) Force(lsn int64) {
	if lsn > l.flushed {
		l.flushed = lsn
	}
	if l.flushed > int64(l.n) {
		l.flushed = int64(l.n)
	}
}

// fate is what the durable journal says about one transaction.
type fate uint8

const (
	undoable fate = 1 << iota // a durable before-image
	resolved                  // a durable commit or abort record
	prepared                  // a durable prepared record
)

// loser reports whether restart recovery undoes a transaction with this
// fate's before-images: it has neither a durable resolution nor a durable
// prepared record (presumed abort).
func (f fate) loser() bool { return f&(resolved|prepared) == 0 }

// inDoubt reports whether the transaction's last durable word is a
// prepared record: its fate rests with its coordinator.
func (f fate) inDoubt() bool { return f&(resolved|prepared) == prepared }

// fates reads the durable journal in place and returns every transaction's
// fate, with the transactions that have durable before-images in the order
// of their first one.
func (l *Log) fates() (fates map[int64]fate, undoTxns []int64) {
	fates = make(map[int64]fate)
	for _, e := range l.entries(int(l.flushed)) {
		f := fates[e.txn]
		switch e.kind {
		case Commit, Abort:
			f |= resolved
		case Prepared:
			f |= prepared
		case BeforeImage:
			if f&undoable == 0 {
				undoTxns = append(undoTxns, e.txn)
			}
			f |= undoable
		default:
			continue
		}
		fates[e.txn] = f
	}
	return fates, undoTxns
}

// loserImages yields the durable before-images of every loser in undo
// order: newest first across all losers, so the oldest image of a block
// is restored last.
func (l *Log) loserImages(fates map[int64]fate) iter.Seq[*entry] {
	return func(yield func(*entry) bool) {
		for i := int(l.flushed) - 1; i >= 0; i-- {
			e := l.at(i)
			if e.kind == BeforeImage && fates[e.txn].loser() && !yield(e) {
				return
			}
		}
	}
}

// LoserBlocks returns the blocks Recover would restore, in undo order, so
// a restart can charge the undo I/O. It selects losers exactly as Recover
// does.
func (l *Log) LoserBlocks() []int {
	fates, _ := l.fates()
	var blocks []int
	for e := range l.loserImages(fates) {
		blocks = append(blocks, e.block)
	}
	return blocks
}

// Recover simulates restart after losing volatile memory: only records with
// LSN <= FlushedLSN survive. Every transaction with a surviving before-
// image but no surviving commit, abort or prepared record is a loser and is
// undone against store (presumed abort). Transactions whose last word is a
// durable prepared record are in doubt: their updates are left in place and
// their ids returned for resolution against the coordinator's log (see
// ResolveInDoubt).
func (l *Log) Recover(store *storage.Store) (losers, inDoubt []int64) {
	fates, undoTxns := l.fates()
	for _, txn := range undoTxns {
		switch f := fates[txn]; {
		case f.loser():
			losers = append(losers, txn)
		case f.inDoubt():
			inDoubt = append(inDoubt, txn)
		}
	}
	for e := range l.loserImages(fates) {
		store.WriteBlock(e.block, e.image)
	}
	// Undo chains are volatile: rebuild them from the durable before-
	// images of the in-doubt transactions, so a later
	// ResolveInDoubt(abort) can roll them back.
	clear(l.byTxn)
	if len(inDoubt) > 0 {
		for i, e := range l.entries(int(l.flushed)) {
			if e.kind == BeforeImage && fates[e.txn].inDoubt() {
				c := l.byTxn[e.txn]
				e.prev = c.last
				l.byTxn[e.txn] = chain{last: int32(i) + 1, n: c.n + 1}
			}
		}
	}
	// Log the losers' abort records durably so recovery is idempotent: a
	// second restart finds them resolved.
	for _, txn := range losers {
		l.Force(l.append(entry{kind: Abort, txn: txn}).LSN)
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
