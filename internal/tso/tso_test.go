package tso

import (
	"testing"
	"testing/quick"

	"carat/internal/cc"
	"carat/internal/rng"
)

// granted reports whether the access by the transaction with timestamp ts
// is granted.
func granted(m *Manager, ts int64, g cc.GranuleID, write bool) bool {
	return m.Access(cc.TxnID(ts), g, write).Outcome == cc.Grant
}

func TestReadAfterLaterWriteRejected(t *testing.T) {
	m := NewManager()
	if !granted(m, 20, 5, true) {
		t.Fatal("first write must pass")
	}
	if granted(m, 10, 5, false) {
		t.Fatal("read with ts 10 after write ts 20 must be rejected")
	}
	if !granted(m, 30, 5, false) {
		t.Fatal("read with ts 30 must pass")
	}
}

func TestWriteAfterLaterReadRejected(t *testing.T) {
	m := NewManager()
	if !granted(m, 20, 5, false) {
		t.Fatal("read must pass")
	}
	if granted(m, 10, 5, true) {
		t.Fatal("write ts 10 after read ts 20 must be rejected")
	}
	if !granted(m, 30, 5, true) {
		t.Fatal("write ts 30 must pass")
	}
}

func TestWriteAfterLaterWriteRejectedWithoutThomas(t *testing.T) {
	m := NewManager()
	granted(m, 20, 5, true)
	if granted(m, 10, 5, true) {
		t.Fatal("basic TO rejects obsolete writes")
	}
}

func TestTimestampsPersistAcrossFinish(t *testing.T) {
	var p cc.Protocol = NewManager()
	p.Access(20, 5, true)
	p.Finish(20)
	// A restarted old transaction still sees the granule timestamps.
	if d := p.Access(10, 5, true); d.Outcome != cc.Restart {
		t.Fatal("granule timestamps must survive Finish")
	}
}

// TestPropertySerializability: admitted operations, ordered by timestamp,
// must be conflict-equivalent to their admission order. For basic TO that
// reduces to: per granule, the sequences of admitted read and write
// timestamps are such that no admitted operation conflicts with an
// already-admitted one carrying a larger timestamp.
func TestPropertySerializability(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		m := NewManager()
		type op struct {
			ts    int64
			write bool
			g     cc.GranuleID
		}
		var admitted []op
		for i := 0; i < 300; i++ {
			o := op{
				ts:    int64(1 + r.Intn(100)),
				write: r.Bool(0.4),
				g:     cc.GranuleID(r.Intn(8)),
			}
			if granted(m, o.ts, o.g, o.write) {
				// Conflict check against everything already admitted on
				// this granule with a LARGER timestamp.
				for _, prev := range admitted {
					if prev.g != o.g || prev.ts <= o.ts {
						continue
					}
					if prev.write || o.write {
						return false // admitted a conflicting late op
					}
				}
				admitted = append(admitted, o)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
