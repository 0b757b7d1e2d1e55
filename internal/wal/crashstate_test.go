package wal_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"reflect"
	"testing"
	"time"

	"camelot/internal/recman"
	"camelot/internal/rt"
	"camelot/internal/tid"
	"camelot/internal/wal"
)

// sectorSize is the unit a disk writes atomically: after a crash each
// unsynced sector of a write has landed whole or not at all.
const sectorSize = 512

// errCrash is what every file call returns from the crash on.
var errCrash = errors.New("crash")

// disk models one log file under a page cache. Reads see every call
// made; a crash keeps only what the last Sync made durable, plus any of
// the states crashStates lists. The k-th mutating call (Write, Truncate
// or Sync) fails when crashAt is k, and so does every call after it:
// the process is dead.
type disk struct {
	durable []byte // what every crash keeps
	view    []byte // what reads see: durable with pending applied
	pending []call // mutating calls since the last Sync, in order
	calls   int    // mutating calls attempted
	crashAt int    // the mutating call that fails; 0: none does
	read    int    // bytes ReadAt has returned
}

// call is one unsynced Write (data at off: the file's end, since the
// store opens it O_APPEND) or Truncate (to size).
type call struct {
	trunc bool
	off   int
	data  []byte
	size  int
}

func newDisk(image []byte, crashAt int) *disk {
	return &disk{durable: bytes.Clone(image), view: bytes.Clone(image), crashAt: crashAt}
}

func (d *disk) dead() bool { return d.crashAt > 0 && d.calls >= d.crashAt }

// mutate counts a mutating call and fails it from the crash on.
func (d *disk) mutate() error {
	d.calls++
	if d.dead() {
		return errCrash
	}
	return nil
}

func (d *disk) Write(p []byte) (int, error) {
	if err := d.mutate(); err != nil {
		return 0, err
	}
	d.pending = append(d.pending, call{off: len(d.view), data: bytes.Clone(p)})
	d.view = append(d.view, p...)
	return len(p), nil
}

func (d *disk) Truncate(size int64) error {
	if err := d.mutate(); err != nil {
		return err
	}
	d.pending = append(d.pending, call{trunc: true, size: int(size)})
	d.view = resize(d.view, int(size))
	return nil
}

func (d *disk) Sync() error {
	if err := d.mutate(); err != nil {
		return err
	}
	d.durable, d.pending = bytes.Clone(d.view), nil
	return nil
}

func (d *disk) ReadAt(p []byte, off int64) (int, error) {
	if d.dead() {
		return 0, errCrash
	}
	if off >= int64(len(d.view)) {
		return 0, io.EOF
	}
	n := copy(p, d.view[off:])
	d.read += n
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (d *disk) Stat() (fs.FileInfo, error) {
	if d.dead() {
		return nil, errCrash
	}
	return fileSize(len(d.view)), nil
}

func (d *disk) Close() error { return nil }

// fileSize is the FileInfo of the modelled file: its size is all a
// FileStore reads of it.
type fileSize int64

func (s fileSize) Name() string     { return "wal" }
func (s fileSize) Size() int64      { return int64(s) }
func (fileSize) Mode() fs.FileMode  { return 0o644 }
func (fileSize) ModTime() time.Time { return time.Time{} }
func (fileSize) IsDir() bool        { return false }
func (fileSize) Sys() any           { return nil }

// resize cuts b to n bytes or extends it with zeros.
func resize(b []byte, n int) []byte {
	if n <= len(b) {
		return b[:n:n]
	}
	return append(b, make([]byte, n-len(b))...)
}

// choices is the number of independent ways the pending calls can land:
// one per truncate (applied or not) and one per sector a write touches
// (landed or not).
func (d *disk) choices() int {
	n := 0
	for _, c := range d.pending {
		if c.trunc {
			n++
		} else {
			n += (c.off+len(c.data)-1)/sectorSize - c.off/sectorSize + 1
		}
	}
	return n
}

// state is the file a crash leaves when exactly the choices lands
// reports true for have landed. A write's size always reaches the disk
// with it; a sector of it that did not land keeps what was there, and
// reads as zeros past the old end of the file.
func (d *disk) state(lands func(choice int) bool) []byte {
	img, choice := bytes.Clone(d.durable), 0
	for _, c := range d.pending {
		if c.trunc {
			if lands(choice) {
				img = resize(img, c.size)
			}
			choice++
			continue
		}
		end := c.off + len(c.data)
		img = resize(img, max(len(img), end))
		for s := c.off / sectorSize * sectorSize; s < end; s += sectorSize {
			if lands(choice) {
				lo, hi := max(s, c.off), min(s+sectorSize, end)
				copy(img[lo:hi], c.data[lo-c.off:hi-c.off])
			}
			choice++
		}
	}
	return img
}

// maxChoices bounds the choices at one crash point, so a workload
// that grows past it fails rather than walking 2^choices states. The
// workloads here reach 5: each Sync leaves at most a truncate and a
// write of a few sectors pending.
const maxChoices = 10

// crashStates lists every file a crash now can leave: the durable
// image plus any subset of the pending writes' sectors, each pending
// truncate applied or not.
func (d *disk) crashStates(t *testing.T) [][]byte {
	n := d.choices()
	if n > maxChoices {
		t.Fatalf("%d pending choices at one crash point, more than the %d the enumeration walks", n, maxChoices)
	}
	states := make([][]byte, 0, 1<<n)
	for mask := 0; mask < 1<<n; mask++ {
		states = append(states, d.state(func(c int) bool { return mask>>c&1 == 1 }))
	}
	return states
}

// eachCrash runs work over a disk holding image once per mutating call
// it makes, crashing at that call, and once more to its end; check gets
// every crash state of each run, with the call the run crashed at (the
// final run's is one past its last call) and what work returned.
func eachCrash[T any](t *testing.T, image []byte, work func(*disk) T, check func(at int, state []byte, got T)) {
	for at := 1; ; at++ {
		d := newDisk(image, at)
		got := work(d)
		for _, state := range d.crashStates(t) {
			check(at, state, got)
		}
		if !d.dead() {
			return
		}
	}
}

// txn is transaction n's records: two updates of valueSize bytes each
// and its commit, forced together.
func txn(n uint32, valueSize int) []*wal.Record {
	id := tid.Top(tid.MakeFamily(1, n))
	value := bytes.Repeat([]byte{byte('a' + n)}, valueSize)
	return []*wal.Record{
		{Type: wal.RecUpdate, TID: id, Server: "srv", Key: fmt.Sprintf("k%d", n), New: value},
		{Type: wal.RecUpdate, TID: id, Server: "srv", Key: fmt.Sprintf("k%d'", n), New: value},
		{Type: wal.RecCommit, TID: id},
	}
}

// commit appends recs and forces them: one device write.
func commit(l *wal.Log, recs []*wal.Record) error {
	for _, r := range recs {
		if _, err := l.Append(r); err != nil {
			return err
		}
	}
	return l.Force(math.MaxUint64)
}

// openLog opens a group-commit log over a FileStore on d.
func openLog(d *disk) *wal.Log {
	return wal.Open(rt.Real(), wal.FileStoreOver(d), wal.Config{GroupCommit: true})
}

// commitThree is the workload: a log over d commits three
// transactions one after another. It returns the records whose force
// returned.
func commitThree(d *disk, valueSize int) (forced []*wal.Record) {
	l := openLog(d)
	defer l.Close()
	for n := uint32(1); n <= 3; n++ {
		recs := txn(n, valueSize)
		if commit(l, recs) != nil {
			break
		}
		forced = append(forced, recs...)
	}
	return forced
}

// recoverLog is recovery over d: read the log back, repairing a torn
// tail, and redo it through recman.
func recoverLog(d *disk) ([]*wal.Record, *recman.Analysis, error) {
	l := openLog(d)
	defer l.Close()
	recs, err := l.Records()
	if err != nil {
		return nil, nil, err
	}
	return recs, recman.Analyze(1, nil, recs), nil
}

// restart is a node coming back over d: recovery, then one more
// commit. It returns next if that commit's force returned.
func restart(d *disk, next []*wal.Record) []*wal.Record {
	l := openLog(d)
	defer l.Close()
	if _, err := l.Records(); err != nil || commit(l, next) != nil {
		return nil
	}
	return next
}

// lost reports what recovering state loses of forced: a refusal, a
// forced record missing from the records read back (in order), or a
// forced update missing from the redone data. "" is nothing. LSNs that
// do not strictly increase through the file — a restart numbering its
// appends from 1 again — count as a loss too: recovery's order and
// ErrCorrupt's "last good LSN" both lean on them.
func lost(state []byte, forced []*wal.Record) (what string, refused bool) {
	recs, a, err := recoverLog(newDisk(state, 0))
	if err != nil {
		return fmt.Sprintf("recovery fail-stops: %v", err), true
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].LSN <= recs[i-1].LSN {
			return fmt.Sprintf("record %d has LSN %d after LSN %d", i, recs[i].LSN, recs[i-1].LSN), false
		}
	}
	kept := 0
	for _, r := range recs {
		if kept < len(forced) && reflect.DeepEqual(r, forced[kept]) {
			kept++
		}
	}
	if kept < len(forced) {
		return fmt.Sprintf("recovered %d of the %d forced records", kept, len(forced)), false
	}
	for _, r := range forced {
		if r.Type != wal.RecUpdate {
			continue
		}
		seg := a.Data[r.Server]
		if seg == nil {
			return fmt.Sprintf("forced update %s/%s not redone: its server has no segment", r.Server, r.Key), false
		}
		if v, ok := seg.Get(r.Key); !ok || !bytes.Equal(v, r.New) {
			return fmt.Sprintf("forced update %s/%s not redone", r.Server, r.Key), false
		}
	}
	return "", false
}

// tally counts the states an assertion failed on and keeps the first
// of each kind: a forced record lost, and recovery refusing the state.
type tally struct {
	failed         int
	loss, failStop string
}

func (t *tally) add(what string, refused bool, where func() string) {
	if what == "" {
		return
	}
	t.failed++
	first := &t.loss
	if refused {
		first = &t.failStop
	}
	if *first == "" {
		*first = where() + ": " + what
	}
}

// crashCheck walks every crash state of the recorded workload with
// the three assertions.
type crashCheck struct {
	t *testing.T
	// survive: every forced record survives the crash, and recovery
	// never refuses a state the model allows; repair: the same after a
	// crash while restarting — mid tail repair, or in the first commit
	// after it.
	survive, repair                tally
	states, restarts, repairStates int
}

// state checks one crash state against the records forced before the
// crash: recovery must keep them, and so must every crash state of a
// restart over it, at each of the restart's calls.
func (c *crashCheck) state(where string, state []byte, forced []*wal.Record, valueSize int) {
	c.states++
	what, refused := lost(state, forced)
	c.survive.add(what, refused, func() string { return where })
	c.restarts++
	eachCrash(c.t, state,
		func(d *disk) []*wal.Record { return restart(d, txn(9, valueSize)) },
		func(at int, s []byte, next []*wal.Record) {
			c.repairStates++
			what, refused := lost(s, append(forced[:len(forced):len(forced)], next...))
			c.repair.add(what, refused, func() string { return fmt.Sprintf("%s, then at restart call %d", where, at) })
		})
}

// report fails t for each assertion that failed anywhere.
func (c *crashCheck) report() {
	t := c.t
	t.Helper()
	t.Logf("%d crash states of the workload, %d restarts crashed at each call, %d crash states of those",
		c.states, c.restarts, c.repairStates)
	for _, a := range []struct {
		name string
		t    tally
	}{{"crash", c.survive}, {"crash mid-restart", c.repair}} {
		if a.t.failed == 0 {
			continue
		}
		t.Errorf("after a %s, %d states fail", a.name, a.t.failed)
		if a.t.loss != "" {
			t.Errorf("  first losing a forced record: %s", a.t.loss)
		}
		if a.t.failStop != "" {
			t.Errorf("  first fail-stopping: %s", a.t.failStop)
		}
	}
}

// TestCrashStates runs a group-commit log over the page-cache model
// committing three transactions, at three value sizes (blocks short
// of a sector, straddling one, spanning several), and crashes it at
// each of its calls and in each state the model allows there. Every
// state must recover every record whose force returned, never
// fail-stop, and keep them across a crash at any call of the restart
// that repairs its tail. `make crashstates` runs it verbosely, to
// print how many states it walked.
func TestCrashStates(t *testing.T) {
	c := &crashCheck{t: t}
	for _, valueSize := range []int{8, 200, 900} {
		eachCrash(t, nil,
			func(d *disk) []*wal.Record { return commitThree(d, valueSize) },
			func(at int, state []byte, forced []*wal.Record) {
				c.state(fmt.Sprintf("%d-byte values, crash at call %d (%d bytes on disk)", valueSize, at, len(state)),
					state, forced, valueSize)
			})
	}
	c.report()
}

// TestTailRepairSurvivesCrashMidRepair restarts over a file whose
// final block a process dying inside its write cut short — a tear no
// page-cache state makes — and crashes the restart at each call, in
// every state the model allows. The tear falls inside the block's
// second frame, which recovery drops with DropTail, or at that frame's
// end, which leaves whole frames that recovery keeps and the next
// append rewrites under an honest length. The two blocks before the
// tear must survive all of them: a repair that empties the file before
// writing back what it keeps loses the whole log to a crash in between.
func TestTailRepairSurvivesCrashMidRepair(t *testing.T) {
	d := newDisk(nil, 0)
	forced := commitThree(d, 8)
	third := 0
	for range 2 {
		third += 4 + int(binary.BigEndian.Uint32(d.durable[third:]))
	}
	secondFrame := third + 4 + wal.FrameEnds(d.durable[third+4:])[1]
	c := &crashCheck{t: t}
	for _, tear := range []struct {
		where string
		end   int
	}{
		{"inside the second frame", secondFrame + 2},
		{"at the end of the second frame", secondFrame},
	} {
		image := d.durable[:tear.end]
		torn := newDisk(image, 0)
		if restart(torn, txn(9, 8)) == nil || torn.calls <= 2 {
			t.Fatalf("torn %s: a restart failed or made %d file calls, its commit's two included: it repaired nothing", tear.where, torn.calls)
		}
		if torn.read != len(image) {
			t.Errorf("torn %s: the restart read %d bytes of a %d-byte file; its repair must read each block once", tear.where, torn.read, len(image))
		}
		c.state("torn "+tear.where+" of the third block", image, forced[:6], 8)
	}
	c.report()
}
