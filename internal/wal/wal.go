package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/storage"
)

// segMagic heads every segment file, followed by the segment's sequence
// number (uint64 LE).
const segMagic = "OSRWAL1\n"

// segHeaderSize is the byte length of a segment header.
const segHeaderSize = len(segMagic) + 8

// batchBytes is the batch buffer threshold: under SyncBatch the log
// fsyncs whenever at least this many bytes accumulated since the last
// sync, amortizing the fsync over many records.
const batchBytes = 64 << 10

// SyncPolicy selects when appended records are fsynced to disk.
type SyncPolicy int

const (
	// SyncBatch (the default) flushes and fsyncs whenever the batch
	// buffer fills, and always at checkpoint rotation and Close. A crash
	// loses at most the last partial batch.
	SyncBatch SyncPolicy = iota
	// SyncAlways acknowledges no append before a covering fsync —
	// maximum durability. Concurrent appends commit in groups: one
	// leader flushes and fsyncs once for every record buffered by the
	// group, then releases all of its waiters, so the fsync rate scales
	// with commit groups rather than with records.
	SyncAlways
)

// String names the policy for Explain-style output.
func (p SyncPolicy) String() string {
	if p == SyncAlways {
		return "always"
	}
	return "batch"
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// Replay receives the recovered state during Open, in replay order. Any
// callback may be nil to skip that record type. Sym is called once per
// interned name in Value order (snapshot first, then tail records), so
// applying it to a fresh symbol table reproduces identical Values; Fact
// and Retract receive constant names (already translated from logged
// Values), so they can be applied to any database via AddFact and
// RemoveFact. Retractions replay in log order interleaved with inserts,
// reproducing the original mutation sequence exactly.
type Replay struct {
	Sym     func(name string)
	Rel     func(pred string, arity int)
	Fact    func(pred string, consts []string)
	Retract func(pred string, consts []string)
	Rule    func(src string)
	Shape   func(query string)
}

// ReplayInto returns the data half of a Replay — Sym, Rel, Fact and
// Retract — applying recovered state straight to db, one record at a
// time (so db's epoch lands on the writer's: one tick per accepted
// mutation). Recovery and replication both start from it and add their
// own Rule and Shape handling.
func ReplayInto(db *storage.Database) Replay {
	return Replay{
		Sym:     func(name string) { db.Syms.Intern(name) },
		Rel:     func(pred string, arity int) { db.Declare(pred, arity) },
		Fact:    func(pred string, consts []string) { db.AddFact(pred, consts...) },
		Retract: func(pred string, consts []string) { db.RemoveFact(pred, consts...) },
	}
}

// Log is a write-ahead segment log bound to one directory. It implements
// storage.Journal: attach it with Database.SetJournal and every accepted
// insert and fresh symbol intern is appended as a record. Append errors
// are sticky — the first one is remembered and surfaced by Err (which
// the engine consults after every commit), Sync, Checkpoint, and Close —
// because the journal hooks have no error channel of their own.
type Log struct {
	dir    string
	policy SyncPolicy

	mu      sync.Mutex
	f       *os.File
	w       *bufio.Writer
	seq     uint64 // active segment sequence
	pending int    // bytes buffered since the last fsync
	err     error  // sticky first failure
	closed  bool
	// failed mirrors err != nil for Err, which must not wait on mu.
	failed atomic.Bool

	// Write-path counters, guarded by mu (CommitStats reads them).
	statFsyncs    uint64
	statRecords   uint64
	statGroups    uint64
	statGroupRecs uint64
	statLastGroup int
	statMaxGroup  int

	// Group commit (SyncAlways). Appenders join the open commit group
	// under gcMu — NOT mu, so arrivals can keep joining while the
	// previous group's leader holds mu for its fsync; those arrivals
	// form the next group and share its single fsync (natural
	// batching). The first member of a group is its designated leader:
	// it commits immediately when no commit is in flight, otherwise it
	// parks on the group's start channel and the finishing leader hands
	// off to it.
	gcMu     sync.Mutex
	gcCur    *commitGroup
	gcActive bool // a leader currently owns the commit pipeline

	ckptMu  sync.Mutex // serializes Checkpoint callers and guards headSeq
	headSeq uint64     // sequence of the newest snapshot (0 when none)
}

// segmentName renders a segment file name for a sequence number.
func segmentName(seq uint64) string { return fmt.Sprintf("seg-%016d.wal", seq) }

// snapshotName renders a snapshot file name for a covered sequence.
func snapshotName(seq uint64) string { return fmt.Sprintf("snap-%016d.snap", seq) }

// parseSeq extracts the sequence number from a segment or snapshot file
// name.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// recovered is where recoverDir left off: the snapshot it started from
// and the segments it replayed.
type recovered struct {
	snapSeq uint64 // snapshot applied (0 when none)
	maxSeq  uint64 // highest sequence in use, snapshot or segment
	lastSeq uint64 // newest live segment replayed (0 when none)
}

// recoverDir replays the state persisted in dir (creating it if
// missing) — the newest readable snapshot first, then every segment above
// it in sequence order, tolerating a torn final record in the last
// segment by truncating it — streaming the state into the replay
// callbacks.
//
// A snapshot that does not read is skipped for its predecessor, or for
// none: a crash between a checkpoint's snapshot write and its prune
// leaves the predecessor and the segments it needs on disk. That is only
// sound while those segments are all there, so the segments above the
// snapshot S that recovery starts from (S = 0 when none) must be exactly
// S+1, S+2, …; a gap fails recovery (with ErrCorruptSnapshot when a
// skipped snapshot covered it) before anything is replayed. A snapshot
// in a retired format fails it outright.
func recoverDir(dir string, replay Replay) (*recovered, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs, snaps []uint64
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), "seg-", ".wal"); ok {
			segs = append(segs, seq)
		}
		if seq, ok := parseSeq(e.Name(), "snap-", ".snap"); ok {
			snaps = append(snaps, seq)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] > snaps[j] })

	rec := &recovered{}
	var snap *Snapshot
	var skipped error // why the newest unreadable snapshot was skipped
	for _, seq := range snaps {
		s, err := readSnapshot(dir, seq)
		if errors.Is(err, ErrSnapshotVersion) {
			return nil, err
		}
		if err != nil {
			if skipped == nil {
				skipped = err
			}
			continue
		}
		snap, rec.snapSeq = s, seq
		break
	}
	live := segs[:0]
	for _, seq := range segs {
		if seq > rec.snapSeq {
			live = append(live, seq)
		}
	}
	for i, seq := range live {
		if want := rec.snapSeq + 1 + uint64(i); seq != want {
			err := fmt.Errorf("wal: %s: segment %d is missing (the next is %d)", dir, want, seq)
			if skipped != nil {
				err = fmt.Errorf("%w; a newer snapshot that would cover it was skipped: %w", err, skipped)
			}
			return nil, err
		}
	}
	rec.maxSeq = rec.snapSeq
	if len(live) > 0 {
		rec.maxSeq = live[len(live)-1]
	}

	st := &replayState{replay: replay}
	if snap != nil {
		st.applySnapshot(snap)
	}
	for i, seq := range live {
		final := i == len(live)-1
		if err := st.replaySegment(filepath.Join(dir, segmentName(seq)), seq, final); err != nil {
			return nil, err
		}
		rec.lastSeq = seq
	}
	return rec, nil
}

// Open recovers the state persisted in dir (creating it if missing),
// streams it into the replay callbacks, and returns a log appending to
// a fresh segment.
func Open(dir string, policy SyncPolicy, replay Replay) (*Log, error) {
	rec, err := recoverDir(dir, replay)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, policy: policy, seq: rec.maxSeq + 1, headSeq: rec.snapSeq}
	if err := l.openSegment(); err != nil {
		return nil, err
	}
	return l, nil
}

// RecoverResult reports where a replay-only recovery left off, so a
// replication cursor can resume exactly at the recovered boundary.
type RecoverResult struct {
	SnapshotSeq uint64 // snapshot recovery started from (0 when none)
	LastSeq     uint64 // newest live segment replayed (0 when none)
	LastSize    int64  // size of that segment after torn-tail truncation
}

// Recover replays the state persisted in dir into the callbacks without
// opening a new active segment. A follower restarting from its local
// mirror uses this: the primary is still appending to the mirrored
// segments, so creating a successor segment here would collide with the
// stream. The returned cursor (LastSeq, LastSize) is the first byte not
// yet applied.
func Recover(dir string, replay Replay) (RecoverResult, error) {
	rec, err := recoverDir(dir, replay)
	if err != nil {
		return RecoverResult{}, err
	}
	res := RecoverResult{SnapshotSeq: rec.snapSeq, LastSeq: rec.lastSeq}
	if rec.lastSeq != 0 {
		fi, err := os.Stat(filepath.Join(dir, segmentName(rec.lastSeq)))
		if err != nil {
			return RecoverResult{}, err
		}
		res.LastSize = fi.Size()
	}
	return res, nil
}

// replayState accumulates the Value->name translation while streaming
// recovered records into the user's callbacks.
type replayState struct {
	replay Replay
	names  []string
	seen   map[string]bool // the names in names; nil until sym needs it
}

func (st *replayState) sym(name string) {
	// A symbol interned between checkpoint rotation and snapshot
	// collection appears both in the snapshot and as a tail record;
	// appending it twice would shift the Value->name translation for
	// everything after it. First occurrence wins — that is the original
	// process's dense id order.
	if st.seen == nil {
		st.seen = make(map[string]bool, len(st.names)+1)
		for _, n := range st.names {
			st.seen[n] = true
		}
	}
	if st.seen[name] {
		return
	}
	st.seen[name] = true
	st.names = append(st.names, name)
	if st.replay.Sym != nil {
		st.replay.Sym(name)
	}
}

// tuple translates a logged tuple's Values back to constant names and
// hands it to cb (the Fact or Retract callback; nil skips it).
func (st *replayState) tuple(cb func(pred string, consts []string), pred string, vals []storage.Value) error {
	consts := make([]string, len(vals))
	for i, v := range vals {
		if int(v) < 0 || int(v) >= len(st.names) {
			return fmt.Errorf("wal: fact %s references unknown value %d", pred, v)
		}
		consts[i] = st.names[v]
	}
	if cb != nil {
		cb(pred, consts)
	}
	return nil
}

// applySnapshot streams a snapshot into the callbacks: its names in
// Value order, then every relation's tuples translated through them.
func (st *replayState) applySnapshot(s *Snapshot) {
	if len(st.names) == 0 {
		// decodeSnapshot refused a repeated name, so a fresh translation
		// is the snapshot's list as it stands; sym indexes it only once a
		// logged name arrives.
		st.names = slices.Clip(s.Syms)
		for _, name := range s.Syms {
			if st.replay.Sym != nil {
				st.replay.Sym(name)
			}
		}
	} else {
		for _, name := range s.Syms {
			st.sym(name)
		}
	}
	for _, r := range s.Rels {
		if st.replay.Rel != nil {
			st.replay.Rel(r.Pred, r.Arity)
		}
		if r.Count == 0 {
			continue // an empty block's arity may be up to maxRecordSize
		}
		t := make(storage.Tuple, r.Arity)
		for j := 0; j < r.Count; j++ {
			for c, col := range r.Cols {
				t[c] = col[j]
			}
			// Errors are impossible here: decodeSnapshot refused a value
			// outside the snapshot's symbol table and a name listed twice,
			// and st.names now holds at least as many names as it does.
			st.tuple(st.replay.Fact, r.Pred, t)
		}
	}
	for _, r := range s.Rules {
		if st.replay.Rule != nil {
			st.replay.Rule(r)
		}
	}
	for _, q := range s.Shapes {
		if st.replay.Shape != nil {
			st.replay.Shape(q)
		}
	}
}

// replaySegment applies one segment's records. In the final segment a
// torn tail — a record whose frame or checksum does not validate — ends
// the replay and truncates the file to the valid prefix; anywhere else
// it is corruption and fails recovery.
func (st *replayState) replaySegment(path string, wantSeq uint64, final bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		// A crash between segment creation and header write (or a prior
		// recovery's truncation of such a file) leaves an empty segment:
		// no records, nothing to replay.
		return nil
	}
	if len(data) < segHeaderSize || string(data[:len(segMagic)]) != segMagic {
		if final {
			return truncateSegment(path, 0, len(data))
		}
		return fmt.Errorf("wal: %s: bad segment header", path)
	}
	if got := binary.LittleEndian.Uint64(data[len(segMagic):]); got != wantSeq {
		return fmt.Errorf("wal: %s: header sequence %d, file name says %d", path, got, wantSeq)
	}
	rest := data[segHeaderSize:]
	offset := segHeaderSize
	for len(rest) > 0 {
		payload, next, ok := nextRecord(rest)
		if !ok {
			if final {
				return truncateSegment(path, offset, len(data))
			}
			return fmt.Errorf("wal: %s: invalid record at offset %d in sealed segment", path, offset)
		}
		if err := st.applyPayload(payload); err != nil {
			return fmt.Errorf("wal: %s: offset %d: %w", path, offset, err)
		}
		offset += len(rest) - len(next)
		rest = next
	}
	return nil
}

// truncateSegment discards the torn tail of the crash-time active
// segment so later recoveries (when this segment is no longer final)
// see only valid records.
func truncateSegment(path string, keep, total int) error {
	if keep >= total {
		return nil
	}
	return os.Truncate(path, int64(keep))
}

// applyPayload dispatches one decoded record to the callbacks.
func (st *replayState) applyPayload(payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("wal: empty record payload")
	}
	kind, body := payload[0], payload[1:]
	switch kind {
	case recSym:
		st.sym(string(body))
		return nil
	case recFact, recRetract:
		pred, vals, err := decodeFact(body)
		if err != nil {
			return err
		}
		cb := st.replay.Fact
		if kind == recRetract {
			cb = st.replay.Retract
		}
		return st.tuple(cb, pred, vals)
	case recRule:
		if st.replay.Rule != nil {
			st.replay.Rule(string(body))
		}
		return nil
	default:
		return fmt.Errorf("wal: unknown record kind %d", kind)
	}
}

// openSegment creates the active segment l.seq and writes its header.
// Callers hold no lock (Open) or l.mu (rotate).
func (l *Log) openSegment() error {
	path := filepath.Join(l.dir, segmentName(l.seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, batchBytes)
	hdr := make([]byte, 0, segHeaderSize)
	hdr = append(hdr, segMagic...)
	hdr = binary.LittleEndian.AppendUint64(hdr, l.seq)
	if _, err := w.Write(hdr); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f, l.w, l.pending = f, w, 0
	return nil
}

// write puts a framed run of records records into the log under the
// sync policy: SyncAlways returns only after a covering group-commit
// fsync, SyncBatch fsyncs per filled batch.
func (l *Log) write(rec []byte, records int) {
	if l.policy == SyncAlways {
		l.groupCommit(rec, records)
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.writeLocked(rec, records) {
		return
	}
	if l.pending >= batchBytes {
		l.fail(l.syncLocked())
	}
}

// writeLocked buffers one framed run of records records. It reports
// false when the log has failed or closed. Caller holds l.mu.
func (l *Log) writeLocked(rec []byte, records int) bool {
	if l.err != nil {
		return false
	}
	if l.closed {
		l.fail(ErrClosed)
		return false
	}
	if _, err := l.w.Write(rec); err != nil {
		l.fail(err)
		return false
	}
	l.pending += len(rec)
	l.statRecords += uint64(records)
	return true
}

// commitGroup is one SyncAlways commit window: the framed records of
// every appender that joined, flushed and fsynced as a unit.
type commitGroup struct {
	buf   []byte
	count int
	start chan struct{} // closed when this group's leader may commit
	done  chan struct{} // closed after the group's covering fsync
}

// groupCommit appends a framed run under the group-commit protocol and
// returns only after a covering fsync (or the sticky error): the
// durability contract of SyncAlways is unchanged, only the fsync is
// shared. The first member of a group leads it; members that join while
// a commit is in flight park until the group's own fsync completes.
func (l *Log) groupCommit(rec []byte, records int) {
	l.gcMu.Lock()
	g := l.gcCur
	leader := g == nil
	if leader {
		g = &commitGroup{start: make(chan struct{}), done: make(chan struct{})}
		l.gcCur = g
		if !l.gcActive {
			// No commit in flight: lead immediately.
			l.gcActive = true
			close(g.start)
		}
	}
	g.buf = append(g.buf, rec...)
	g.count += records
	l.gcMu.Unlock()
	if !leader {
		<-g.done
		return
	}

	<-g.start
	// Opportunistic grouping: yield the scheduler a few times before
	// sealing so appenders already mid-flight on other procs can join. A
	// solo writer pays only a few empty yields (sub-microsecond); under
	// concurrency this collects near-full groups without any timer.
	for i := 0; i < 4; i++ {
		runtime.Gosched()
	}
	l.gcMu.Lock()
	l.gcCur = nil // seal: later arrivals form the next group
	l.gcMu.Unlock()

	l.mu.Lock()
	if l.writeLocked(g.buf, g.count) {
		if l.fail(l.syncLocked()) == nil {
			l.statGroups++
			l.statGroupRecs += uint64(g.count)
			l.statLastGroup = g.count
			if g.count > l.statMaxGroup {
				l.statMaxGroup = g.count
			}
		}
	}
	l.mu.Unlock()

	l.gcMu.Lock()
	if next := l.gcCur; next != nil {
		close(next.start) // hand the pipeline to the next group's leader
	} else {
		l.gcActive = false
	}
	l.gcMu.Unlock()
	close(g.done)
}

// CommitStats are the write-path durability counters: every fsync of
// the active segment, every framed record, and — under SyncAlways —
// the commit groups driven and their sizes. Records/Fsyncs is the
// amortization the group-commit protocol (or SyncBatch batching) won.
type CommitStats struct {
	Fsyncs       uint64 // fsyncs of the active segment (all policies)
	Records      uint64 // framed records buffered
	Groups       uint64 // completed SyncAlways commit groups
	GroupRecords uint64 // records covered by those groups
	LastGroup    int    // size of the most recent commit group
	MaxGroup     int    // largest commit group observed
}

// CommitStats returns a snapshot of the write-path counters.
func (l *Log) CommitStats() CommitStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return CommitStats{
		Fsyncs:       l.statFsyncs,
		Records:      l.statRecords,
		Groups:       l.statGroups,
		GroupRecords: l.statGroupRecs,
		LastGroup:    l.statLastGroup,
		MaxGroup:     l.statMaxGroup,
	}
}

// syncLocked flushes the buffer and fsyncs. Caller holds l.mu.
func (l *Log) syncLocked() error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.statFsyncs++
	l.pending = 0
	return nil
}

// JournalSym implements storage.Journal. Under SyncAlways the record is
// buffered without forcing its own group commit: a symbol's durability
// requirement is only "no later than any fact referencing it", and the
// first group fsync that covers such a fact flushes the whole buffer in
// write order, symbol included. A crash before that loses the symbol
// only alongside every unacknowledged fact that mentions it.
func (l *Log) JournalSym(name string) {
	rec := textRecord(recSym, name)
	if l.policy == SyncAlways {
		l.mu.Lock()
		l.writeLocked(rec, 1)
		l.mu.Unlock()
		return
	}
	l.write(rec, 1)
}

// JournalRuns implements storage.Journal: one record per tuple, run after
// run in the order given, framed into one buffer, written under one lock
// acquisition and covered by one policy sync — under SyncAlways, one
// group commit (one fsync) for everything a write request changed,
// however many predicates it touched. The records are ordinary fact and
// retract records: replay, followers and a crash see no group boundary,
// so a crash before the call returns may keep any record-order prefix of
// it.
func (l *Log) JournalRuns(runs []storage.JournalRun) {
	// Sized for the common case (values below 2^21 take <= 3 bytes) so a
	// call costs one allocation however long it is; append grows it when
	// that guess is short.
	size, records := 0, 0
	for _, run := range runs {
		if len(run.Tuples) > 0 {
			size += len(run.Tuples) * (recordHeaderSize + 4 + len(run.Pred) + 3*len(run.Tuples[0]))
			records += len(run.Tuples)
		}
	}
	if records == 0 {
		return
	}
	buf := make([]byte, 0, size)
	for _, run := range runs {
		kind := byte(recFact)
		if run.Del {
			kind = recRetract
		}
		for _, t := range run.Tuples {
			buf = appendTupleRecord(buf, kind, run.Pred, t)
		}
	}
	l.write(buf, records)
}

// JournalFactBatch journals one run of accepted inserts into pred:
// JournalRuns of that run alone, for callers that drive a log without a
// database in front of it.
func (l *Log) JournalFactBatch(pred string, tuples []storage.Tuple) {
	l.JournalRuns([]storage.JournalRun{{Pred: pred, Tuples: tuples}})
}

// JournalRetractBatch is JournalFactBatch for a run of retractions.
func (l *Log) JournalRetractBatch(pred string, tuples []storage.Tuple) {
	l.JournalRuns([]storage.JournalRun{{Pred: pred, Del: true, Tuples: tuples}})
}

// AppendRules journals rules in concrete syntax (parser.RenderRule) as
// one unit: one write and one policy sync for all of them.
func (l *Log) AppendRules(srcs ...string) {
	if len(srcs) == 0 {
		return
	}
	var buf []byte
	for _, src := range srcs {
		buf = append(buf, textRecord(recRule, src)...)
	}
	l.write(buf, len(srcs))
}

// fail latches err, if it is one, as the sticky error and returns it.
// Caller holds l.mu and has seen l.err == nil.
func (l *Log) fail(err error) error {
	if err != nil {
		l.err = err
		l.failed.Store(true)
	}
	return err
}

// Err returns the sticky append error, if any. A healthy log answers
// without taking the log mutex, so a writer checking after its own
// commit never waits out another group's fsync.
func (l *Log) Err() error {
	if !l.failed.Load() {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Sync flushes buffered records and fsyncs the active segment.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if l.closed {
		return ErrClosed
	}
	return l.fail(l.syncLocked())
}

// flushActive pushes buffered records of the active segment to the OS
// (no fsync) so a reader opening the file sees every appended record.
// pending is left untouched: the bytes still await their policy fsync.
func (l *Log) flushActive() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if l.closed {
		return ErrClosed
	}
	return l.fail(l.w.Flush())
}

// Checkpoint compacts the log: it seals the active segment and opens a
// fresh one, calls collect for a snapshot of the state as of (at least)
// the seal point, writes it atomically, and deletes the segments it
// covers and every other snapshot. collect runs after the rotation, so
// any mutation it observes is either inside the snapshot or journaled in
// the new segment — replay tolerates the overlap because inserts are
// idempotent set operations.
func (l *Log) Checkpoint(collect func() (*Snapshot, error)) error {
	l.ckptMu.Lock()
	defer l.ckptMu.Unlock()

	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if err := l.fail(l.syncLocked()); err != nil {
		l.mu.Unlock()
		return err
	}
	if err := l.fail(l.f.Close()); err != nil {
		l.mu.Unlock()
		return err
	}
	covered := l.seq
	l.seq++
	if err := l.fail(l.openSegment()); err != nil {
		l.mu.Unlock()
		return err
	}
	l.mu.Unlock()

	snap, err := collect()
	if err != nil {
		return err
	}
	if err := writeSnapshot(l.dir, covered, snap); err != nil {
		return err
	}
	l.headSeq = covered
	return l.prune(covered)
}

// prune deletes the segments covered by the snapshot at seq and every
// other snapshot. Failures are returned but leave recovery correct: an
// undeleted covered segment is skipped at Open, an undeleted older
// snapshot is shadowed by the newer one.
func (l *Log) prune(seq uint64) error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return err
	}
	var firstErr error
	for _, e := range entries {
		s, isSeg := parseSeq(e.Name(), "seg-", ".wal")
		stale := isSeg && s <= seq
		if s, ok := parseSeq(e.Name(), "snap-", ".snap"); ok && s != seq {
			stale = true
		}
		if !stale {
			continue
		}
		if err := os.Remove(filepath.Join(l.dir, e.Name())); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return firstErr
	}
	return syncDir(l.dir)
}

// Close flushes, fsyncs, and closes the active segment. Appends after
// Close record ErrClosed as the sticky error. Close is idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return l.err
	}
	l.closed = true
	if l.err == nil {
		l.fail(l.syncLocked())
	}
	if cerr := l.f.Close(); l.err == nil {
		l.fail(cerr)
	}
	if l.err != nil {
		return l.err
	}
	// Leave the sticky error nil: Close succeeded; only later appends
	// will set ErrClosed.
	return nil
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// Policy returns the log's sync policy.
func (l *Log) Policy() SyncPolicy { return l.policy }
