package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro"
	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/wal"
)

// FollowerConfig configures Start.
type FollowerConfig struct {
	// Engine is the read-serving engine the stream is applied into. It
	// must be opened WITHOUT persistence — the follower's mirror is its
	// durable state, attached only at promotion. Start flips it
	// read-only.
	Engine *onesided.Engine
	// Primary is the primary's base URL, e.g. "http://127.0.0.1:7070".
	Primary string
	// Dir is the local mirror directory: verified stream bytes are
	// written here under the wal's own file names, so a restart
	// recovers locally and Promote turns the mirror into the log.
	Dir string
	// Client is the HTTP client. The default is a client of the
	// follower's own, on a clone of http.DefaultTransport, whose idle
	// connections are closed when the tail goroutine exits.
	Client *http.Client
	// PollInterval is the long-poll wait per tail fetch (default 1s).
	PollInterval time.Duration
	// RetryBackoff is the pause after a transport error or a corrupt
	// fetch before retrying (default 200ms).
	RetryBackoff time.Duration
	// MaxCorruptRetries bounds consecutive verification failures before
	// the follower fails with ErrCorrupt (default 5).
	MaxCorruptRetries int
	// FetchMax bounds the bytes requested per segment fetch (default
	// 1MiB).
	FetchMax int
}

// Follower replicates a primary into a local engine. All stream state
// is owned by one tail goroutine; Stats and Close may be called from
// anywhere.
type Follower struct {
	cfg    FollowerConfig
	eng    *onesided.Engine
	client *http.Client
	// own is the transport of the default client, nil when the caller
	// supplied one: its connections are the follower's to close.
	own *http.Transport
	ap  *wal.Applier

	ctx       context.Context
	cancel    context.CancelFunc
	done      chan struct{}
	closeOnce sync.Once

	mu           sync.Mutex
	state        State
	err          error
	cursor       Cursor
	primaryEpoch uint64
	sizeSeq      uint64 // segment the last reported primary size is for
	size         int64  // that segment's size on the primary
	records      int64
	snapshots    int64
	retries      int64
	corrupt      int64

	mirror    *os.File // current segment's mirror file (tail goroutine only)
	mirrorSeq uint64
}

// terminalErr marks an error that must stop the follower instead of
// being retried as stream corruption (local mirror I/O failures).
type terminalErr struct{ error }

func (t terminalErr) Unwrap() error { return t.error }

// Start begins replication: the engine is flipped read-only, any
// existing mirror state in cfg.Dir is recovered into it (resuming the
// cursor at the recovered byte boundary), and a background goroutine
// bootstraps from the primary's newest checkpoint snapshot and tails its
// live segments. The goroutine's lifetime is bound to the engine: Close on
// either stops it.
func Start(cfg FollowerConfig) (*Follower, error) {
	if cfg.Engine == nil || cfg.Primary == "" || cfg.Dir == "" {
		return nil, fmt.Errorf("replica: Engine, Primary, and Dir are required")
	}
	if cfg.Engine.Log() != nil {
		return nil, fmt.Errorf("replica: follower engine must not have its own persistence")
	}
	var own *http.Transport
	if cfg.Client == nil {
		// Not http.DefaultClient: its pool would keep the follower's idle
		// keep-alive connections, and their goroutines, past Close.
		own = http.DefaultTransport.(*http.Transport).Clone()
		cfg.Client = &http.Client{Transport: own}
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = time.Second
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 200 * time.Millisecond
	}
	if cfg.MaxCorruptRetries <= 0 {
		cfg.MaxCorruptRetries = 5
	}
	if cfg.FetchMax <= 0 {
		cfg.FetchMax = defaultFetchMax
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	f := &Follower{cfg: cfg, eng: cfg.Engine, client: cfg.Client, own: own, state: StateBootstrapping}
	cb := f.replayCallbacks()
	f.ap = wal.NewApplier(cb)
	cfg.Engine.SetReadOnly(true)

	// Recover a previous run's mirror: replays straight into the engine
	// and — by routing the Sym callback through the Applier — seeds the
	// applier's Value translation so tailed records resolve identically.
	cb.Sym = f.ap.ApplySym
	res, err := wal.Recover(cfg.Dir, cb)
	if err != nil {
		return nil, fmt.Errorf("replica: mirror recovery: %w", err)
	}
	switch {
	case res.LastSeq != 0:
		f.cursor = Cursor{Seq: res.LastSeq, Offset: res.LastSize}
	case res.SnapshotSeq != 0:
		f.cursor = Cursor{Seq: res.SnapshotSeq + 1}
	}

	f.ctx, f.cancel = context.WithCancel(context.Background())
	f.done = make(chan struct{})
	cfg.Engine.OnClose(f.Close)
	go f.run()
	return f, nil
}

// replayCallbacks wires stream records into the engine: facts and
// symbols straight into the database (wal.ReplayInto — read-only gates
// only client writes), rules through LoadProgram (which invalidates plan
// and result caches, and journals nothing while the engine has no log),
// and shapes through Prepare to keep the plan cache warm.
func (f *Follower) replayCallbacks() wal.Replay {
	cb := wal.ReplayInto(f.eng.DB())
	cb.Rule = func(src string) {
		r, err := parser.ParseRule(src)
		if err != nil {
			return // primary-journaled rules always parse
		}
		prog := ast.NewProgram()
		prog.Rules = append(prog.Rules, r)
		f.eng.LoadProgram(prog) //nolint:errcheck — a rule-only program inserts no facts, so nothing can be refused
	}
	cb.Shape = func(q string) {
		if a, err := parser.ParseAtom(q); err == nil {
			f.eng.Prepare(nil, a) //nolint:errcheck — warming only
		}
	}
	return cb
}

// run is the tail goroutine: bootstrap (unless the mirror resumed a
// cursor), then tail until closed or failed. It makes every request the
// follower makes, so on its way out it closes its own transport's idle
// connections: none is left for a later request.
func (f *Follower) run() {
	defer close(f.done)
	defer f.closeMirror()
	if f.own != nil {
		defer f.own.CloseIdleConnections()
	}
	if f.curSnapshot().Seq == 0 {
		if err := f.bootstrap(); err != nil {
			f.finish(err)
			return
		}
	}
	f.setState(StateTailing)
	f.finish(f.tailLoop())
}

// finish records the loop's exit: nil (or context cancellation) means a
// clean Close; anything else latches StateFailed.
func (f *Follower) finish(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err == nil || errors.Is(err, ErrClosed) || errors.Is(err, context.Canceled) {
		if f.state != StateFailed {
			f.state = StateClosed
		}
		return
	}
	f.state = StateFailed
	f.err = err
}

// bootstrap fetches the primary's manifest, applies its head snapshot,
// and positions the cursor at the lowest live segment.
func (f *Follower) bootstrap() error {
	m, err := f.fetchManifestRetry()
	if err != nil {
		return err
	}
	if err := f.applyHead(m); err != nil {
		return err
	}
	f.setCursor(f.firstLiveCursor(m))
	return nil
}

// firstLiveCursor picks the lowest live segment above the manifest's
// snapshot head.
func (f *Follower) firstLiveCursor(m Manifest) Cursor {
	next := m.ActiveSeq
	for _, s := range m.Segments {
		if s.Seq > m.HeadSnapshot && s.Seq < next {
			next = s.Seq
		}
	}
	return Cursor{Seq: next}
}

// applyHead fetches, verifies, applies, and mirrors the manifest's head
// snapshot. Applying is idempotent — inserts are set operations and the
// symbol translation dedups — so a resync over partially applied state
// is safe.
func (f *Follower) applyHead(m Manifest) error {
	if m.HeadSnapshot == 0 {
		return nil
	}
	raw, err := f.fetchSnapshotRetry(m.HeadSnapshot)
	if err != nil {
		return err
	}
	snap, err := decodeSnapshot(raw, m.HeadSnapshot)
	if err != nil {
		return err
	}
	f.ap.ApplySnapshot(snap)
	if err := f.mirrorSnapshot(m.HeadSnapshot, raw); err != nil {
		return terminalErr{err}
	}
	f.mu.Lock()
	f.snapshots++
	if m.Epoch > f.primaryEpoch {
		f.primaryEpoch = m.Epoch
	}
	f.mu.Unlock()
	return nil
}

// decodeSnapshot verifies fetched bytes as the snapshot file covering
// seq.
func decodeSnapshot(raw []byte, seq uint64) (*wal.Snapshot, error) {
	got, snap, err := wal.DecodeSnapshotBytes(raw)
	if err == nil && got != seq {
		err = fmt.Errorf("file covers segment %d", got)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: snapshot %d: %v", ErrCorrupt, seq, err)
	}
	return snap, nil
}

// tailLoop applies live segment bytes until closed or a terminal error.
func (f *Follower) tailLoop() error {
	cur := f.curSnapshot()
	var buf []byte // fetched but not yet applied (incomplete record tail)
	corruptRuns := 0

	corruptRetry := func(cause error) error {
		corruptRuns++
		f.mu.Lock()
		f.corrupt++
		f.mu.Unlock()
		buf = nil
		if corruptRuns > f.cfg.MaxCorruptRetries {
			return fmt.Errorf("%w: segment %d offset %d: %v", ErrCorrupt, cur.Seq, cur.Offset, cause)
		}
		return nil
	}

	for {
		if f.ctx.Err() != nil {
			return ErrClosed
		}
		r, err := f.fetchSegment(cur.Seq, cur.Offset+int64(len(buf)))
		if err != nil {
			f.noteRetry()
			if !f.sleep(f.cfg.RetryBackoff) {
				return ErrClosed
			}
			continue
		}
		if r.notFound {
			// The segment was pruned under us: a checkpoint advanced
			// past the cursor. Resync from the manifest's new head.
			next, err := f.resync(cur)
			if err != nil {
				return err
			}
			cur, buf, corruptRuns = next, nil, 0
			continue
		}
		f.noteResponse(cur.Seq, r)

		// Duplicate-delivery defense: trim any overlap with bytes we
		// already hold; a gap (served offset beyond the request) can
		// only come from a damaged path.
		req := cur.Offset + int64(len(buf))
		data := r.data
		switch {
		case r.offset < req:
			over := req - r.offset
			if int64(len(data)) <= over {
				data = nil
			} else {
				data = data[over:]
			}
		case r.offset > req:
			if err := corruptRetry(fmt.Errorf("response offset %d beyond request %d", r.offset, req)); err != nil {
				return err
			}
			if !f.sleep(f.cfg.RetryBackoff) {
				return ErrClosed
			}
			continue
		}
		buf = append(buf, data...)

		next, rest, progress, cerr := f.consume(cur, buf)
		cur, buf = next, rest
		if progress {
			corruptRuns = 0
		}
		if cerr != nil {
			var term terminalErr
			if errors.As(cerr, &term) {
				return cerr
			}
			if err := corruptRetry(cerr); err != nil {
				return err
			}
			if !f.sleep(f.cfg.RetryBackoff) {
				return ErrClosed
			}
			continue
		}

		if r.sealed {
			// The size in a sealed response is final: being past it
			// means the primary lost history we already applied.
			if cur.Offset > r.size {
				return fmt.Errorf("%w: applied %d bytes of sealed segment %d of size %d",
					ErrDiverged, cur.Offset, cur.Seq, r.size)
			}
			if end := cur.Offset + int64(len(buf)); end > r.size {
				buf = buf[:r.size-cur.Offset] // stale over-read; refetch will confirm
			}
			if cur.Offset == r.size {
				if len(buf) > 0 {
					// A sealed segment ends on a record boundary; a
					// leftover tail cannot complete.
					if err := corruptRetry(fmt.Errorf("unparseable tail at sealed end")); err != nil {
						return err
					}
					continue
				}
				if cur.Offset == 0 {
					// An empty sealed segment (a crash before its
					// header) is mirrored empty: recovery refuses a
					// missing segment between live ones.
					if err := f.mirrorWrite(cur.Seq, 0, nil); err != nil {
						return terminalErr{err}
					}
				}
				if err := f.finishSegment(); err != nil {
					return terminalErr{err}
				}
				f.syncCheckpoints()
				cur = Cursor{Seq: cur.Seq + 1}
				f.setCursor(cur)
				corruptRuns = 0
			}
		}
	}
}

// consume applies whole verified records (and, at offset 0, the segment
// header) off buf, mirroring each applied byte range, and commits the
// cursor after each record. Verification failures return plain errors
// (retryable); mirror I/O failures return terminalErr.
func (f *Follower) consume(cur Cursor, buf []byte) (Cursor, []byte, bool, error) {
	progress := false
	if cur.Offset == 0 {
		if len(buf) < wal.SegmentHeaderSize {
			return cur, buf, progress, nil
		}
		if err := wal.CheckSegmentHeader(buf, cur.Seq); err != nil {
			return cur, buf, progress, err
		}
		if err := f.mirrorWrite(cur.Seq, 0, buf[:wal.SegmentHeaderSize]); err != nil {
			return cur, buf, progress, terminalErr{err}
		}
		cur.Offset = int64(wal.SegmentHeaderSize)
		buf = buf[wal.SegmentHeaderSize:]
		progress = true
		f.setCursor(cur)
	}
	for len(buf) > 0 {
		payload, n, err := wal.SplitRecord(buf)
		if errors.Is(err, wal.ErrShortRecord) {
			break
		}
		if err != nil {
			return cur, buf, progress, err
		}
		if err := f.ap.ApplyRecord(payload); err != nil {
			return cur, buf, progress, err
		}
		if err := f.mirrorWrite(cur.Seq, cur.Offset, buf[:n]); err != nil {
			return cur, buf, progress, terminalErr{err}
		}
		cur.Offset += int64(n)
		buf = buf[n:]
		progress = true
		f.mu.Lock()
		f.records++
		f.cursor = cur
		f.mu.Unlock()
	}
	return cur, buf, progress, nil
}

// resync handles a pruned cursor segment: refetch the manifest, apply
// the (idempotent) new head snapshot, prune the local mirror to match,
// and resume at the lowest live segment.
func (f *Follower) resync(cur Cursor) (Cursor, error) {
	m, err := f.fetchManifestRetry()
	if err != nil {
		return cur, err
	}
	if m.HeadSnapshot < cur.Seq {
		// The segment is gone but no checkpoint covers it: the primary
		// lost it (or was replaced). Nothing to resume from.
		return cur, fmt.Errorf("%w: segment %d missing, snapshot head is %d",
			ErrDiverged, cur.Seq, m.HeadSnapshot)
	}
	if err := f.applyHead(m); err != nil {
		return cur, err
	}
	f.closeMirror()
	f.pruneMirror(m)
	next := f.firstLiveCursor(m)
	f.setCursor(next)
	return next, nil
}

// syncCheckpoints mirrors a new head snapshot after a segment boundary
// and prunes the local mirror. Best effort: the stream itself does not
// depend on it, it only bounds restart/bootstrap cost.
func (f *Follower) syncCheckpoints() {
	m, err := f.fetchManifest()
	if err != nil || m.HeadSnapshot == 0 {
		return
	}
	if _, err := os.Stat(filepath.Join(f.cfg.Dir, wal.SnapshotFileName(m.HeadSnapshot))); err != nil {
		raw, err := f.fetchSnapshot(m.HeadSnapshot)
		if err != nil {
			return
		}
		if _, err := decodeSnapshot(raw, m.HeadSnapshot); err != nil {
			return
		}
		if err := f.mirrorSnapshot(m.HeadSnapshot, raw); err != nil {
			return
		}
	}
	f.pruneMirror(m)
}

// pruneMirror deletes mirrored segments at or below the manifest head
// (and below the cursor — never a segment still being applied) and the
// mirrored snapshots older than the head. Callers mirror the head first.
func (f *Follower) pruneMirror(m Manifest) {
	limit := m.HeadSnapshot
	if cur := f.curSnapshot(); cur.Seq > 0 && cur.Seq <= limit {
		limit = cur.Seq - 1
	}
	entries, err := os.ReadDir(f.cfg.Dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		var stale bool
		if seq, ok := parseName(e.Name(), "seg-", ".wal"); ok && seq <= limit {
			stale = true
		}
		if seq, ok := parseName(e.Name(), "snap-", ".snap"); ok && seq < m.HeadSnapshot {
			stale = true
		}
		if stale {
			os.Remove(filepath.Join(f.cfg.Dir, e.Name()))
		}
	}
}

// parseName extracts the sequence from a wal file name.
func parseName(name, prefix, suffix string) (uint64, bool) {
	if len(name) <= len(prefix)+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// ---------------------------------------------------------------------------
// Mirror I/O (tail goroutine only).

func (f *Follower) mirrorWrite(seq uint64, off int64, b []byte) error {
	if f.mirror == nil || f.mirrorSeq != seq {
		f.closeMirror()
		fh, err := os.OpenFile(filepath.Join(f.cfg.Dir, wal.SegmentFileName(seq)), os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		f.mirror, f.mirrorSeq = fh, seq
	}
	_, err := f.mirror.WriteAt(b, off)
	return err
}

// finishSegment makes a completed segment durable before advancing.
func (f *Follower) finishSegment() error {
	if f.mirror == nil {
		return nil
	}
	if err := f.mirror.Sync(); err != nil {
		return err
	}
	f.closeMirror()
	return nil
}

func (f *Follower) closeMirror() {
	if f.mirror != nil {
		f.mirror.Close()
		f.mirror = nil
	}
}

// mirrorSnapshot writes a verified snapshot image atomically
// (temp+rename); an existing file for seq is kept — snapshots are
// immutable per sequence.
func (f *Follower) mirrorSnapshot(seq uint64, raw []byte) error {
	path := filepath.Join(f.cfg.Dir, wal.SnapshotFileName(seq))
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	tmp, err := os.CreateTemp(f.cfg.Dir, "snap-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ---------------------------------------------------------------------------
// HTTP client side.

type segResponse struct {
	notFound bool
	data     []byte
	offset   int64
	size     int64
	sealed   bool
	epoch    uint64
}

func (f *Follower) get(path string, q url.Values) (*http.Response, error) {
	u := f.cfg.Primary + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(f.ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	return f.client.Do(req)
}

func (f *Follower) fetchManifest() (Manifest, error) {
	resp, err := f.get("/v1/repl/manifest", nil)
	if err != nil {
		return Manifest{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return Manifest{}, fmt.Errorf("replica: manifest: HTTP %d", resp.StatusCode)
	}
	var m Manifest
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return Manifest{}, err
	}
	return m, nil
}

// fetchManifestRetry retries transport failures until the follower is
// closed.
func (f *Follower) fetchManifestRetry() (Manifest, error) {
	for {
		m, err := f.fetchManifest()
		if err == nil {
			return m, nil
		}
		f.noteRetry()
		if !f.sleep(f.cfg.RetryBackoff) {
			return Manifest{}, ErrClosed
		}
	}
}

func (f *Follower) fetchSnapshot(seq uint64) ([]byte, error) {
	resp, err := f.get("/v1/repl/snapshots", url.Values{"seq": {strconv.FormatUint(seq, 10)}})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("replica: snapshot %d: HTTP %d", seq, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

func (f *Follower) fetchSnapshotRetry(seq uint64) ([]byte, error) {
	for {
		raw, err := f.fetchSnapshot(seq)
		if err == nil {
			return raw, nil
		}
		f.noteRetry()
		if !f.sleep(f.cfg.RetryBackoff) {
			return nil, ErrClosed
		}
	}
}

func (f *Follower) fetchSegment(seq uint64, offset int64) (segResponse, error) {
	q := url.Values{
		"seq":     {strconv.FormatUint(seq, 10)},
		"offset":  {strconv.FormatInt(offset, 10)},
		"max":     {strconv.Itoa(f.cfg.FetchMax)},
		"wait_ms": {strconv.FormatInt(f.cfg.PollInterval.Milliseconds(), 10)},
	}
	resp, err := f.get("/v1/repl/segments", q)
	if err != nil {
		return segResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, resp.Body)
		return segResponse{notFound: true}, nil
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return segResponse{}, fmt.Errorf("replica: segment %d: HTTP %d", seq, resp.StatusCode)
	}
	var r segResponse
	h := resp.Header
	if r.offset, err = strconv.ParseInt(h.Get(HdrOffset), 10, 64); err != nil {
		return segResponse{}, fmt.Errorf("replica: segment %d: bad %s", seq, HdrOffset)
	}
	if r.size, err = strconv.ParseInt(h.Get(HdrSize), 10, 64); err != nil {
		return segResponse{}, fmt.Errorf("replica: segment %d: bad %s", seq, HdrSize)
	}
	r.sealed = h.Get(HdrSealed) == "1"
	r.epoch, _ = strconv.ParseUint(h.Get(HdrEpoch), 10, 64)
	// A connection dropped mid-body surfaces here as a read error; the
	// caller retries from its committed offset.
	if r.data, err = io.ReadAll(resp.Body); err != nil {
		return segResponse{}, err
	}
	return r, nil
}

// ---------------------------------------------------------------------------
// Shared state.

func (f *Follower) curSnapshot() Cursor {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cursor
}

func (f *Follower) setCursor(c Cursor) {
	f.mu.Lock()
	f.cursor = c
	f.mu.Unlock()
}

func (f *Follower) setState(s State) {
	f.mu.Lock()
	f.state = s
	f.mu.Unlock()
}

func (f *Follower) noteRetry() {
	f.mu.Lock()
	f.retries++
	f.mu.Unlock()
}

// noteResponse folds a segment response's primary-side telemetry in.
func (f *Follower) noteResponse(seq uint64, r segResponse) {
	f.mu.Lock()
	if r.epoch > f.primaryEpoch {
		f.primaryEpoch = r.epoch
	}
	f.sizeSeq, f.size = seq, r.size
	f.mu.Unlock()
}

// sleep waits d or until the follower is closed (returns false).
func (f *Follower) sleep(d time.Duration) bool {
	select {
	case <-f.ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

// Stats reports the follower's replication position and lag.
func (f *Follower) Stats() Stats {
	applied := f.eng.DB().Epoch()
	f.mu.Lock()
	defer f.mu.Unlock()
	s := Stats{
		State:            f.state.String(),
		Cursor:           f.cursor,
		AppliedEpoch:     applied,
		PrimaryEpoch:     f.primaryEpoch,
		RecordsApplied:   f.records,
		SnapshotsApplied: f.snapshots,
		Retries:          f.retries,
		CorruptRetries:   f.corrupt,
	}
	if f.primaryEpoch > applied {
		s.LagEpochs = f.primaryEpoch - applied
	}
	if f.sizeSeq == f.cursor.Seq && f.size > f.cursor.Offset {
		s.LagBytes = f.size - f.cursor.Offset
	}
	if f.err != nil {
		s.Err = f.err.Error()
	}
	return s
}

// Err returns the terminal error when the follower failed.
func (f *Follower) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// Close stops the tail goroutine and waits for it. Idempotent; also
// invoked by Engine.Close through the OnClose hook, so closing either
// side never leaves an applier running.
func (f *Follower) Close() error {
	f.closeOnce.Do(func() {
		f.cancel()
		<-f.done
		f.mu.Lock()
		if f.state != StateFailed && f.state != StatePromoted {
			f.state = StateClosed
		}
		f.mu.Unlock()
	})
	return nil
}

// Promote stops replication and turns the follower into a primary: the
// local mirror — which wal recovery validates, starting from the newest
// readable snapshot exactly as a crash restart would — is
// attached as the engine's write-ahead log, and the engine starts
// accepting writes. A follower whose stream failed cannot be promoted.
func (f *Follower) Promote(policy wal.SyncPolicy) error {
	f.Close()
	f.mu.Lock()
	if f.state == StatePromoted {
		f.mu.Unlock()
		return nil
	}
	if f.state == StateFailed {
		err := f.err
		f.mu.Unlock()
		return fmt.Errorf("replica: cannot promote failed follower: %w", err)
	}
	f.mu.Unlock()
	if err := f.eng.AttachPersistence(f.cfg.Dir, policy); err != nil {
		return err
	}
	f.eng.SetReadOnly(false)
	f.setState(StatePromoted)
	return nil
}
