package onesided

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/eval"
)

// applyEvent folds one SubEvent into a row set (Remove then Add).
func applyEvent(set map[string]bool, ev SubEvent) {
	for _, row := range ev.Remove {
		delete(set, strings.Join(row, ","))
	}
	for _, row := range ev.Add {
		set[strings.Join(row, ",")] = true
	}
}

// recvEvent reads one event with a timeout so a wedged pump fails the
// test instead of hanging it.
func recvEvent(t *testing.T, sub *Subscription) SubEvent {
	t.Helper()
	select {
	case ev, ok := <-sub.Events():
		if !ok {
			t.Fatalf("subscription closed early: %v", sub.Err())
		}
		return ev
	case <-time.After(5 * time.Second):
		t.Fatal("no subscription event within 5s")
	}
	panic("unreachable")
}

// TestSubscribeSignedEvents drives a standing query through inserts and
// retractions: every mutation that changes the answers must arrive as a
// signed {Add, Remove} batch, and folding the batches in order must
// reproduce exactly the scratch-recomputed answer set at each step.
func TestSubscribeSignedEvents(t *testing.T) {
	eng := openQuickstart(t)
	prog := eng.Program()
	ctx := context.Background()
	sub, err := eng.Subscribe(ctx, "t(paris, Y)")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	set := make(map[string]bool)
	init := recvEvent(t, sub)
	if len(init.Remove) != 0 {
		t.Fatalf("initial event carries removals: %+v", init)
	}
	applyEvent(set, init)

	check := func(stepName string) {
		t.Helper()
		oracle, _, err := eval.SelectEval(prog, mustAtom(t, "t(paris, Y)"), eng.DB())
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[string]bool)
		for _, s := range eval.AnswerStrings(oracle, eng.DB().Syms) {
			want[s] = true
		}
		if len(set) != len(want) {
			t.Fatalf("%s: folded set %v != scratch %v", stepName, set, want)
		}
		for k := range want {
			if !set[k] {
				t.Fatalf("%s: folded set missing %s (have %v)", stepName, k, set)
			}
		}
	}
	check("initial")

	lastEpoch := init.Epoch
	mutate := func(name string, fn func()) {
		t.Helper()
		fn()
		ev := recvEvent(t, sub)
		if ev.Epoch <= lastEpoch {
			t.Fatalf("%s: event epoch %d did not advance past %d", name, ev.Epoch, lastEpoch)
		}
		lastEpoch = ev.Epoch
		applyEvent(set, ev)
		check(name)
	}

	mutate("insert b(marseille,aix)", func() { eng.AddFact("b", "marseille", "aix") })
	mutate("retract b(toulon,nice)", func() {
		if removed, err := eng.Retract("b", "toulon", "nice"); err != nil || !removed {
			t.Fatalf("retract: removed=%v err=%v", removed, err)
		}
	})
	mutate("retract a(lyon,marseille)", func() {
		if removed, err := eng.Retract("a", "lyon", "marseille"); err != nil || !removed {
			t.Fatalf("retract: removed=%v err=%v", removed, err)
		}
	})
	mutate("reinsert a(lyon,marseille)", func() { eng.AddFact("a", "lyon", "marseille") })
}

// TestSubscribeQuota: the engine quota's MaxSubscriptions is admission
// control on Subscribe, and closing a subscription frees its slot.
func TestSubscribeQuota(t *testing.T) {
	eng := openQuickstart(t, WithQuota(Quota{MaxSubscriptions: 2}))
	ctx := context.Background()
	s1, err := eng.Subscribe(ctx, "t(paris, Y)")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := eng.Subscribe(ctx, "t(lyon, Y)")
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := eng.Subscribe(ctx, "t(marseille, Y)"); !errors.Is(err, ErrSubscriptionLimit) {
		t.Fatalf("third subscribe = %v, want ErrSubscriptionLimit", err)
	}
	if got := eng.Subscriptions(); got != 2 {
		t.Fatalf("open subscriptions = %d, want 2", got)
	}
	s1.Close()
	if got := eng.Subscriptions(); got != 1 {
		t.Fatalf("after close, open subscriptions = %d, want 1", got)
	}
	s3, err := eng.Subscribe(ctx, "t(marseille, Y)")
	if err != nil {
		t.Fatalf("subscribe after freeing a slot: %v", err)
	}
	s3.Close()
}

// waitGoroutines polls until the goroutine count settles back to at
// most want.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines stuck at %d, want <= %d\n%s", runtime.NumGoroutine(), want, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSubscribeCloseMidPushNoLeak is the teardown regression the ISSUE
// demands: a subscriber that stops reading while the pump is blocked
// pushing an event — the disconnecting client — must not leak the pump
// goroutine. Close must cut the blocked send and return. Run with -race.
func TestSubscribeCloseMidPushNoLeak(t *testing.T) {
	eng := openQuickstart(t)
	baseline := runtime.NumGoroutine()
	for round := 0; round < 5; round++ {
		sub, err := eng.Subscribe(context.Background(), "t(paris, Y)")
		if err != nil {
			t.Fatal(err)
		}
		recvEvent(t, sub) // initial snapshot
		// Mutate so the pump re-derives and blocks pushing the event —
		// nobody is reading.
		eng.AddFact("b", "lyon", fmt.Sprintf("push%d", round))
		time.Sleep(10 * time.Millisecond) // let the pump reach the blocked send
		sub.Close()
	}
	waitGoroutines(t, baseline)

	// Context cancellation tears down the same way.
	ctx, cancel := context.WithCancel(context.Background())
	sub, err := eng.Subscribe(ctx, "t(lyon, Y)")
	if err != nil {
		t.Fatal(err)
	}
	recvEvent(t, sub)
	eng.AddFact("b", "lyon", "cancelpush")
	time.Sleep(10 * time.Millisecond)
	cancel()
	waitGoroutines(t, baseline)
	if sub.Err() != nil {
		t.Fatalf("canceled subscription reports error %v, want nil (clean teardown)", sub.Err())
	}
}

// TestSubscribeCoalesces: mutations landing while the subscriber is
// slow arrive as one combined batch, and a mutation that does not touch
// the query's answers produces no event at all.
func TestSubscribeCoalesces(t *testing.T) {
	eng := openQuickstart(t)
	sub, err := eng.Subscribe(context.Background(), "t(paris, Y)")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	set := make(map[string]bool)
	applyEvent(set, recvEvent(t, sub))

	// Two answer-changing mutations before the subscriber reads: they
	// may arrive as one batch or two, but folding must converge.
	eng.AddFact("b", "lyon", "one")
	eng.AddFact("b", "lyon", "two")
	applyEvent(set, recvEvent(t, sub))
	deadline := time.Now().Add(5 * time.Second)
	for !set["paris,one"] || !set["paris,two"] {
		if time.Now().After(deadline) {
			t.Fatalf("batches never delivered both inserts: %v", set)
		}
		select {
		case ev := <-sub.Events():
			applyEvent(set, ev)
		case <-time.After(50 * time.Millisecond):
		}
	}

	// An unrelated insert must not produce an event.
	eng.AddFact("unrelated", "x", "y")
	select {
	case ev, ok := <-sub.Events():
		if ok {
			t.Fatalf("unrelated insert produced event %+v", ev)
		}
		t.Fatalf("subscription closed: %v", sub.Err())
	case <-time.After(100 * time.Millisecond):
	}
}

// TestSubscribeOneEventPerWrite: a write request is one tick. On a
// SyncAlways engine — where each journal call is an fsync the pump can
// overtake — a write whose inserts AND retractions change the subscribed
// answers, across several predicates, arrives as exactly one event
// carrying both sides; the event that follows it is the next write's.
func TestSubscribeOneEventPerWrite(t *testing.T) {
	eng := openQuickstart(t, WithPersistence(t.TempDir()), WithSyncPolicy(SyncAlways))
	defer eng.Close()
	sub, err := eng.Subscribe(context.Background(), "t(paris, Y)")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	recvEvent(t, sub) // the initial answers

	a, err := eng.Apply(Write{
		Insert: []Fact{
			{Pred: "b", Args: []string{"marseille", "aix"}},
			{Pred: "a", Args: []string{"toulon", "hyeres"}},
			{Pred: "b", Args: []string{"hyeres", "giens"}},
		},
		Retract: []Fact{
			{Pred: "b", Args: []string{"toulon", "nice"}},
			{Pred: "a", Args: []string{"paris", "nowhere"}}, // missing
		},
	})
	if err != nil || a != (Applied{Added: 3, Removed: 1}) {
		t.Fatalf("Apply: %+v, %v", a, err)
	}
	rows := func(rows [][]string) string {
		var out []string
		for _, r := range rows {
			out = append(out, strings.Join(r, ","))
		}
		return strings.Join(out, " ")
	}
	ev := recvEvent(t, sub)
	if got, want := rows(ev.Add), "paris,aix paris,giens"; got != want {
		t.Fatalf("the write's event adds %q, want %q (event %+v)", got, want, ev)
	}
	if got, want := rows(ev.Remove), "paris,nice"; got != want {
		t.Fatalf("the write's event removes %q, want %q (event %+v)", got, want, ev)
	}
	if want := eng.DB().Epoch(); ev.Epoch != want {
		t.Fatalf("the write's event is stamped %d, want the epoch the whole write left (%d)", ev.Epoch, want)
	}
	// Events arrive in order: had the write been more than one tick, the
	// rest of it would come before this.
	eng.AddFact("b", "paris", "last")
	if ev := recvEvent(t, sub); rows(ev.Add) != "paris,last" || len(ev.Remove) != 0 {
		t.Fatalf("the event after the write's is %+v, want only the next write's paris,last", ev)
	}
}

// TestSubscribeEpochNeverOverstates races a writer against the pump: an
// event's Epoch promises that every write accepted before it is in the
// subscriber's folded state. A client doing read-your-writes compares
// the epoch its write returned with the event epoch, so an event
// stamped after its evaluation — claiming a write that landed in
// between — would tell that client a lie. Understating is harmless.
func TestSubscribeEpochNeverOverstates(t *testing.T) {
	eng := openQuickstart(t)
	sub, err := eng.Subscribe(context.Background(), "t(paris, Y)")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	const writes = 3000
	type ack struct {
		row   string
		epoch uint64 // the database epoch once the insert had returned
	}
	var (
		mu    sync.Mutex
		acked []ack
	)
	go func() {
		for i := 0; i < writes; i++ {
			out := fmt.Sprintf("w%d", i)
			eng.AddFact("b", "marseille", out)
			e := eng.DB().Epoch()
			mu.Lock()
			acked = append(acked, ack{row: "paris," + out, epoch: e})
			mu.Unlock()
		}
	}()

	set := make(map[string]bool)
	checked := 0
	last := fmt.Sprintf("paris,w%d", writes-1)
	for !set[last] {
		ev := recvEvent(t, sub)
		applyEvent(set, ev)
		mu.Lock()
		for ; checked < len(acked) && acked[checked].epoch <= ev.Epoch; checked++ {
			if a := acked[checked]; !set[a.row] {
				mu.Unlock()
				t.Fatalf("event at epoch %d does not reflect %s, whose insert returned at epoch %d",
					ev.Epoch, a.row, a.epoch)
			}
		}
		mu.Unlock()
	}
}

// TestSubscriptionFollowsLoadProgram: a standing query follows a rule
// load. The new rule's answers are pushed on the load itself — a
// rules-only load changes no fact, so only the engine can wake the pump —
// and later ticks are served by a plan of the new program, maintained
// through the result cache instead of re-evaluated with the stale rules.
func TestSubscriptionFollowsLoadProgram(t *testing.T) {
	eng, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Load(`
		t(X, Y) :- b(X, Y).
		b(n0, n1). a(n0, n2). b(n2, n3).
	`); err != nil {
		t.Fatal(err)
	}
	sub, err := eng.Subscribe(context.Background(), "t(n0, Y)")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	set := make(map[string]bool)
	applyEvent(set, recvEvent(t, sub))
	if len(set) != 1 || !set["n0,n1"] {
		t.Fatalf("initial answers = %v, want n0,n1", set)
	}

	if _, err := eng.Load(`t(X, Y) :- a(X, W), t(W, Y).`); err != nil {
		t.Fatal(err)
	}
	applyEvent(set, recvEvent(t, sub))
	if len(set) != 2 || !set["n0,n3"] {
		t.Fatalf("after the rule load the subscription holds %v, want n0,n1 and n0,n3", set)
	}

	// A fact tick under the new program: one build for the re-prepared
	// plan (the load's tick), then maintenance.
	before := eng.CacheStats().Results
	eng.AddFact("b", "n2", "n4")
	applyEvent(set, recvEvent(t, sub))
	if len(set) != 3 || !set["n0,n4"] {
		t.Fatalf("after the fact tick the subscription holds %v, want n0,n4 added", set)
	}
	after := eng.CacheStats().Results
	if after.Rebuilt != before.Rebuilt || after.Updated != before.Updated+1 {
		t.Fatalf("fact tick after the load: results %v -> %v, want one more updated and no rebuild", before, after)
	}
}
