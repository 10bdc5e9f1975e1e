package core

import (
	"reflect"
	"strings"
	"testing"

	"aladdin/internal/resource"
	"aladdin/internal/workload"
)

// ledgerWorkload has three priorities in an order that is neither
// ascending nor descending, so ordinal order and priority order differ.
func ledgerWorkload() *workload.Workload {
	return workload.MustNew([]*workload.App{
		{ID: "mid", Demand: resource.Cores(1, 1024), Replicas: 2, Priority: workload.PriorityMid},
		{ID: "low", Demand: resource.Cores(1, 1024), Replicas: 2, Priority: workload.PriorityLow},
		{ID: "high", Demand: resource.Cores(1, 1024), Replicas: 2, Priority: workload.PriorityHigh},
	})
}

// TestLedgerAdmit is the one test of batch admission; Session.Place and
// ShardedSession.Place both run it through ledger.admit.
func TestLedgerAdmit(t *testing.T) {
	w := ledgerWorkload()
	cs := w.Containers()
	copyOf := func(c *workload.Container) *workload.Container { cp := *c; return &cp }
	stranger := &workload.Container{ID: "ghost/0", App: "ghost", Ord: 1}
	for _, tc := range []struct {
		name    string
		placed  []int // ordinals marked placed beforehand
		batch   []*workload.Container
		wantErr string
		want    []*workload.Container
	}{
		{name: "canonical batch", batch: cs[:3], want: cs[:3]},
		{name: "empty batch", batch: nil, want: nil},
		{name: "nil container", batch: []*workload.Container{cs[0], nil}, wantErr: "nil container"},
		{name: "unknown container", batch: []*workload.Container{stranger}, wantErr: "ghost/0 not in workload universe"},
		{name: "duplicate in batch", batch: []*workload.Container{cs[2], cs[0], cs[2]}, wantErr: "low/0 appears more than once"},
		{name: "duplicate via a copy", batch: []*workload.Container{cs[2], copyOf(cs[2])}, wantErr: "low/0 appears more than once"},
		{name: "already placed", placed: []int{4}, batch: []*workload.Container{cs[3], cs[4]}, wantErr: "high/0 already placed"},
		{name: "equivalent copies canonicalise", batch: []*workload.Container{copyOf(cs[5]), cs[1], copyOf(cs[0])},
			want: []*workload.Container{cs[5], cs[1], cs[0]}},
		{name: "copy with a wrong ordinal resolves by ID", batch: []*workload.Container{{ID: "low/1", Ord: 99}},
			want: []*workload.Container{cs[3]}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := newLedger(w)
			for _, ord := range tc.placed {
				l.set(ord, ledgerPlaced)
			}
			got, err := l.admit(tc.batch, nil)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("admit error = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("admitted %d containers, want %d", len(got), len(tc.want))
			}
			for i, c := range got {
				if c != tc.want[i] {
					t.Errorf("admitted[%d] = %p (%s), want the workload's own %s", i, c, c.ID, tc.want[i].ID)
				}
				if !l.member(c.Ord) {
					t.Errorf("%s not marked a member of the batch in flight", c.ID)
				}
			}
		})
	}

	// Membership belongs to the batch in flight only: the next admit
	// resets it, and a container may be re-admitted once not placed.
	l := newLedger(w)
	if _, err := l.admit(cs[:2], nil); err != nil {
		t.Fatal(err)
	}
	if _, err := l.admit(cs[1:3], nil); err != nil {
		t.Fatalf("re-admitting an unplaced container in a later batch: %v", err)
	}
	if l.member(0) || !l.member(1) || !l.member(2) {
		t.Errorf("membership after second batch = %v %v %v, want false true true", l.member(0), l.member(1), l.member(2))
	}
}

// TestLedgerStrandedAndForget covers the stranded sub-state: the count,
// the listing and its two orders, markStranded's promotion rule, and
// forget on every state.
func TestLedgerStrandedAndForget(t *testing.T) {
	w := ledgerWorkload()
	cs := w.Containers()
	l := newLedger(w)
	if got := l.stranded(); got != nil {
		t.Fatalf("fresh ledger lists stranded %v", got)
	}
	l.set(0, ledgerPlaced)     // mid/0
	l.set(1, ledgerUndeployed) // mid/1
	l.set(2, ledgerUndeployed) // low/0
	l.set(4, ledgerUndeployed) // high/0
	// Only undeployed entries are promoted: a placed container and a
	// never-submitted one (low/1) keep their state.
	l.markStranded([]*workload.Container{cs[0], cs[1], cs[2], cs[3], cs[4]})
	if l.strandedN != 3 {
		t.Fatalf("strandedN = %d, want 3", l.strandedN)
	}
	if l.state[0] != ledgerPlaced || l.state[3] != ledgerNever {
		t.Errorf("markStranded touched placed/never entries: %d %d", l.state[0], l.state[3])
	}
	ids := func(cs []*workload.Container) []string { return containerIDs(nil, cs) }
	if got, want := ids(l.stranded()), []string{"mid/1", "low/0", "high/0"}; !reflect.DeepEqual(got, want) {
		t.Errorf("stranded() = %v, want workload ordinal order %v", got, want)
	}
	queue := append(l.stranded(), cs[5]) // high/1 ties high/0 on priority
	byPriority(queue)
	if got, want := ids(queue), []string{"high/0", "high/1", "mid/1", "low/0"}; !reflect.DeepEqual(got, want) {
		t.Errorf("byPriority = %v, want priority descending then ordinal ascending %v", got, want)
	}

	for _, tc := range []struct {
		id        string
		wantErr   string
		wantState uint8
		wantN     int
	}{
		{id: "ghost/0", wantErr: "unknown container", wantN: 3},
		{id: "mid/0", wantErr: "is placed; use Remove", wantState: ledgerPlaced, wantN: 3},
		{id: "low/0", wantState: ledgerUndeployed, wantN: 2},  // stranded: cleared
		{id: "low/0", wantState: ledgerUndeployed, wantN: 2},  // now plain undeployed: no-op
		{id: "low/1", wantState: ledgerNever, wantN: 2},       // never submitted: no-op
		{id: "high/0", wantState: ledgerUndeployed, wantN: 1}, // stranded: cleared
	} {
		err := l.forget(tc.id)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("forget(%s) error = %v, want one containing %q", tc.id, err, tc.wantErr)
			}
		} else if err != nil {
			t.Errorf("forget(%s): %v", tc.id, err)
		}
		if c := w.Container(tc.id); c != nil && l.state[c.Ord] != tc.wantState {
			t.Errorf("after forget(%s) state = %d, want %d", tc.id, l.state[c.Ord], tc.wantState)
		}
		if l.strandedN != tc.wantN {
			t.Errorf("after forget(%s) strandedN = %d, want %d", tc.id, l.strandedN, tc.wantN)
		}
	}
	// Placing a stranded container takes it out of the count too.
	l.set(1, ledgerPlaced)
	if l.strandedN != 0 || l.stranded() != nil {
		t.Errorf("strandedN = %d after the last stranded container was placed", l.strandedN)
	}
}
