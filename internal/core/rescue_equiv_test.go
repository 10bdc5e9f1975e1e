package core

import (
	"hash/fnv"
	"math/rand"
	"sort"
	"testing"

	"aladdin/internal/constraint"
	"aladdin/internal/obs"
	"aladdin/internal/quickseed"
	"aladdin/internal/resource"
	"aladdin/internal/sched"
	"aladdin/internal/topology"
	"aladdin/internal/trace"
	"aladdin/internal/workload"
)

// tightFixture is fill_tight's shape at 1/20 scale: the trace packed by
// one batch Schedule sizes the cluster (packed + 1/256, at least one
// spare machine), arrivals come interleaved, and the last 15 % arrive
// in 100-container batches onto a cluster with no slack — nearly every
// one of them goes through the migration/defragmentation rescue.  The
// topology has nine small sub-clusters so four shards are distinct.
type tightFixture struct {
	w        *workload.Workload
	machines int
	order    []*workload.Container
}

func tightConfig(machines int) topology.Config {
	return topology.Config{
		Machines:        machines,
		MachinesPerRack: 10,
		RacksPerCluster: 4,
		Capacity:        resource.Cores(32, 64*1024),
	}
}

func newTightFixture(tb testing.TB, seed int64, factor int, over bool) *tightFixture {
	tb.Helper()
	w := trace.MustGenerate(trace.Scaled(seed, factor))
	order := w.Arrange(workload.OrderInterleaved)
	loose := topology.New(tightConfig(10000 / factor))
	res, err := NewDefault().Schedule(w, loose, order)
	if err != nil {
		tb.Fatal(err)
	}
	if len(res.Undeployed) != 0 {
		tb.Fatalf("sizing run left %d undeployed", len(res.Undeployed))
	}
	packed := loose.UsedMachines()
	spare := packed / 256
	if spare < 1 {
		spare = 1
	}
	if over {
		// Overfull variant: 1/32 short of the packed size, so arrivals
		// are stranded and high-priority ones preempt.
		spare = -packed / 32
	}
	return &tightFixture{w: w, machines: packed + spare, order: order}
}

func (f *tightFixture) cluster() *topology.Cluster { return topology.New(tightConfig(f.machines)) }

// split returns the preload (first 85 % of arrivals, one batch) and the
// timed tail in 100-container batches.
func (f *tightFixture) split() (pre []*workload.Container, tail [][]*workload.Container) {
	cut := len(f.order) * 85 / 100
	pre = f.order[:cut]
	for rest := f.order[cut:]; len(rest) > 0; {
		n := 100
		if n > len(rest) {
			n = len(rest)
		}
		tail = append(tail, rest[:n])
		rest = rest[n:]
	}
	return pre, tail
}

// placer is the Place/Assignment face Session and ShardedSession share.
type placer interface {
	Place([]*workload.Container) (*sched.Result, error)
	Assignment() constraint.Assignment
}

// tightOutcome is what a decision-preserving change must not move.
type tightOutcome struct {
	hash                                uint64
	migrations, preemptions, undeployed int
}

// assignmentHash is FNV-1a over (machine+1) of every container in
// ordinal order; undeployed containers hash as 0.
func assignmentHash(w *workload.Workload, asg constraint.Assignment) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, c := range w.Containers() {
		v := uint32(0)
		if m, ok := asg[c.ID]; ok {
			v = uint32(m) + 1
		}
		buf[0], buf[1], buf[2], buf[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(buf[:])
	}
	return h.Sum64()
}

func (f *tightFixture) fill(tb testing.TB, p placer) tightOutcome {
	tb.Helper()
	var out tightOutcome
	pre, tail := f.split()
	for _, batch := range append([][]*workload.Container{pre}, tail...) {
		res, err := p.Place(batch)
		if err != nil {
			tb.Fatal(err)
		}
		out.migrations += res.Migrations
		out.preemptions += res.Preemptions
		out.undeployed += len(res.Undeployed)
	}
	out.hash = assignmentHash(f.w, p.Assignment())
	return out
}

// surfaces runs the fixture through the three placement surfaces.
func (f *tightFixture) surfaces(tb testing.TB, opts Options) map[string]tightOutcome {
	tb.Helper()
	sharded := opts
	sharded.Shards = 4
	ss, err := NewSharded(sharded, f.w, f.cluster())
	if err != nil {
		tb.Fatal(err)
	}
	res, err := New(opts).Schedule(f.w, f.cluster(), f.order)
	if err != nil {
		tb.Fatal(err)
	}
	return map[string]tightOutcome{
		"session":  f.fill(tb, NewSession(opts, f.w, f.cluster())),
		"sharded4": f.fill(tb, ss),
		"schedule": {
			hash:       assignmentHash(f.w, res.Assignment),
			migrations: res.Migrations, preemptions: res.Preemptions, undeployed: len(res.Undeployed),
		},
	}
}

// TestRescueDecisionsPinned pins the rescue path's decisions on the
// tight fixture.  The outcomes were recorded from commit 146d43a, the
// last one whose rescue hashed app names, sorted every candidate and
// searched afresh for every blocker; a change to that path that is
// meant to keep its decisions must reproduce them on all three
// placement surfaces.
func TestRescueDecisionsPinned(t *testing.T) {
	for _, tc := range []struct {
		name     string
		factor   int
		over     bool
		machines int
		want     map[string]tightOutcome
	}{
		{"tight/20", 20, false, 297, map[string]tightOutcome{
			"session":  {0xb0dadf4f528cf5ea, 58, 0, 0},
			"sharded4": {0x79951398ab25d7be, 59, 0, 0},
			"schedule": {0x4dd62c00392eb107, 58, 0, 0},
		}},
		{"tight/5", 5, false, 1188, map[string]tightOutcome{
			"session":  {0x1cdc6d610a277811, 312, 0, 0},
			"sharded4": {0xd7cbb1de247bbc45, 313, 0, 0},
			"schedule": {0xa5dca38fd29d1a62, 312, 0, 0},
		}},
		{"tight/2", 2, false, 3165, map[string]tightOutcome{
			"session":  {0xa38a0df9dfe29a80, 3713, 0, 0},
			"sharded4": {0x85bc598869f13b7b, 3751, 0, 0},
			"schedule": {0xf3651f4bbfc3ec31, 3713, 0, 0},
		}},
		// Every rescue attempt of a stranded arrival fails, so this is
		// the case with the most memoised answers per container.
		{"overfull/20", 20, true, 287, map[string]tightOutcome{
			"session":  {0xa37fa7f10c526b8, 0, 0, 183},
			"sharded4": {0xb352a0cad6e69cb6, 12, 0, 185},
			"schedule": {0xa37fa7f10c526b8, 0, 0, 183},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.factor < 5 && testing.Short() {
				t.Skip("half-scale fixture skipped in -short")
			}
			f := newTightFixture(t, 42, tc.factor, tc.over)
			if f.machines != tc.machines {
				t.Fatalf("fixture sized to %d machines, recorded on %d", f.machines, tc.machines)
			}
			for name, got := range f.surfaces(t, DefaultOptions()) {
				if got != tc.want[name] {
					t.Errorf("%s: got %+v, want %+v", name, got, tc.want[name])
				}
			}
		})
	}
}

// TestRelocationMemoMatchesFreshSearch runs the tight and overfull
// fixtures with the memo oracle installed, under first-fit (DL),
// exhaustive best-fit and the naive scan: every memoised relocation
// must be what a fresh search returns, and the oracle must actually
// have been consulted.
func TestRelocationMemoMatchesFreshSearch(t *testing.T) {
	for _, mode := range []struct {
		name  string
		tweak func(*Options)
	}{
		{"first-fit", func(*Options) {}},
		{"best-fit", func(o *Options) { o.DepthLimiting = false }},
		{"naive", func(o *Options) { o.NaiveSearch = true }},
	} {
		for _, over := range []bool{false, true} {
			name := mode.name + "/tight"
			if over {
				name = mode.name + "/overfull"
			}
			t.Run(name, func(t *testing.T) {
				f := newTightFixture(t, 42, 20, over)
				opts := DefaultOptions()
				mode.tweak(&opts)
				opts.Metrics = obs.NewRegistry()

				s := NewSession(opts, f.w, f.cluster())
				checkRelocationMemo(t, s)
				f.fill(t, s)

				sharded := opts
				sharded.Shards = 4
				ss, err := NewSharded(sharded, f.w, f.cluster())
				if err != nil {
					t.Fatal(err)
				}
				checkRelocationMemo(t, shardSessions(ss)...)
				f.fill(t, ss)

				if hits := s.r.met.relocMemoHits.Value(); hits == 0 {
					t.Error("no relocation was answered from the memo: the oracle checked nothing")
				}
			})
		}
	}
}

// TestTopKMatchesFullSort is the selection property both rescues rely
// on: offering every candidate to a topK leaves exactly the first k of
// the full sort the rescue used to run, under either ranking —
// migration's (blockers ascending, machine ascending) and
// defragmentation's (free CPU descending, machine ascending) — with
// heavy ties on the key.
func TestTopKMatchesFullSort(t *testing.T) {
	seed := quickseed.Seed(t)
	prop := func(keys []uint8, k8 uint8, defrag bool) bool {
		k := int(k8)%maxMigrationAttempts + 1
		type cand struct {
			m    topology.MachineID
			free int64
		}
		cands := make([]cand, len(keys))
		for i, key := range keys {
			cands[i] = cand{m: topology.MachineID(i), free: int64(key % 8)} // few values: ties
		}
		rand.New(rand.NewSource(seed+int64(len(keys)))).Shuffle(len(cands), func(i, j int) {
			cands[i], cands[j] = cands[j], cands[i]
		})
		var top topK
		top.reset(k)
		for _, c := range cands {
			key := c.free
			if defrag {
				key = -c.free
			}
			top.offer(rankEntry{key: key, m: c.m})
		}
		// The pre-topK code: sort everything, keep the first k.
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].free != cands[j].free {
				if defrag {
					return cands[i].free > cands[j].free
				}
				return cands[i].free < cands[j].free
			}
			return cands[i].m < cands[j].m
		})
		if len(cands) > k {
			cands = cands[:k]
		}
		if top.n != len(cands) {
			return false
		}
		for i, c := range cands {
			if top.e[i].m != c.m {
				return false
			}
		}
		return true
	}
	quickseed.Check(t, prop, 500)
}

// TestRelocationMemoRandomStates drives relocationFor directly over
// random small cluster states, where the cases the tight fixtures
// rarely reach are common: the remembered scan's excluded machine is
// itself the answer, the remembered destination is the machine now
// excluded, and the class fits nowhere.  Each lookup lifts one placed
// container, asks the memo, compares with a fresh search, and puts the
// container back — the exact-rollback discipline the rescues keep.
func TestRelocationMemoRandomStates(t *testing.T) {
	seed := quickseed.Seed(t)
	w := workload.MustNew([]*workload.App{
		{ID: "plain", Demand: resource.Cores(4, 4096), Replicas: 10},
		{ID: "spread", Demand: resource.Cores(2, 2048), Replicas: 6, AntiAffinitySelf: true},
		{ID: "rival", Demand: resource.Cores(4, 4096), Replicas: 6, AntiAffinityApps: []string{"plain"}},
		{ID: "big", Demand: resource.Cores(10, 8192), Replicas: 4},
	})
	var viaExcluded, researched, remembered, nowhere int
	for _, dl := range []bool{true, false} {
		for round := 0; round < 60; round++ {
			rng := rand.New(rand.NewSource(seed + int64(round)))
			opts := DefaultOptions()
			opts.DepthLimiting = dl
			s := NewSession(opts, w, topology.New(topology.Config{
				Machines: 8, MachinesPerRack: 2, RacksPerCluster: 2, Capacity: resource.Cores(16, 16*1024),
			}))
			r := s.r
			checkRelocationMemo(t, s)
			// A random feasible state, placed directly so it is not
			// shaped by first-fit.
			var placed []*workload.Container
			for _, c := range w.Containers() {
				if rng.Intn(4) == 0 {
					continue
				}
				m := topology.MachineID(rng.Intn(8))
				if r.search.admits(m, c.Demand, r.search.refOf(c)) {
					if err := r.place(c, m); err != nil {
						t.Fatal(err)
					}
					placed = append(placed, c)
				}
			}
			clear(r.rescue.memo)
			r.rescue.done = r.rescue.done[:0]
			for i := 0; i < 40 && len(placed) > 0; i++ {
				b := placed[rng.Intn(len(placed))]
				m := r.asg[b.Ord]
				prev, known := r.rescue.memo[classKey{app: int(r.search.refOf(b)), demand: b.Demand}]
				if err := r.unplace(b, m); err != nil {
					t.Fatal(err)
				}
				got := r.relocationFor(b, m)
				if fresh := r.search.findMachine(b, exclusion{machine: m}); got != fresh {
					t.Fatalf("round %d dl=%v: %s off machine %d: relocationFor %d, fresh search %d (memo %+v)", round, dl, b.ID, m, got, fresh, prev)
				}
				if err := r.place(b, m); err != nil {
					t.Fatal(err)
				}
				switch {
				case !known:
				case prev.dest == m:
					researched++
				case got == topology.Invalid:
					nowhere++
				case got == prev.excluded && prev.excluded != m:
					viaExcluded++
				default:
					remembered++
				}
			}
		}
	}
	// The test has teeth only while every memo case occurs.
	if viaExcluded == 0 || researched == 0 || remembered == 0 || nowhere == 0 {
		t.Errorf("seed %d: memo cases not all exercised: via excluded machine %d, re-searched %d, remembered destination %d, nowhere %d",
			seed, viaExcluded, researched, remembered, nowhere)
	}
}

// BenchmarkRescueTight measures the rescue-dominated path: one op is
// one container of the tight fixture's tail (half scale: ~8,100 tail
// containers onto 3,165 machines with 12 spare), placed in
// 100-container batches onto the preloaded cluster.  Building and
// preloading a session is untimed; run with -benchtime=Nx where N is a
// multiple of the tail length to time whole fills.  make allocguard
// pins its allocs/op: the rescue runs out of run scratch, so what is
// left is amortised growth (resident lists, blacklist rows, the
// machines' container maps) and the candidate sweep's fan-out.
func BenchmarkRescueTight(b *testing.B) {
	f := newTightFixture(b, 42, 2, false)
	pre, tail := f.split()
	var s *Session
	next := len(tail)
	b.ReportAllocs()
	b.ResetTimer()
	for placed := 0; placed < b.N; {
		if next == len(tail) {
			b.StopTimer()
			s = NewSession(DefaultOptions(), f.w, f.cluster())
			if _, err := s.Place(pre); err != nil {
				b.Fatal(err)
			}
			next = 0
			b.StartTimer()
		}
		batch := tail[next]
		if rest := b.N - placed; rest < len(batch) {
			batch = batch[:rest]
		}
		res, err := s.Place(batch)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Undeployed) != 0 {
			b.Fatalf("tight fill left %d undeployed", len(res.Undeployed))
		}
		placed += len(batch)
		next++
	}
}
