// Package workload models long-lived applications (LLAs), their
// containers, and the two placement-constraint families the paper
// supports: anti-affinity (within and across applications, §II.A) and
// priority.
package workload

import (
	"fmt"
	"sort"

	"aladdin/internal/resource"
)

// Priority is a container's scheduling priority; larger is more
// important.  In the Alibaba trace priorities are a small ladder.
type Priority int

const (
	// PriorityLow is the default priority (w1 = 1 in Equation 4).
	PriorityLow Priority = 0
	// PriorityMid is an intermediate priority class.
	PriorityMid Priority = 1
	// PriorityHigh is the top class; high-priority containers may
	// preempt lower ones but never the reverse (§III.B).
	PriorityHigh Priority = 2
)

// String returns a short label.
func (p Priority) String() string {
	switch p {
	case PriorityLow:
		return "low"
	case PriorityMid:
		return "mid"
	case PriorityHigh:
		return "high"
	default:
		return fmt.Sprintf("prio(%d)", int(p))
	}
}

// Container is one long-lived container: the T vertices of the flow
// network.  All containers of one application are isomorphic (same
// demand), the property isomorphism limiting exploits (§IV.A).
type Container struct {
	// ID is unique within a workload, e.g. "app-00042/3".
	ID string
	// App is the owning application's ID.
	App string
	// Index is the container's ordinal within its application.
	Index int
	// Ord is the container's ordinal within its workload (containers
	// are app-major), assigned by New.  Schedulers use it to key
	// per-container state in slices instead of ID-keyed maps.
	Ord int
	// Demand is the resource requirement c_n of the submission.
	Demand resource.Vector
	// Priority is the submission's priority w_n.
	Priority Priority
}

// App is a long-lived application comprising isomorphic containers.
type App struct {
	// ID is unique within a workload, e.g. "app-00042".
	ID string
	// Demand is the per-container resource requirement.
	Demand resource.Vector
	// Replicas is the number of containers.
	Replicas int
	// Priority applies to every container of the app.
	Priority Priority
	// AntiAffinitySelf requires all containers of this app to land on
	// distinct machines ("anti-affinity within an application").
	AntiAffinitySelf bool
	// AntiAffinityApps lists other application IDs this app must not
	// share a machine with ("anti-affinity across applications").
	AntiAffinityApps []string
}

// Containers materialises the app's container list.
func (a *App) Containers() []*Container {
	cs := make([]*Container, a.Replicas)
	for i := range cs {
		cs[i] = &Container{
			ID:       fmt.Sprintf("%s/%d", a.ID, i),
			App:      a.ID,
			Index:    i,
			Demand:   a.Demand,
			Priority: a.Priority,
		}
	}
	return cs
}

// HasConstraints reports whether the app carries any anti-affinity
// constraint.
func (a *App) HasConstraints() bool {
	return a.AntiAffinitySelf || len(a.AntiAffinityApps) > 0
}

// Workload is a batch of LLAs submitted together, the unit the
// evaluation replays ("massive LLAs arrive simultaneously", §I).
type Workload struct {
	apps     []*App
	appByID  map[string]*App
	appIndex map[string]int

	containers []*Container
	// byID indexes containers by ID; Container is the one ID lookup
	// every scheduler and server path shares.
	byID map[string]*Container
	// appOffset locates each app's first container within containers
	// (containers are app-major).
	appOffset map[string]int

	// antiPairs holds the symmetric closure of across-app
	// anti-affinity as a set of canonical (a<b) pairs.
	antiPairs map[[2]string]bool

	// partners is the adjacency view of antiPairs, sorted per app —
	// precomputed so AntiAffinePartners is O(degree) instead of
	// O(all pairs) (it is called once per app when a scheduler builds
	// its blacklist state).
	partners map[string][]string
}

// New builds a workload from applications.  App IDs must be unique;
// across-app anti-affinity references to unknown apps are rejected so
// constraint bugs surface at construction.
func New(apps []*App) (*Workload, error) {
	w := &Workload{
		appByID:   make(map[string]*App, len(apps)),
		appIndex:  make(map[string]int, len(apps)),
		appOffset: make(map[string]int, len(apps)),
		antiPairs: make(map[[2]string]bool),
	}
	for _, a := range apps {
		if a.ID == "" {
			return nil, fmt.Errorf("workload: app with empty ID")
		}
		if a.Replicas <= 0 {
			return nil, fmt.Errorf("workload: app %q has %d replicas", a.ID, a.Replicas)
		}
		if a.Demand.CPUMilli < 0 || a.Demand.MemMB < 0 {
			return nil, fmt.Errorf("workload: app %q has negative demand %s", a.ID, a.Demand)
		}
		if _, dup := w.appByID[a.ID]; dup {
			return nil, fmt.Errorf("workload: duplicate app id %q", a.ID)
		}
		w.appByID[a.ID] = a
		w.appIndex[a.ID] = len(w.apps)
		w.apps = append(w.apps, a)
	}
	for _, a := range apps {
		for _, other := range a.AntiAffinityApps {
			if _, ok := w.appByID[other]; !ok {
				return nil, fmt.Errorf("workload: app %q anti-affinity references unknown app %q", a.ID, other)
			}
			if other == a.ID {
				return nil, fmt.Errorf("workload: app %q anti-affinity references itself; use AntiAffinitySelf", a.ID)
			}
			w.antiPairs[pairKey(a.ID, other)] = true
		}
		w.appOffset[a.ID] = len(w.containers)
		for _, c := range a.Containers() {
			c.Ord = len(w.containers)
			w.containers = append(w.containers, c)
		}
	}
	w.byID = make(map[string]*Container, len(w.containers))
	for _, c := range w.containers {
		w.byID[c.ID] = c
	}
	w.partners = make(map[string][]string)
	for pair := range w.antiPairs {
		w.partners[pair[0]] = append(w.partners[pair[0]], pair[1])
		w.partners[pair[1]] = append(w.partners[pair[1]], pair[0])
	}
	for _, ps := range w.partners {
		sort.Strings(ps)
	}
	return w, nil
}

// MustNew is New that panics on error, for tests and examples.
func MustNew(apps []*App) *Workload {
	w, err := New(apps)
	if err != nil {
		panic(err)
	}
	return w
}

// Apps returns the applications in submission order.
func (w *Workload) Apps() []*App { return w.apps }

// App returns the application with the given ID, or nil.
func (w *Workload) App(id string) *App { return w.appByID[id] }

// AppIndex returns the app's ordinal in submission order, or -1 when
// unknown.  Ordinals let per-app state live in slices instead of
// string-keyed maps on scheduler hot paths.
func (w *Workload) AppIndex(id string) int {
	if i, ok := w.appIndex[id]; ok {
		return i
	}
	return -1
}

// NumApps returns the application count.
func (w *Workload) NumApps() int { return len(w.apps) }

// HasAntiAffinity reports whether the app carries any anti-affinity
// constraint under the symmetric closure: self anti-affinity, a
// declared partner, or being another app's declared partner.
func (w *Workload) HasAntiAffinity(appID string) bool {
	if app := w.appByID[appID]; app != nil && app.AntiAffinitySelf {
		return true
	}
	return len(w.partners[appID]) > 0
}

// Containers returns every container in app-major order.  The slice
// is shared; callers must not mutate it.
func (w *Workload) Containers() []*Container { return w.containers }

// Container returns the container with the given ID, or nil.
func (w *Workload) Container(id string) *Container { return w.byID[id] }

// NumContainers returns the total container count.
func (w *Workload) NumContainers() int { return len(w.containers) }

// AntiAffine reports whether two applications may not share a machine
// (across-app constraint).  It is symmetric.  Within-app anti-affinity
// is reported when a == b and the app sets AntiAffinitySelf.
func (w *Workload) AntiAffine(a, b string) bool {
	if a == b {
		app := w.appByID[a]
		return app != nil && app.AntiAffinitySelf
	}
	return w.antiPairs[pairKey(a, b)]
}

// AntiAffinePartners returns every application that is across-app
// anti-affine with appID, using the symmetric closure (if either app
// declared the pair, both see each other as partners).  The result is
// in deterministic (sorted) order.
func (w *Workload) AntiAffinePartners(appID string) []string {
	cached := w.partners[appID]
	if len(cached) == 0 {
		return nil
	}
	out := make([]string, len(cached))
	copy(out, cached)
	return out
}

// ConflictDegree returns how many containers (across the whole
// workload) the given app may not be co-located with.  The paper
// orders arrivals by this for the CLA/CSA experiments.
func (w *Workload) ConflictDegree(appID string) int {
	app := w.appByID[appID]
	if app == nil {
		return 0
	}
	deg := 0
	if app.AntiAffinitySelf {
		deg += app.Replicas - 1
	}
	for _, other := range w.apps {
		if other.ID == appID {
			continue
		}
		if w.antiPairs[pairKey(appID, other.ID)] {
			deg += other.Replicas
		}
	}
	return deg
}

// Stats summarises the workload (Fig. 8's headline numbers).
type Stats struct {
	Apps               int
	Containers         int
	SingleInstanceApps int
	AppsUnder50        int
	AppsOver2000       int
	AntiAffinityApps   int
	PriorityApps       int
	MaxDemand          resource.Vector
	TotalDemand        resource.Vector
}

// ComputeStats derives the workload summary.
func (w *Workload) ComputeStats() Stats {
	var s Stats
	s.Apps = len(w.apps)
	for _, a := range w.apps {
		s.Containers += a.Replicas
		if a.Replicas == 1 {
			s.SingleInstanceApps++
		}
		if a.Replicas < 50 {
			s.AppsUnder50++
		}
		if a.Replicas > 2000 {
			s.AppsOver2000++
		}
		if a.HasConstraints() {
			s.AntiAffinityApps++
		}
		if a.Priority > PriorityLow {
			s.PriorityApps++
		}
		s.MaxDemand = s.MaxDemand.Max(a.Demand)
		s.TotalDemand = s.TotalDemand.Add(a.Demand.Scale(int64(a.Replicas)))
	}
	return s
}

// ReplicaCDF returns the sorted replica counts per app, from which a
// CDF (Fig. 8a) can be plotted.
func (w *Workload) ReplicaCDF() []int {
	counts := make([]int, len(w.apps))
	for i, a := range w.apps {
		counts[i] = a.Replicas
	}
	sort.Ints(counts)
	return counts
}

func pairKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}
