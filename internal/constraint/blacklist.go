// Package constraint implements the non-linear half of Aladdin's
// capacity function: the per-machine container blacklist (Equations
// 7–8), the priority weight ladder (Equations 3–5) and constraint-
// violation accounting shared by all schedulers.
package constraint

import (
	"aladdin/internal/topology"
	"aladdin/internal/workload"
)

// AppRef is an application's dense ordinal inside a Blacklist, the
// key under which per-machine blacklist counters are stored.  Resolve
// it once per search with Ref and reuse it across candidate machines;
// NoApp marks an app unknown to the workload (never blacklisted).
type AppRef int32

// NoApp is the AppRef of an unknown application.
const NoApp AppRef = -1

// blEntry is one (app, count) blacklist counter.  Machines blacklist
// few distinct apps (the anti-affinity partner degrees of what they
// host), so a small app-sorted slice beats any map: admit checks scan
// a handful of contiguous entries with no hashing.
type blEntry struct {
	app   AppRef
	count int32
}

// Blacklist tracks, for every machine, which applications may not be
// deployed there given the containers already placed.  This realises
// the set-based capacity extension of Equation 6: "the symbol ≤ is
// extended to represent c(s,Ti) ∈ c(Nj,t)" — a container only fits a
// machine when it is not in the machine's blacklist (Equation 8).
//
// All state is keyed by app ordinal (AppRef), not app ID: the admit
// check runs once per candidate machine on the scheduler's innermost
// loop, and integer-keyed counters keep it free of string hashing.
type Blacklist struct {
	w *workload.Workload
	// selfAnti[a] reports whether app ordinal a is self-anti-affine.
	selfAnti []bool
	// partners[a] lists the app ordinals anti-affine with a, the
	// symmetric closure precomputed so Place/Release are O(degree).
	partners [][]AppRef
	// perMachine[m] counts, app-sorted, how many placed containers on
	// machine m forbid each app.  Counted (not boolean) so releases
	// can undo placements incrementally during migration.
	perMachine [][]blEntry
}

// NewBlacklist builds the empty blacklist state for a cluster of the
// given size.
func NewBlacklist(w *workload.Workload, machines int) *Blacklist {
	apps := w.Apps()
	b := &Blacklist{
		w:          w,
		selfAnti:   make([]bool, len(apps)),
		partners:   make([][]AppRef, len(apps)),
		perMachine: make([][]blEntry, machines),
	}
	for i, a := range apps {
		b.selfAnti[i] = a.AntiAffinitySelf
		names := w.AntiAffinePartners(a.ID)
		if len(names) == 0 {
			continue
		}
		refs := make([]AppRef, len(names))
		for j, other := range names {
			refs[j] = AppRef(w.AppIndex(other))
		}
		b.partners[i] = refs
	}
	return b
}

// Ref resolves an app ID to its ordinal, NoApp when unknown.
func (b *Blacklist) Ref(appID string) AppRef {
	return AppRef(b.w.AppIndex(appID))
}

// Allows reports whether the container may be deployed on the machine
// under anti-affinity alone (Equation 8: deployed = 1 iff the
// container is not in the machine's blacklist).
func (b *Blacklist) Allows(m topology.MachineID, c *workload.Container) bool {
	return b.AllowsRef(m, b.Ref(c.App))
}

// AllowsRef is Allows with the app ordinal already resolved — the
// form search loops use so the string lookup happens once per
// container, not once per candidate machine.
func (b *Blacklist) AllowsRef(m topology.MachineID, app AppRef) bool {
	for _, e := range b.perMachine[m] {
		if e.app == app {
			return e.count == 0
		}
		if e.app > app {
			break
		}
	}
	return true
}

// ConflictsRef reports whether a placed container of app a keeps app b
// off its machine — the per-pair question behind the per-machine
// counters, for callers that must name the blocking resident rather
// than only learn that one exists.  Symmetric; a == b asks about self
// anti-affinity; NoApp conflicts with nothing.
func (b *Blacklist) ConflictsRef(a, other AppRef) bool {
	if a == NoApp || other == NoApp {
		return false
	}
	if a == other {
		return b.selfAnti[a]
	}
	// partners is the symmetric closure, so either list answers; scan
	// the shorter.
	list, want := b.partners[a], other
	if len(b.partners[other]) < len(list) {
		list, want = b.partners[other], a
	}
	for _, p := range list {
		if p == want {
			return true
		}
	}
	return false
}

// BlockedApps returns how many distinct apps are currently blocked on
// the machine (Equation 7's blacklist size).
func (b *Blacklist) BlockedApps(m topology.MachineID) int {
	n := 0
	for _, e := range b.perMachine[m] {
		if e.count > 0 {
			n++
		}
	}
	return n
}

// inc bumps the counter for app on machine m, keeping the entry slice
// app-sorted.
func (b *Blacklist) inc(m topology.MachineID, app AppRef) {
	bm := b.perMachine[m]
	i := 0
	for ; i < len(bm); i++ {
		if bm[i].app == app {
			bm[i].count++
			return
		}
		if bm[i].app > app {
			break
		}
	}
	bm = append(bm, blEntry{})
	copy(bm[i+1:], bm[i:])
	bm[i] = blEntry{app: app, count: 1}
	b.perMachine[m] = bm
}

// dec undoes one inc, dropping the entry when its count reaches zero.
func (b *Blacklist) dec(m topology.MachineID, app AppRef) {
	bm := b.perMachine[m]
	for i := 0; i < len(bm); i++ {
		if bm[i].app == app {
			bm[i].count--
			if bm[i].count <= 0 {
				bm = append(bm[:i], bm[i+1:]...)
				b.perMachine[m] = bm
			}
			return
		}
		if bm[i].app > app {
			return
		}
	}
}

// Place updates blacklists after the container is deployed on the
// machine: every app that is anti-affine with the container's app —
// including the app itself when it has self anti-affinity — joins the
// machine's blacklist (the d = {T1} → blacklist update of §III.C).
func (b *Blacklist) Place(m topology.MachineID, c *workload.Container) {
	b.PlaceRef(m, b.Ref(c.App))
}

// PlaceRef is Place with the app ordinal already resolved — the form
// the scheduler's mutation funnel uses so deploying a container does
// not re-hash its app ID.
func (b *Blacklist) PlaceRef(m topology.MachineID, app AppRef) {
	if app == NoApp {
		return
	}
	if b.selfAnti[app] {
		b.inc(m, app)
	}
	for _, other := range b.partners[app] {
		b.inc(m, other)
	}
}

// Release undoes a Place for the container on the machine.
func (b *Blacklist) Release(m topology.MachineID, c *workload.Container) {
	b.ReleaseRef(m, b.Ref(c.App))
}

// ReleaseRef is Release with the app ordinal already resolved.
func (b *Blacklist) ReleaseRef(m topology.MachineID, app AppRef) {
	if app == NoApp {
		return
	}
	if b.selfAnti[app] {
		b.dec(m, app)
	}
	for _, other := range b.partners[app] {
		b.dec(m, other)
	}
}

// Reset clears all machines' blacklists.
func (b *Blacklist) Reset() {
	for i := range b.perMachine {
		b.perMachine[i] = nil
	}
}
