// Package ordinalflow is the golden fixture for the ordinalflow
// analyzer.  The router numbers machines twice — fleet-wide, and by
// slot inside the shard that owns them — beside shard indices,
// container ordinals, and app refs: all plain integers, and only the
// //aladdin:domain declarations tell them apart.
package ordinalflow

type MachineID int32

type router struct {
	ownerOf []int32       //aladdin:domain fleet -> shard owning shard of each fleet machine id
	slotOf  []MachineID   //aladdin:domain fleet -> machine fleet machine id to its shard-local id
	fleetOf [][]MachineID //aladdin:domain shard, machine -> fleet per-shard local-to-fleet table
	asg     []MachineID   //aladdin:domain ord -> machine container ordinal to assigned machine
	routeOf []int32       //aladdin:domain ord -> shard container ordinal to first-try shard
}

type container struct {
	Ord int32 //aladdin:domain ord container ordinal in arrival order
}

type slot struct {
	home int32 //aladdin:domain shard the replica's home shard
}

// assignedOrd translates a container ordinal to its machine ordinal.
//
//aladdin:domain ord -> machine
func (r *router) assignedOrd(ord int32) MachineID {
	return r.asg[ord]
}

// roundTrip follows the clean translation chain fleet → shard/local
// → fleet: no findings.
//
//aladdin:domain fleet -> fleet
func (r *router) roundTrip(gid MachineID) MachineID {
	k := r.ownerOf[gid]
	lm := r.slotOf[gid]
	return r.fleetOf[k][lm]
}

// crossIndex feeds a shard-local id back into a fleet-indexed table.
//
//aladdin:domain fleet -> machine
func (r *router) crossIndex(gid MachineID) MachineID {
	lm := r.slotOf[gid]
	return r.slotOf[lm] // want `indexing r.slotOf with a machine value; its index space is fleet ids`
}

// sameMachine compares ids from two different spaces.
//
//aladdin:domain ord, fleet -> _
func (r *router) sameMachine(ord int32, gid MachineID) bool {
	lm := r.asg[ord]
	return lm == gid // want `comparing a machine value with a fleet value`
}

// setHome stores into an annotated scalar field.
//
//aladdin:domain _, ord -> _
func (r *router) setHome(s *slot, ord int32) {
	s.home = r.routeOf[ord] // ok: routeOf yields shard ids
	s.home = ord            // want `assigning ord value to s.home, declared to hold shard ids`
}

// store writes through an annotated table's element domain.
//
//aladdin:domain fleet, shard -> _
func (r *router) store(gid MachineID, k int32) {
	r.ownerOf[gid] = k          // ok: elem domain is shard
	r.ownerOf[gid] = int32(gid) // want `storing fleet value into r.ownerOf, declared to hold shard ids`
}

// useMachine consumes shard-local machine ordinals.
//
//aladdin:domain machine -> _
func (r *router) useMachine(lm MachineID) { _ = lm }

// callMismatch hands an ordinal to a machine-ordinal parameter.
//
//aladdin:domain ord -> _
func (r *router) callMismatch(ord int32) {
	r.useMachine(r.asg[ord])     // ok
	r.useMachine(MachineID(ord)) // want `passing ord value to useMachine, whose parameter 1 takes machine ids`
}

// wrongReturn declares a fleet result but returns a machine ordinal.
//
//aladdin:domain ord -> fleet
func (r *router) wrongReturn(ord int32) MachineID {
	return r.asg[ord] // want `returning machine value from wrongReturn, declared to return fleet ids`
}

// sweep exercises range-loop domain propagation.
func (r *router) sweep() MachineID {
	var total MachineID
	for ord := range r.asg {
		total += r.asg[ord] // ok: the range key is an ord id
	}
	for ord, lm := range r.asg {
		_ = lm
		total += r.slotOf[ord] // want `indexing r.slotOf with a ord value; its index space is fleet ids`
	}
	return total
}

// localTable binds a domain to a local variable at its definition.
//
//aladdin:domain ord, fleet -> _
func (r *router) localTable(ord int32, gid MachineID) int32 {
	refs := r.routeOf //aladdin:domain ord -> shard local view of the routing table
	if gid > 0 {
		return refs[gid] // want `indexing refs with a fleet value; its index space is ord ids`
	}
	return refs[ord] // ok
}

// byContainer reads the annotated scalar field through a pointer.
func (r *router) byContainer(c *container) MachineID {
	return r.asg[c.Ord] // ok
}

// confused indexes a fleet table with a container ordinal.
func (r *router) confused(c *container) MachineID {
	return r.slotOf[c.Ord] // want `indexing r.slotOf with a ord value; its index space is fleet ids`
}

// suppressed documents a deliberate cross-domain probe.
//
//aladdin:domain fleet -> _
func (r *router) suppressed(gid MachineID) {
	lm := r.slotOf[gid]
	//aladdin:domain-ok fixture: deliberate cross-domain probe under test
	_ = r.slotOf[lm]
}
