package sim

import (
	"fmt"
	"math"
	"time"
)

// ---- Scheduler lanes ----
//
// A lane is a per-owner slot holding at most one pending Task event
// with a borrowed (at, seq) identity. It exists for pumps (netem.Link
// is the canonical owner) that keep their pending work in their own
// FIFO and need exactly one dispatch point for its head: re-arming a
// lane overwrites its pending event instead of scheduling another one,
// and lane events never enter the wheel or the heap.
//
// Lanes live in a winner (tournament) tree: leaves are lane keys, and
// every inner node holds a copy of its subtree's earliest key, so the
// root is the earliest armed lane. Idle lanes carry the key
// (MaxInt64, MaxUint64), which orders after every armed one. Dispatch
// merges the root with the heap top in (at, seq) order, so lanes fire
// exactly where an equivalent heap event would.

// laneKey is one tree node: the (at, seq) of the earliest event in the
// node's subtree and the lane that owns it. Keys are stored inline so
// a tree update touches one contiguous array.
type laneKey struct {
	at  time.Duration
	seq uint64
	id  int32
}

const laneIdleAt = time.Duration(math.MaxInt64)

// idleLane is lane id's key while it holds no event.
func idleLane(id int32) laneKey { return laneKey{at: laneIdleAt, seq: math.MaxUint64, id: id} }

func (a *laneKey) before(b *laneKey) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// NewLane registers a lane whose events run task and returns its id.
// The lane starts idle. Registrations survive Reset.
func (s *Scheduler) NewLane(task Task) int32 {
	id := int32(len(s.lanes))
	s.lanes = append(s.lanes, task)
	if n := len(s.ltree) / 2; int(id) >= n {
		s.growLanes(max(1, 2*n))
	}
	return id
}

// ArmLane makes lane id's pending event task.RunTask(0) at (at, seq),
// replacing any event the lane held. seq is a number reserved with
// ReserveSeq, so the event fires exactly where the reservation falls
// in the global (time, insertion) order.
func (s *Scheduler) ArmLane(id int32, at time.Duration, seq uint64) {
	if at < s.now {
		panic(fmt.Sprintf("sim: arming lane at %v before now %v", at, s.now))
	}
	s.setLane(laneKey{at: at, seq: seq, id: id})
}

// DisarmLane drops lane id's pending event, if any.
func (s *Scheduler) DisarmLane(id int32) {
	s.setLane(idleLane(id))
}

// setLane stores k as its lane's key and restores the winner property
// on the leaf's path with early exit. A shrinking key climbs only
// while it beats the ancestor's winner. A growing key recomputes only
// the ancestors that held the lane: a node that holds another lane
// proves no node above it holds this one.
func (s *Scheduler) setLane(k laneKey) {
	t := s.ltree
	i := len(t)/2 + int(k.id)
	if k.before(&t[i]) {
		t[i] = k
		for i >>= 1; i > 0 && !t[i].before(&k); i >>= 1 {
			t[i] = k
		}
		return
	}
	t[i] = k
	w := k // winner of the subtree rooted at i
	for ; i > 1 && t[i>>1].id == k.id; i >>= 1 {
		if sib := &t[i^1]; sib.before(&w) {
			w = *sib
		}
		t[i>>1] = w
	}
}

// growLanes rebuilds the tree with capacity n leaves, keeping every
// registered lane's key.
func (s *Scheduler) growLanes(n int) {
	t := make([]laneKey, 2*n)
	old := len(s.ltree) / 2
	for id := range n {
		if id < old {
			t[n+id] = s.ltree[old+id]
		} else {
			t[n+id] = idleLane(int32(id))
		}
	}
	s.ltree = t
	s.rebuildLanes()
}

// rebuildLanes recomputes every inner node from the leaves.
func (s *Scheduler) rebuildLanes() {
	t := s.ltree
	for i := len(t)/2 - 1; i > 0; i-- {
		if t[2*i+1].before(&t[2*i]) {
			t[i] = t[2*i+1]
		} else {
			t[i] = t[2*i]
		}
	}
}

// resetLanes idles every lane, keeping registrations and the tree.
func (s *Scheduler) resetLanes() {
	n := len(s.ltree) / 2
	for id := range n {
		s.ltree[n+id] = idleLane(int32(id))
	}
	s.rebuildLanes()
	s.lfiring.id = -1
}

// laneRoot returns the earliest armed lane's key, or nil when every
// lane is idle.
func (s *Scheduler) laneRoot() *laneKey {
	if len(s.ltree) == 0 || s.ltree[1].at == laneIdleAt {
		return nil
	}
	return &s.ltree[1]
}

// fireLane runs the root lane's event. Its key stays in the tree while
// the task runs; the lane is idled afterwards only if the task did not
// re-arm it, so a pump that re-arms pays one tree update per fire.
func (s *Scheduler) fireLane() {
	k := s.ltree[1]
	s.lfiring = k
	s.cur = k.seq
	s.lanes[k.id].RunTask(0)
	s.lfiring.id = -1
	if leaf := &s.ltree[len(s.ltree)/2+int(k.id)]; leaf.at == k.at && leaf.seq == k.seq {
		s.DisarmLane(k.id)
	}
}

// lanesPending counts armed lanes. The lane being fired is not counted
// unless its task re-armed it: its key left in the tree is stale.
func (s *Scheduler) lanesPending() int {
	n := len(s.ltree) / 2
	c := 0
	for id := range s.lanes {
		if leaf := &s.ltree[n+id]; leaf.at != laneIdleAt && !(int32(id) == s.lfiring.id && leaf.seq == s.lfiring.seq) {
			c++
		}
	}
	return c
}
