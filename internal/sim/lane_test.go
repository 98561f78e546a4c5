package sim

import (
	"math/rand"
	"testing"
	"time"
)

// checkLaneTree verifies the winner tree against the expected leaf
// keys: every leaf holds its lane's key, every inner node holds the
// earlier of its children, and the root equals the brute-force
// minimum over all registered lanes.
func checkLaneTree(t *testing.T, s *Scheduler, keys []laneKey, op string) {
	t.Helper()
	tr := s.ltree
	n := len(tr) / 2
	if n < len(keys) {
		t.Fatalf("%s: tree capacity %d below %d lanes", op, n, len(keys))
	}
	for id, k := range keys {
		if tr[n+id] != k {
			t.Fatalf("%s: leaf %d = %+v, want %+v", op, id, tr[n+id], k)
		}
	}
	for i := 1; i < n; i++ {
		l, r := tr[2*i], tr[2*i+1]
		if tr[i] != l && tr[i] != r || r.before(&tr[i]) || l.before(&tr[i]) {
			t.Fatalf("%s: node %d = %+v, children %+v %+v", op, i, tr[i], l, r)
		}
	}
	if len(keys) == 0 {
		return
	}
	best := keys[0]
	for _, k := range keys[1:] {
		if k.before(&best) {
			best = k
		}
	}
	if root := tr[1]; root.at != best.at || root.seq != best.seq || (best.at != laneIdleAt && root.id != best.id) {
		t.Fatalf("%s: root %+v, brute-force minimum %+v", op, root, best)
	}
}

// TestLaneTreeMatchesBruteForce drives registrations (crossing every
// capacity growth up to 512 leaves), arms, earlier and later re-arms,
// disarms and Resets in random order and checks the whole tree after
// every operation.
func TestLaneTreeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := NewScheduler(1)
	var keys []laneKey
	for i := 0; i < 20000; i++ {
		var op string
		switch r := rng.Intn(20); {
		case r < 2 && len(keys) < 300:
			op = "NewLane"
			id := s.NewLane(laneFunc(func() {}))
			keys = append(keys, idleLane(id))
		case len(keys) == 0:
			continue
		case r < 12:
			id := int32(rng.Intn(len(keys)))
			at := time.Duration(rng.Int63n(1000))
			if k := keys[id]; k.at != laneIdleAt && rng.Intn(2) == 0 {
				op = "re-arm near"
				at = k.at + time.Duration(rng.Int63n(21)-10)
				at = max(at, 0)
			} else {
				op = "ArmLane"
			}
			seq := s.ReserveSeq()
			s.ArmLane(id, at, seq)
			keys[id] = laneKey{at: at, seq: seq, id: id}
		case r < 19:
			op = "DisarmLane"
			id := int32(rng.Intn(len(keys)))
			s.DisarmLane(id)
			keys[id] = idleLane(id)
		default:
			if rng.Intn(10) != 0 {
				continue
			}
			op = "Reset"
			s.Reset(1)
			for id := range keys {
				keys[id] = idleLane(int32(id))
			}
		}
		checkLaneTree(t, s, keys, op)
	}
	if len(keys) < 257 {
		t.Fatalf("only %d lanes registered; growth past 256 leaves untested", len(keys))
	}
}
