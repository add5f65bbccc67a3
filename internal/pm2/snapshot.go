package pm2

import "fmt"

// Runtime checkpoint/restore. At a safe point every application thread has
// finished (the engine queue is drained), so the runtime's serializable
// state reduces to the thread-id counter — which must resume where it
// left off, or every post-restore spawn would reuse ids and perturb any
// id-keyed ordering — and the per-node liveness flag and counters. Threads
// themselves are rebuilt by the application layer.

// NodeRuntimeState is one node's slice of the runtime state.
type NodeRuntimeState struct {
	Dead            bool `json:"dead,omitempty"`
	ThreadsSpawned  int  `json:"threads_spawned"`
	MigrationsIn    int  `json:"migrations_in,omitempty"`
	MigrationsOut   int  `json:"migrations_out,omitempty"`
	HandlersSpawned int  `json:"handlers_spawned"`
	Restarts        int  `json:"restarts,omitempty"`
}

// RuntimeState is the runtime's serializable state.
type RuntimeState struct {
	NextID int                `json:"next_id"` // last thread id handed out
	Nodes  []NodeRuntimeState `json:"nodes"`
}

// CaptureState serializes the runtime's counters and liveness flags.
func (rt *Runtime) CaptureState() *RuntimeState {
	s := &RuntimeState{NextID: rt.nextID}
	for _, n := range rt.nodes {
		s.Nodes = append(s.Nodes, NodeRuntimeState{
			Dead:            n.dead,
			ThreadsSpawned:  n.ThreadsSpawned,
			MigrationsIn:    n.MigrationsIn,
			MigrationsOut:   n.MigrationsOut,
			HandlersSpawned: n.HandlersSpawned,
			Restarts:        n.Restarts,
		})
	}
	return s
}

// RestoreState installs captured counters into this runtime, which must
// have the same shape. Dead nodes must already have been killed through
// KillNode (which tears down services' threads and network queues); this only
// stomps the counters those calls perturbed back to their captured values.
func (rt *Runtime) RestoreState(s *RuntimeState) error {
	if len(s.Nodes) != len(rt.nodes) {
		return fmt.Errorf("pm2: restore of %d-node state into %d-node runtime", len(s.Nodes), len(rt.nodes))
	}
	rt.nextID = s.NextID
	for i, ns := range s.Nodes {
		n := rt.nodes[i]
		if ns.Dead != n.dead {
			return fmt.Errorf("pm2: node %d liveness mismatch at restore (snapshot dead=%v, runtime dead=%v)", i, ns.Dead, n.dead)
		}
		n.ThreadsSpawned = ns.ThreadsSpawned
		n.MigrationsIn = ns.MigrationsIn
		n.MigrationsOut = ns.MigrationsOut
		n.HandlersSpawned = ns.HandlersSpawned
		n.Restarts = ns.Restarts
	}
	return nil
}
