package serve

import "sync"

// This file is the single-flight half of admission: concurrent
// requests for the same spec digest share one suite execution. The
// first request in becomes the flight's leader and executes; later
// identical requests register as followers — each an ordinary run with
// its own id, stream, and cancellation, but costing no queue slot, no
// quota, and no suite execution. A watcher goroutine mirrors the
// leader's stream lines into every follower as they land and fans the
// terminal report out when the leader finishes, so a follower's report
// is the leader's report — byte-identical by construction, not by
// re-execution. Because flights are registered under the same Manager
// lock that checks the result cache, two racing identical POSTs can
// never both execute: one of them creates the flight, the other joins
// it (the duplicate-work race the pre-coalescing admitRun had between
// its cache check and registration).
//
// A canceled leader does not strand its followers: the watcher
// promotes the first still-live follower to leader and executes that
// follower's own (fresh, unrun) suite — determinism makes the re-run
// report identical, so from a follower's perspective the cancellation
// never happened. With no live follower left, the flight dissolves.

// flight is one in-flight suite execution shared by every concurrent
// run with the same spec digest.
type flight struct {
	digest string

	mu        sync.Mutex
	leader    *run
	followers []*run // admission order
}

func (fl *flight) currentLeader() *run {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	return fl.leader
}

// addFollower registers a coalesced run. Called with Manager.mu held
// (flight membership changes only under admission or the watcher).
func (fl *flight) addFollower(r *run) {
	fl.mu.Lock()
	fl.followers = append(fl.followers, r)
	fl.mu.Unlock()
}

// mirror lands the leader's stream lines in every live follower's
// empty slots, waking follower streams. Slots already filled (from a
// previous leader, before a failover) are never overwritten.
func (fl *flight) mirror(lines [][]byte) {
	fl.mu.Lock()
	followers := append([]*run(nil), fl.followers...)
	fl.mu.Unlock()
	for _, f := range followers {
		f.fill(lines)
	}
}

// finish moves every remaining live follower to the leader's outcome —
// state, report bytes, and span end alike — and drops the followers'
// retained suites. Followers canceled individually keep their own
// terminal state.
func (fl *flight) finish(o outcome) {
	fl.mu.Lock()
	followers := fl.followers
	fl.followers = nil
	fl.mu.Unlock()
	for _, f := range followers {
		f.mu.Lock()
		f.suite = nil
		f.finishLocked(o)
		f.mu.Unlock()
	}
}

// watchFlight follows a flight's leader to its terminal state,
// mirroring stream lines into followers as they land, promoting a
// follower on leader cancellation, and fanning the terminal result
// out. Exactly one watcher runs per flight; it removes the flight from
// the manager before draining followers, so a request admitted after
// removal starts a fresh flight instead of joining a dead one.
func (m *Manager) watchFlight(fl *flight) {
	defer m.execWG.Done()
	for {
		o, changed := fl.currentLeader().wait()
		fl.mirror(o.lines)
		if o.state == StateRunning {
			<-changed
			continue
		}
		if o.state == StateCanceled && m.promote(fl) {
			continue
		}
		if o.state == StateCanceled {
			o.errMsg = "coalesced run's execution was canceled"
		}
		m.removeFlight(fl)
		fl.finish(o)
		return
	}
}

// promote hands the flight to its first still-live follower after the
// leader was canceled: the follower's own retained (fresh, unrun)
// suite executes in the leader's place, through the manager's executor
// like any fresh execution (so a coordinator federates it). The
// re-execution occupies the slot the canceled leader just released,
// so it bypasses the admission queue check; it was admitted once
// already. Returns false — dissolving the flight — when no live
// follower remains or the manager is draining. The flight is
// unregistered under the same admission lock that found it empty, so
// no request can join a flight that is about to finish canceled.
func (m *Manager) promote(fl *flight) bool {
	for {
		m.mu.Lock()
		fl.mu.Lock()
		if m.draining || len(fl.followers) == 0 {
			if m.flights[fl.digest] == fl {
				delete(m.flights, fl.digest)
			}
			fl.mu.Unlock()
			m.mu.Unlock()
			return false
		}
		f := fl.followers[0]
		fl.followers = fl.followers[1:]
		fl.mu.Unlock()
		m.mu.Unlock()

		f.mu.Lock()
		if f.state != StateRunning || f.suite == nil {
			f.mu.Unlock()
			continue
		}
		suite := f.suite
		f.suite = nil
		f.coalesced = false // it executes now; its report is its own
		f.mu.Unlock()

		fl.mu.Lock()
		fl.leader = f
		fl.mu.Unlock()

		m.addOutstanding(1)
		m.startExec(f, suite)
		return true
	}
}

// removeFlight unregisters a flight so new admissions for the digest
// start fresh.
func (m *Manager) removeFlight(fl *flight) {
	m.mu.Lock()
	if m.flights[fl.digest] == fl {
		delete(m.flights, fl.digest)
	}
	m.mu.Unlock()
}
