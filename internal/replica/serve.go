package replica

import (
	"net/http"

	"udi/internal/httpapi"
	"udi/internal/shardrpc"
)

// ShardHandler returns the read-only half of the shard RPC surface,
// served from the follower's replayed state by the same handlers a shard
// host uses (shardrpc.ReadHandlers). Mounting it beside the public /v1
// API turns a passive replica into a failover target: a coordinator
// with this replica in a shard's read set sends query/explain/candidates
// legs here when the primary fails, and the status endpoint reports the
// replication position those failover decisions are made from. Every mutating shard RPC answers the typed
// read_only envelope — writes only ever touch the primary.
func (f *Follower) ShardHandler() http.Handler {
	mux := http.NewServeMux()
	shardrpc.ReadHandlers{
		Sys: f.sys.Load,
		// The primary generation the served state was bootstrapped under:
		// equality with the primary's own means replay covers the difference.
		StateGen: func() uint64 { return f.state.Load().stateGen },
		// The replica-flavored status: the replication position a routing
		// coordinator compares against the primary's own status.
		Status: func(resp *shardrpc.StatusResponse) {
			st := f.state.Load()
			resp.StateGen = st.stateGen // one load, so the position is never torn
			resp.Replica = true
			resp.AppliedSeq = st.appliedSeq
			resp.PrimaryCommittedSeq = st.primaryCommitted
			resp.PrimaryEpoch = st.primaryEpoch
			resp.Synced = st.synced
		},
		Obs: f.reg,
	}.Mount(mux)
	for _, p := range []string{"feedback", "restructure"} {
		mux.HandleFunc("POST /v1/shard/"+p, func(w http.ResponseWriter, _ *http.Request) {
			httpapi.WriteStatusError(w, readOnly())
		})
	}
	return mux
}
