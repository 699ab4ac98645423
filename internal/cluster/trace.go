package cluster

// Coordinator-specific lifecycle events, extending the vocabulary in
// internal/server/trace.go: a clustered job is also routed to an owner,
// orphaned by a death, and rehomed on a survivor.
const (
	// TraceRouted records placement on a worker (detail: node name).
	TraceRouted = "routed"
	// TraceFailover records the owning worker's death (detail: why).
	TraceFailover = "failover"
)
