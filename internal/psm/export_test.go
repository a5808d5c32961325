package psm

// MidRoundAcks is Endpoint.midRoundAcks: the ACKs that retired packets
// while a go-back-N round was running.
func MidRoundAcks(ep *Endpoint) int { return ep.midRoundAcks }

// ChunksMade is the number of retained chunks ep has allocated: the
// gets its chunk pool could not serve from its free list.
func ChunksMade(ep *Endpoint) int {
	st := ep.chunks.Stats()
	return int(st.Gets - st.Hits)
}
