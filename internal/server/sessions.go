package server

import "time"

// sessionTable is smoothd's one index of session facts, guarded by
// Server.mu together with the admission reservations it stands for:
//
//   - byNonce routes a retransmitted hello (the sender's copy of its
//     admission verdict was lost and it redialed) to the live stream;
//   - byToken routes a resume to its parked-capable stream;
//   - tombs answers a resume after a lost completion ack with a precise
//     AlreadyComplete verdict instead of an unknown-token rejection.
//
// A live entry goes exactly when finish or the admit rollback releases
// its stream, so only tombstones expire. fifo holds them in expiry
// order and every entomb pops the expired head, so the table holds the
// completions of at most one tombstone TTL.
type sessionTable struct {
	byNonce map[uint64]*stream
	byToken map[uint64]*stream
	tombs   map[uint64]tombstone
	fifo    []tombRef
}

// tombRef is one tombstone's place in the expiry FIFO.
type tombRef struct {
	token   uint64
	expires time.Time
}

func newSessionTable() sessionTable {
	return sessionTable{
		byNonce: map[uint64]*stream{},
		byToken: map[uint64]*stream{},
		tombs:   map[uint64]tombstone{},
	}
}

// add indexes a live stream by its hello nonce and resume token; a zero
// key (no dedup, or resumption disabled) is not indexed.
func (t *sessionTable) add(st *stream) {
	if st.hello.Nonce != 0 {
		t.byNonce[st.hello.Nonce] = st
	}
	if st.token != 0 {
		t.byToken[st.token] = st
	}
}

// drop unindexes a released stream.
func (t *sessionTable) drop(st *stream) {
	if t.byNonce[st.hello.Nonce] == st {
		delete(t.byNonce, st.hello.Nonce)
	}
	if t.byToken[st.token] == st {
		delete(t.byToken, st.token)
	}
}

// entomb records a completed stream's tombstone after sweeping every
// tombstone expired at now.
func (t *sessionTable) entomb(token uint64, tb tombstone, now time.Time) {
	for len(t.fifo) > 0 && !now.Before(t.fifo[0].expires) {
		ref := t.fifo[0]
		t.fifo = t.fifo[1:]
		// A token entombed twice keeps only its latest expiry.
		if old, ok := t.tombs[ref.token]; ok && old.expires.Equal(ref.expires) {
			delete(t.tombs, ref.token)
		}
	}
	t.tombs[token] = tb
	// Completions share one TTL and recovery entombs in expiry order, so
	// a tombstone belongs at the tail. Where expiries still fall out of
	// order (tombstones recovered under a longer TTL than this
	// generation's), an entry is only swept late: lookup checks expiry
	// regardless.
	t.fifo = append(t.fifo, tombRef{token: token, expires: tb.expires})
}

// tomb finds the tombstone of a completed stream, if it has not expired
// by now.
func (t *sessionTable) tomb(token uint64, now time.Time) (tombstone, bool) {
	tb, ok := t.tombs[token]
	return tb, ok && now.Before(tb.expires)
}
