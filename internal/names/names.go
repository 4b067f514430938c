// Package names hands out the short strings a transaction is known by
// (its id, its lock group, its log keys; DESIGN.md section 4 item 13),
// cut from append-only chunks instead of allocated one at a time.
package names

import (
	"strings"
	"sync"
)

// chunkSize is one chunk's capacity: a few hundred names of about ten
// to twenty bytes, so a chunk costs one allocation per few hundred
// transactions and a name that outlives its neighbours pins 4 KiB.
const chunkSize = 4096

// Buffer cuts names from its current chunk.  A byte it has handed out
// is never written again: a full chunk is dropped, not reset, and lives
// exactly as long as some name cut from it.  The zero Buffer is ready.
type Buffer struct {
	mu sync.Mutex
	b  strings.Builder
}

// Cut returns the concatenation of parts as a string backed by the
// buffer's chunk.  A name longer than a chunk gets a chunk of its own.
func (n *Buffer) Cut(parts ...string) string {
	size := 0
	for _, p := range parts {
		size += len(p)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.b.Cap()-n.b.Len() < size {
		n.b.Reset()
		n.b.Grow(max(chunkSize, size))
	}
	start := n.b.Len()
	for _, p := range parts {
		n.b.WriteString(p)
	}
	return n.b.String()[start:]
}
