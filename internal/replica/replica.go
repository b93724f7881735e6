// Package replica is the replicated serving tier: snapshot shipping from
// an ingest leader to read replicas, epoch-swapped followers, and a
// consistent-hash query router.
//
// The design leans entirely on the snapshot container (internal/store):
// the leader's on-disk snapshot *is* the replication log entry. A
// follower asks for the leader's manifest with one conditional request,
// which the leader holds while the fingerprint is unchanged until it
// publishes a new snapshot or the follower's poll interval runs out (an
// unchanged snapshot costs a 304 and zero section bytes). The follower
// downloads only the sections whose CRC changed, each read once into a
// buffer of the manifest's length and checked against its CRC as it
// arrives; the rest it reuses from the serving epoch's verified bytes (or,
// after a restart, from its durable copy, read back by store.Read). It
// assembles the container in memory and opens a fresh Framework from it
// alone (core.Framework.LoadContainer): no raw data set is shipped, so a
// follower's framework holds none and refuses writes. When Path is set the
// container is also written there, atomically and before the swap, as the
// durable copy; the follower never maps or re-opens that file. The
// serving pointer swaps atomically — an epoch. An epoch is heap, not a
// mapping: queries in flight finish on the previous one, and the GC frees
// it once none holds it, so nothing is closed or evicted.
//
// Torn epochs are impossible by construction: every section a follower
// applies was verified against the CRCs of ONE manifest, section
// downloads carry If-Match with that manifest's ETag (the leader answers
// 412 if its snapshot rotated mid-pull), and any failure aborts the whole
// sync, leaving the serving framework untouched. The fault-injection
// suite (faultinject_test.go) pins this under truncated bodies, stalled
// reads, server errors, and stale manifests.
package replica

import (
	"fmt"
	"hash/fnv"

	"github.com/urbandata/datapolygamy/internal/store"
)

// ManifestInfo is the body of GET /v1/snapshot/manifest: the snapshot
// manifest plus its ETag, which pins every follow-up section download to
// this exact snapshot.
type ManifestInfo struct {
	ETag     string         `json:"etag"`
	Manifest store.Manifest `json:"manifest"`
}

// ManifestETag derives the entity tag of a snapshot manifest: a quoted
// hash of everything a follower's sync depends on — fingerprint, clause
// signature, and the full section table. Two snapshots with equal tags
// are interchangeable for replication; any byte a follower would pull
// differently changes a section CRC and therefore the tag.
func ManifestETag(m store.Manifest) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "v%d|seed%d|ts%d-%d|clause%s|", m.FormatVersion,
		m.Fingerprint.Seed, m.Fingerprint.MinTS, m.Fingerprint.MaxTS, m.ClauseSig)
	for _, ds := range m.Fingerprint.Datasets {
		fmt.Fprintf(h, "ds%q|", ds)
	}
	for _, s := range m.Sections {
		fmt.Fprintf(h, "s%q:%d:%08x|", s.Name, s.Length, s.CRC)
	}
	return fmt.Sprintf("%q", fmt.Sprintf("dp-%016x", h.Sum64()))
}
