package store

import (
	"fmt"
	"time"

	"approxcode/internal/core"
	"approxcode/internal/obs"
	"approxcode/internal/tier"
)

// This file is the store half of popularity-adaptive redundancy tiers
// (internal/tier holds the policy side: tracker, classifier, cache,
// manager). An object's tier changes only the redundancy AROUND its
// data columns — the data columns, extents, and placement never move:
//
//	Hot:  the warm layout plus a full replica of every data column,
//	      stored under a shadow object key on a distant node, so reads
//	      survive a primary-column loss without decoding. Hot objects
//	      are also eligible for the decoded-segment cache.
//	Warm: the baseline APPR layout (data + local parity + global
//	      parity) exactly as Put wrote it.
//	Cold: the warm layout minus the global parity columns — the
//	      (K+R)/K low-overhead code. Important data loses its extra
//	      global tolerance; the local parity still covers R failures
//	      per sub-stripe.
//
// A migration is crash-safe by the same WAL discipline as every other
// mutation: a begin record marks intent, the new redundancy is built
// while readers still follow the old tier, and the commit record is
// the durability point. The in-memory tier swaps atomically only after
// commit, so a concurrent reader observes entirely the old or entirely
// the new encoding — never a mix. Replay of a commit re-derives the
// redundancy from the data columns; a dangling begin (death mid-build)
// deletes the partial target redundancy and keeps the old tier.

// repSuffix extends an object's name into the shadow key its hot-tier
// replica columns are stored under. NUL cannot appear in user-facing
// names that matter here (the key never leaves node.columns), so the
// shadow namespace cannot collide with a real object.
const repSuffix = "\x00r"

func repKey(name string) string { return name + repSuffix }

// repNode places the replica of data column ni on a node roughly
// opposite it in the ring, so one node loss never takes a column and
// its replica together.
func (s *Store) repNode(ni int) int {
	shift := len(s.nodes) / 2
	if shift == 0 {
		shift = 1
	}
	return (ni + shift) % len(s.nodes)
}

func (o *object) tierLevel() tier.Level { return tier.Level(o.tier.Load()) }

func (o *object) setTier(l tier.Level) { o.tier.Store(int32(l)) }

// tierDropsColumn reports whether the object's current tier deletes
// node ni's column (cold objects carry no global parity). Write-back
// paths that re-derive parity (repair re-encode, update) consult it so
// they never resurrect redundancy a demotion removed.
func (s *Store) tierDropsColumn(obj *object, ni int) bool {
	return obj.tierLevel() == tier.Cold && s.code.Role(ni) == core.RoleGlobalParity
}

// ObjectTier reports the object's current redundancy tier. Together
// with MigrateObject it satisfies tier.Migrator, so a tier.Manager can
// drive the store directly.
func (s *Store) ObjectTier(name string) (tier.Level, bool) {
	obj, ok := s.objects.get(name)
	if !ok {
		return 0, false
	}
	return obj.tierLevel(), true
}

// MigrateObject re-encodes an object's redundancy for the target tier.
// It never blocks concurrent Get/GetSegment: readers run lock-free
// against the object descriptor and follow the old tier until the
// atomic swap at commit. It does serialize with UpdateSegment and
// scrub's read-repair on the object (updateMu) — both rewrite the
// columns a migration reads — and with FailNodes (failMu), whose wipe
// would invalidate the healthy-stripe requirement mid-build.
func (s *Store) MigrateObject(name string, to tier.Level) error {
	if !to.Valid() {
		return fmt.Errorf("%w: tier %d", ErrInvalid, int(to))
	}
	if s.extBackend {
		return fmt.Errorf("%w: tier migration requires the built-in node backend", ErrInvalid)
	}
	defer s.metrics.migrateSeconds.Start().Stop()
	sp := s.metrics.reg.StartSpan("store.MigrateObject")
	defer func() { sp.End(obs.A("object", name), obs.A("to", to.String())) }()
	s.quiesce.RLock()
	defer s.quiesce.RUnlock()
	obj, ok := s.objects.get(name)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	s.failMu.RLock()
	defer s.failMu.RUnlock()
	obj.updateMu.Lock()
	defer obj.updateMu.Unlock()
	from := obj.tierLevel()
	if from == to {
		return nil
	}
	if len(s.FailedNodes()) > 0 {
		return fmt.Errorf("%w: cannot migrate with failed nodes (repair first)", ErrUnavailable)
	}
	if err := s.journalAppend(recMigrateBegin, migrateRecord{Name: name, From: int(from), To: int(to)}); err != nil {
		return err
	}
	s.crash("migrate.after-begin")
	moved, err := s.buildTierRedundancy(obj, from, to)
	if err != nil {
		// The begin record dangles in the journal; recovery performs the
		// same cleanup, so crash-during-cleanup converges too.
		s.cleanupTierRedundancy(obj, from, to)
		return err
	}
	s.crash("migrate.before-commit")
	if err := s.journalAppend(recMigrateCommit, migrateRecord{Name: name, From: int(from), To: int(to)}); err != nil {
		s.cleanupTierRedundancy(obj, from, to)
		return err
	}
	// The commit point: swap the tier readers observe, then retire the
	// old tier's extra redundancy. The epoch bump unkeys any cached
	// decoded segments so post-migration reads re-derive them.
	obj.setTier(to)
	obj.version.Add(2)
	s.crash("migrate.after-commit")
	s.dropTierRedundancy(obj, from, to)
	if to.Rank() > from.Rank() {
		s.metrics.tierPromotions.Inc()
	} else {
		s.metrics.tierDemotions.Inc()
	}
	// One "µs" = one redundancy byte written (see metrics.go).
	s.metrics.migrateBytes.Observe(time.Duration(moved) * time.Microsecond)
	return nil
}

// healthyStripe assembles one fully reconstructed stripe: every column
// read and verified, erasures and demotes rebuilt from survivors. A
// stripe that cannot be made whole fails the migration — redundancy
// must be derived from true bytes, never guesses.
func (s *Store) healthyStripe(obj *object, st int) ([][]byte, error) {
	cols, _ := s.readStripe(obj, st, nil)
	var erased []int
	for i, c := range cols {
		if c == nil {
			erased = append(erased, i)
		}
	}
	if len(erased) > 0 {
		r, err := s.reconstructForHeal(cols, erased)
		if err != nil {
			return nil, err
		}
		if len(r.Lost) > 0 {
			return nil, fmt.Errorf("%w: columns %v unrecoverable", ErrUnavailable, erased)
		}
	}
	return cols, nil
}

// buildTierRedundancy writes the redundancy the target tier adds over
// the source tier: global parity when leaving cold, data-column
// replicas when entering hot. It returns the bytes written. The
// object's published tier is untouched — readers keep following the
// old layout until the caller commits.
func (s *Store) buildTierRedundancy(obj *object, from, to tier.Level) (int64, error) {
	needGlobals := from == tier.Cold && to != tier.Cold
	needReplicas := to == tier.Hot
	if !needGlobals && !needReplicas {
		return 0, nil
	}
	var moved int64
	dataIdx := s.code.DataNodeIndexes()
	for st := 0; st < obj.stripes; st++ {
		cols, err := s.healthyStripe(obj, st)
		if err != nil {
			return moved, fmt.Errorf("store migrate %q: stripe %d: %w", obj.name, st, err)
		}
		if needGlobals {
			w := s.columnWriter(obj.name, false)
			sums := make(map[int]uint32)
			subSums := make(map[int][]uint32)
			for ni := range cols {
				if s.code.Role(ni) != core.RoleGlobalParity {
					continue
				}
				w.add(ni, st, cols[ni])
				moved += int64(len(cols[ni]))
				sums[ni], subSums[ni] = s.colSums(cols[ni])
			}
			if node, err := firstFailure(w.flush()); err != nil {
				return moved, fmt.Errorf("store migrate %q: write node %d: %w", obj.name, node, err)
			}
			obj.setSums(st, len(s.nodes), sums)
			obj.setSubSums(st, len(s.nodes), subSums)
		}
		if needReplicas {
			w := s.columnWriter(repKey(obj.name), false)
			for _, ni := range dataIdx {
				w.add(s.repNode(ni), st, cols[ni])
				moved += int64(len(cols[ni]))
			}
			if node, err := firstFailure(w.flush()); err != nil {
				return moved, fmt.Errorf("store migrate %q: replica on node %d: %w", obj.name, node, err)
			}
		}
	}
	return moved, nil
}

// dropTierRedundancy deletes the redundancy the committed target tier
// no longer carries: replicas when leaving hot, global parity when
// entering cold. Deletion failures are tolerable — an orphaned column
// costs space, never correctness — so errors are discarded.
func (s *Store) dropTierRedundancy(obj *object, from, to tier.Level) {
	if from == tier.Hot && to != tier.Hot {
		s.deleteReplicaColumns(obj)
	}
	if to == tier.Cold {
		s.deleteGlobalColumns(obj)
	}
}

// cleanupTierRedundancy undoes a failed or dangling (crashed mid-build)
// migration: whatever buildTierRedundancy may have written toward the
// target tier is deleted, restoring a clean source-tier layout.
func (s *Store) cleanupTierRedundancy(obj *object, from, to tier.Level) {
	if to == tier.Hot && from != tier.Hot {
		s.deleteReplicaColumns(obj)
	}
	if from == tier.Cold && to != tier.Cold {
		s.deleteGlobalColumns(obj)
	}
}

// deleteReplicaColumns removes the object's hot-tier replica set (a nil
// write deletes: see memIO.ReadColumn's missing-column rule).
func (s *Store) deleteReplicaColumns(obj *object) {
	var nodes []int
	for _, ni := range s.code.DataNodeIndexes() {
		nodes = append(nodes, s.repNode(ni))
	}
	s.deleteColumns(repKey(obj.name), obj.stripes, nodes)
}

// deleteGlobalColumns removes the object's global parity columns (the
// cold tier's storage saving).
func (s *Store) deleteGlobalColumns(obj *object) {
	var nodes []int
	for ni := range s.nodes {
		if s.code.Role(ni) == core.RoleGlobalParity {
			nodes = append(nodes, ni)
		}
	}
	s.deleteColumns(obj.name, obj.stripes, nodes)
}

// deleteColumns writes nil over the named columns of every stripe.
func (s *Store) deleteColumns(object string, stripes int, nodes []int) {
	w := s.columnWriter(object, false)
	for st := 0; st < stripes; st++ {
		for _, ni := range nodes {
			w.add(ni, st, nil)
		}
		_ = w.flush()
	}
}

// applyMigrate replays a committed migration. Replay must converge,
// not abort: the commit record is the acknowledged durability point,
// so the object always lands on the target tier — a partial rebuild
// (e.g. against nodes that failed later in the journal) leaves the
// redundancy thin until repair or an update refreshes it, and reads
// fall back to decoding from the data columns regardless.
func (s *Store) applyMigrate(mr migrateRecord) bool {
	obj, ok := s.objects.get(mr.Name)
	if !ok {
		return false
	}
	from, to := tier.Level(mr.From), tier.Level(mr.To)
	obj.updateMu.Lock()
	defer obj.updateMu.Unlock()
	_, _ = s.buildTierRedundancy(obj, from, to) // best-effort: see above
	obj.setTier(to)
	obj.version.Add(2)
	s.dropTierRedundancy(obj, from, to)
	return true
}

// replicaSubBlock serves a sub-block from a hot object's replica column
// after the primary read failed or was demoted, verified against the
// same published sub-checksum (the replica is a byte copy of the
// primary column). ok=false sends the caller down the normal
// escalation ladder.
func (s *Store) replicaSubBlock(obj *object, stripe int, sb core.SubBlock, sub int, want uint32) ([]byte, bool) {
	if obj.tierLevel() != tier.Hot || s.code.Role(sb.Node) != core.RoleData {
		return nil, false
	}
	b, err := s.readColumnAt(s.repNode(sb.Node), repKey(obj.name), stripe, sb.Row*sub, sub)
	if err != nil || len(b) != sub {
		return nil, false
	}
	if want != 0 && colSum(b) != want {
		return nil, false
	}
	return b, true
}

// segKey keys one decoded segment in the read cache. Embedding the
// object's data epoch makes invalidation free: every bytes-changing
// path bumps object.version, so entries cached against the old epoch
// become unreachable and age out of the LRU.
func segKey(name string, id int, epoch int64) string {
	return fmt.Sprintf("%s\x00%d\x00%d", name, id, epoch)
}

// cacheGet serves a GetSegment from the decoded-segment cache. Only
// hot-tier objects are cached. epoch is the object's data epoch as the
// caller captured it before reading; the same value keys the caller's
// later insert, so a result read concurrently with an update can only
// land under the superseded epoch.
func (s *Store) cacheGet(obj *object, id int, epoch int64) ([]byte, bool) {
	if s.cache == nil || obj.tierLevel() != tier.Hot {
		return nil, false
	}
	return s.cache.Get(segKey(obj.name, id, epoch))
}

// cachePut inserts a decoded segment under the epoch captured before
// the read. The cache copies the payload in, so the store never aliases
// a cached buffer to one the caller (or the column pool) may mutate.
func (s *Store) cachePut(obj *object, id int, epoch int64, data []byte) {
	if s.cache == nil || len(data) == 0 || obj.tierLevel() != tier.Hot {
		return
	}
	s.cache.Put(segKey(obj.name, id, epoch), data)
}
