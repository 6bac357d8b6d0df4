//! The consistent-hash ring.
//!
//! Each shard owns `VNODES` points on a 64-bit ring; a key belongs to
//! the first point clockwise from it. Virtual nodes smooth the
//! per-shard share (with one point per shard, a lucky shard can own
//! almost the whole ring), and they make failover spread: when a shard
//! dies, its keyspace splits across *all* survivors — each of its
//! vnode arcs falls to a different successor — instead of doubling one
//! neighbor's load.
//!
//! The ring is a pure function of the shard count. Router and shards
//! never exchange it; both sides derive the same placement from `N`,
//! which is what lets a primary push its summaries to exactly the
//! replicas the router fails over to.

/// Virtual nodes per shard. 64 keeps the largest/smallest per-shard
/// share within a few percent for small fleets while the ring stays
/// tiny (N × 64 points).
const VNODES: u32 = 64;

/// SplitMix64 — the workspace's standard bit mixer (no external RNG).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The content key a file routes by: 64-bit FNV-1a over the source
/// bytes. Identical sources — therefore identical structural hashes —
/// always share a key, so routing respects the structural partition of
/// the summary keyspace without parsing anything client-side. The one
/// definition lives in `biv_core`, where `bivd`'s file index keys by it
/// too.
pub use biv_core::content_key;

/// A consistent-hash ring over `shard_count` shards.
#[derive(Debug, Clone)]
pub struct Ring {
    /// `(point, shard)` sorted by point.
    points: Vec<(u64, u32)>,
    shard_count: u32,
}

impl Ring {
    /// Builds the ring for a fleet of `shard_count` shards.
    ///
    /// # Panics
    /// With `shard_count == 0` — an empty fleet routes nothing.
    pub fn new(shard_count: u32) -> Ring {
        assert!(shard_count > 0, "a fleet needs at least one shard");
        let mut points = Vec::with_capacity(shard_count as usize * VNODES as usize);
        for shard in 0..shard_count {
            for vnode in 0..VNODES {
                // Mix a (shard, vnode) pair into a ring position. The
                // +1 keeps shard 0 / vnode 0 away from mix(0).
                let point = mix((u64::from(shard) + 1) << 32 | u64::from(vnode));
                points.push((point, shard));
            }
        }
        // Ties (astronomically unlikely) break by shard id so placement
        // stays deterministic.
        points.sort_unstable();
        Ring {
            points,
            shard_count,
        }
    }

    /// The fleet size this ring was built for.
    pub fn shard_count(&self) -> u32 {
        self.shard_count
    }

    /// The shard owning `key` with every shard alive.
    pub fn shard_of(&self, key: u64) -> u32 {
        self.route(key, &vec![true; self.shard_count as usize])
            .expect("a fully-alive ring always routes")
    }

    /// The first shard clockwise from `key` that is still alive —
    /// `shard_of` when everything is up, the failover successor when
    /// not. `None` when no shard is alive.
    pub fn route(&self, key: u64, alive: &[bool]) -> Option<u32> {
        let start = self.points.partition_point(|&(point, _)| point < key);
        for i in 0..self.points.len() {
            let (_, shard) = self.points[(start + i) % self.points.len()];
            if alive.get(shard as usize).copied().unwrap_or(false) {
                return Some(shard);
            }
        }
        None
    }

    /// The key's replica set: the first `r` *distinct* shards clockwise
    /// from `key`. The first element is always [`shard_of`](Ring::shard_of)
    /// (the primary); the rest are the replicas that receive the
    /// primary's write-through. `r` is clamped to the fleet size.
    pub fn successors(&self, key: u64, r: u32) -> Vec<u32> {
        let want = r.clamp(1, self.shard_count) as usize;
        let start = self.points.partition_point(|&(point, _)| point < key);
        let mut out: Vec<u32> = Vec::with_capacity(want);
        for i in 0..self.points.len() {
            let (_, shard) = self.points[(start + i) % self.points.len()];
            if !out.contains(&shard) {
                out.push(shard);
                if out.len() == want {
                    break;
                }
            }
        }
        out
    }

    /// The first live member of `key`'s `r`-replica set, in ring order.
    /// Unlike [`route`](Ring::route), failover is *scoped*: when every
    /// replica of a key is dead the key is unroutable (`None`) even if
    /// other shards are alive — those shards never saw its writes.
    pub fn route_replica(&self, key: u64, alive: &[bool], r: u32) -> Option<u32> {
        self.successors(key, r)
            .into_iter()
            .find(|&s| alive.get(s as usize).copied().unwrap_or(false))
    }

    /// The distinct shards that absorb `shard`'s keyspace when it
    /// leaves: for each of its vnode arcs, the next distinct shard
    /// clockwise. These are exactly the donors/recipients of a scoped
    /// snapshot handoff when `shard` departs or (re)joins.
    pub fn arc_successors(&self, shard: u32) -> Vec<u32> {
        let mut out: Vec<u32> = Vec::new();
        for (i, &(_, s)) in self.points.iter().enumerate() {
            if s != shard {
                continue;
            }
            for j in 1..self.points.len() {
                let (_, next) = self.points[(i + j) % self.points.len()];
                if next != shard {
                    if !out.contains(&next) {
                        out.push(next);
                    }
                    break;
                }
            }
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_deterministic_and_total() {
        let a = Ring::new(3);
        let b = Ring::new(3);
        for key in (0..10_000u64).map(mix) {
            let s = a.shard_of(key);
            assert_eq!(s, b.shard_of(key), "same ring, same placement");
            assert!(s < 3);
        }
    }

    #[test]
    fn vnodes_keep_shares_balanced() {
        let ring = Ring::new(3);
        let mut counts = [0usize; 3];
        for key in (0..30_000u64).map(mix) {
            counts[ring.shard_of(key) as usize] += 1;
        }
        for &c in &counts {
            // Each shard should own roughly a third; vnodes keep the
            // spread well inside 2x of fair share.
            assert!(c > 5_000 && c < 20_000, "unbalanced shares: {counts:?}");
        }
    }

    #[test]
    fn failover_reroutes_only_the_dead_shards_keys() {
        let ring = Ring::new(3);
        let alive = [true, false, true];
        let mut moved = 0usize;
        let total = 10_000usize;
        for key in (0..total as u64).map(mix) {
            let primary = ring.shard_of(key);
            let routed = ring.route(key, &alive).unwrap();
            assert_ne!(routed, 1, "dead shard never routed to");
            if primary != 1 {
                assert_eq!(routed, primary, "live shards keep their keys");
            } else {
                moved += 1;
            }
        }
        assert!(moved > 0, "the dead shard owned something");
        assert!(
            moved < total / 2,
            "only the dead shard's share moves ({moved}/{total})"
        );
    }

    #[test]
    fn no_live_shard_routes_nothing() {
        let ring = Ring::new(2);
        assert_eq!(ring.route(42, &[false, false]), None);
    }

    #[test]
    fn successors_are_distinct_and_primary_first() {
        let ring = Ring::new(5);
        for key in (0..2_000u64).map(mix) {
            let reps = ring.successors(key, 3);
            assert_eq!(reps.len(), 3);
            assert_eq!(reps[0], ring.shard_of(key), "primary leads the set");
            let mut uniq = reps.clone();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), 3, "replicas are distinct: {reps:?}");
        }
    }

    #[test]
    fn successors_clamp_to_fleet_size() {
        let ring = Ring::new(3);
        let all = ring.successors(42, 99);
        assert_eq!(all.len(), 3, "r clamps to shard_count");
        let mut sorted = all.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2], "covers every shard");
        assert_eq!(
            ring.successors(42, 0).len(),
            1,
            "r=0 still yields the primary"
        );
    }

    #[test]
    fn route_replica_scopes_failover_to_the_replica_set() {
        let ring = Ring::new(4);
        for key in (0..2_000u64).map(mix) {
            let reps = ring.successors(key, 2);
            // Primary alive: routes to primary.
            let alive = vec![true; 4];
            assert_eq!(ring.route_replica(key, &alive, 2), Some(reps[0]));
            // Primary dead: routes to the replica.
            let mut alive = vec![true; 4];
            alive[reps[0] as usize] = false;
            assert_eq!(ring.route_replica(key, &alive, 2), Some(reps[1]));
            // Both replicas dead: unroutable even though others live.
            let mut alive = vec![true; 4];
            alive[reps[0] as usize] = false;
            alive[reps[1] as usize] = false;
            assert_eq!(ring.route_replica(key, &alive, 2), None);
        }
    }

    #[test]
    fn arc_successors_name_the_absorbing_shards() {
        let ring = Ring::new(3);
        let succ = ring.arc_successors(1);
        assert!(!succ.contains(&1), "a shard never absorbs itself");
        assert!(!succ.is_empty());
        // Every key owned by shard 1 must fail over to one of its arc
        // successors when it alone is dead.
        let alive = [true, false, true];
        for key in (0..5_000u64).map(mix) {
            if ring.shard_of(key) == 1 {
                let fallback = ring.route(key, &alive).unwrap();
                assert!(succ.contains(&fallback), "{fallback} not in {succ:?}");
            }
        }
    }

    #[test]
    fn content_key_is_fnv1a() {
        // Pin the constant so routing stays stable across releases —
        // a silent key change would cold every shard cache at once.
        assert_eq!(content_key(""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(content_key("func f"), content_key("func g"));
        assert_eq!(content_key("same"), content_key("same"));
    }
}
