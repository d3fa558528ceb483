//! Deterministic fleet routing: rendezvous hashing with a least-loaded
//! variant, over virtual-clock queue-depth snapshots.
//!
//! Routing is a pure function of `(route seed, request seq, candidate
//! shard set, queue-depth snapshot)` — no wall clock, no iteration-order
//! dependence — so the fleet's routing decisions are bit-identical at any
//! `--threads`. Health gating (crash / flap / breaker state) happens in
//! the fleet layer, which passes only routable shards as candidates.

use stca_fault::StcaError;
use stca_util::rng::splitmix64;

/// Which routing discipline the fleet runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterKind {
    /// Highest-rendezvous-score shard wins; queue depth breaks score ties.
    Rendezvous,
    /// Shallowest queue wins; rendezvous score breaks depth ties.
    LeastLoaded,
}

impl RouterKind {
    /// Every router, in [`RouterKind::NAMES`] order.
    pub const ALL: [RouterKind; 2] = [RouterKind::Rendezvous, RouterKind::LeastLoaded];

    /// The CLI/spec token of each router.
    pub const NAMES: [&'static str; 2] = ["rendezvous", "least-loaded"];

    /// Parse a CLI/spec token: `rendezvous` or `least-loaded`.
    pub fn parse(s: &str) -> Result<Self, StcaError> {
        Self::ALL
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| {
                StcaError::usage(format!(
                    "router {s:?}: want one of {}",
                    Self::NAMES.join(", ")
                ))
            })
    }

    /// The CLI/spec token for this router.
    pub fn name(&self) -> &'static str {
        Self::NAMES[*self as usize]
    }
}

/// One routable shard as the router sees it: id plus the virtual-clock
/// queue-depth snapshot taken when the routing decision is made.
#[derive(Debug, Clone, Copy)]
pub struct Candidate {
    /// Shard id.
    pub id: u32,
    /// Waiting-queue depth at decision time.
    pub queue_depth: usize,
}

/// Rendezvous (highest-random-weight) score: a pure function of
/// `(seed, seq, shard)`.
pub fn rendezvous_score(seed: u64, seq: u64, shard: u32) -> u64 {
    let mut s = seed
        ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ u64::from(shard).wrapping_mul(0xD1B5_4A32_D192_ED03);
    splitmix64(&mut s)
}

/// Pick the shard for request `seq` among `candidates`. Returns `None`
/// only for an empty candidate set. Deterministic: ties fall through to
/// the rendezvous score and finally the lower shard id, so the choice
/// never depends on input order.
pub fn route(kind: RouterKind, seed: u64, seq: u64, candidates: &[Candidate]) -> Option<u32> {
    let key = |c: &Candidate| {
        let score = rendezvous_score(seed, seq, c.id);
        let shallow = u64::MAX - c.queue_depth as u64;
        let low_id = u64::from(u32::MAX - c.id);
        match kind {
            // max score, then min depth, then min id
            RouterKind::Rendezvous => (score, shallow, low_id),
            // min depth, then max score, then min id
            RouterKind::LeastLoaded => (shallow, score, low_id),
        }
    };
    candidates.iter().max_by_key(|c| key(c)).map(|c| c.id)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(n: u32) -> Vec<Candidate> {
        (0..n).map(|id| Candidate { id, queue_depth: 0 }).collect()
    }

    #[test]
    fn parse_and_name_round_trip() {
        for kind in [RouterKind::Rendezvous, RouterKind::LeastLoaded] {
            assert_eq!(RouterKind::parse(kind.name()).expect("round trip"), kind);
        }
        assert!(RouterKind::parse("random").is_err());
    }

    #[test]
    fn rendezvous_spreads_and_is_stable_under_membership_change() {
        let shards = flat(8);
        let mut counts = [0usize; 8];
        for seq in 0..8_000u64 {
            let id = route(RouterKind::Rendezvous, 42, seq, &shards).expect("non-empty");
            counts[id as usize] += 1;
        }
        for (id, &c) in counts.iter().enumerate() {
            assert!((500..1600).contains(&c), "shard {id} got {c}/8000");
        }
        // HRW property: removing one shard only moves the keys that were
        // on it — every other key keeps its target.
        let survivors: Vec<Candidate> = shards.iter().copied().filter(|c| c.id != 3).collect();
        for seq in 0..2_000u64 {
            let full = route(RouterKind::Rendezvous, 42, seq, &shards).expect("full");
            let part = route(RouterKind::Rendezvous, 42, seq, &survivors).expect("part");
            if full != 3 {
                assert_eq!(full, part, "seq {seq} moved without its shard failing");
            }
        }
    }

    #[test]
    fn least_loaded_prefers_shallow_queues_with_deterministic_ties() {
        let cands = vec![
            Candidate {
                id: 0,
                queue_depth: 5,
            },
            Candidate {
                id: 1,
                queue_depth: 2,
            },
            Candidate {
                id: 2,
                queue_depth: 7,
            },
        ];
        assert_eq!(route(RouterKind::LeastLoaded, 7, 0, &cands), Some(1));
        // equal depths: the rendezvous score decides, identically for any
        // candidate order
        let tied = flat(4);
        let mut rev = tied.clone();
        rev.reverse();
        for seq in 0..256u64 {
            assert_eq!(
                route(RouterKind::LeastLoaded, 7, seq, &tied),
                route(RouterKind::LeastLoaded, 7, seq, &rev),
            );
        }
    }

    #[test]
    fn empty_candidate_set_routes_nowhere() {
        assert_eq!(route(RouterKind::Rendezvous, 1, 1, &[]), None);
    }
}
