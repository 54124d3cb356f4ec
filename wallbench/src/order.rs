//! Seeded visiting orders. The run seed decides only the order in
//! which a fixed corpus is visited, so every run asks the same
//! questions and its accuracy repeats exactly, while the drift of the
//! machine lands on different questions in every pass.

/// SplitMix64: a small, fixed generator, so orders never depend on a
/// library's choice of algorithm.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n ≥ 1`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The generator for pass `pass` of a run seeded with `seed`.
pub fn pass_rng(seed: u64, pass: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ pass.wrapping_mul(0xd6e8_feb8_6659_fd93))
}

/// A Fisher–Yates permutation of `0..n`.
pub fn shuffled(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// A shuffled order of `0..lanes.len()` that keeps every lane's
/// members in their original relative order. `lanes[i]` is `None` for
/// a free item (it may go anywhere) and `Some(k)` for a member of lane
/// `k` — a dialogue, whose turns must stay in sequence.
pub fn lane_preserving(lanes: &[Option<u64>], rng: &mut SplitMix64) -> Vec<usize> {
    // Draw a random key per item, then hand each lane its own keys in
    // ascending order, so the lane's first turn sorts first.
    let mut keys: Vec<u64> = lanes.iter().map(|_| rng.next_u64()).collect();
    let mut by_lane: std::collections::BTreeMap<u64, Vec<usize>> = Default::default();
    for (i, lane) in lanes.iter().enumerate() {
        if let Some(k) = lane {
            by_lane.entry(*k).or_default().push(i);
        }
    }
    for members in by_lane.values() {
        let mut ks: Vec<u64> = members.iter().map(|&i| keys[i]).collect();
        ks.sort_unstable();
        for (&i, k) in members.iter().zip(ks) {
            keys[i] = k;
        }
    }
    let mut order: Vec<usize> = (0..lanes.len()).collect();
    order.sort_by_key(|&i| (keys[i], i));
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffles_are_fixed_by_the_seed() {
        let a = shuffled(50, &mut pass_rng(7, 1));
        let b = shuffled(50, &mut pass_rng(7, 1));
        let c = shuffled(50, &mut pass_rng(7, 2));
        let d = shuffled(50, &mut pass_rng(8, 1));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn lanes_keep_their_order() {
        let lanes: Vec<Option<u64>> = (0..60)
            .map(|i| if i % 3 == 0 { Some(i % 4) } else { None })
            .collect();
        for seed in 0..5 {
            let order = lane_preserving(&lanes, &mut pass_rng(seed, 0));
            assert_eq!(order, lane_preserving(&lanes, &mut pass_rng(seed, 0)));
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..60).collect::<Vec<_>>());
            for lane in 0..4 {
                let seen: Vec<usize> = order
                    .iter()
                    .copied()
                    .filter(|&i| lanes[i] == Some(lane))
                    .collect();
                assert!(seen.windows(2).all(|w| w[0] < w[1]), "lane {lane}");
            }
            assert_ne!(order, (0..60).collect::<Vec<_>>());
        }
    }
}
