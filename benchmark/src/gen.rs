//! Seeded input generator. `--seed` decides file contents, file names,
//! the per-round file order and the cluster/namenode seed; the program
//! under test only ever sees what this module generated, never the
//! workload name.

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

pub struct Gen {
    rng: ChaCha8Rng,
}

impl Gen {
    /// `stream` separates the independent users of one seed (contents,
    /// names, per-thread order) so adding a draw to one does not shift
    /// the others.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mixed = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        Gen {
            rng: ChaCha8Rng::seed_from_u64(mixed),
        }
    }

    pub fn u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut data = vec![0u8; len];
        self.rng.fill_bytes(&mut data);
        data
    }

    /// A path component no earlier draw of this generator returned with
    /// any realistic probability (64 random bits).
    pub fn name(&mut self, prefix: &str) -> String {
        format!("{prefix}{:016x}", self.rng.next_u64())
    }

    /// One index below `n`.
    pub fn pick(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n)
    }

    /// The order files are touched in one round.
    pub fn order(&mut self, n: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            idx.swap(i, self.rng.gen_range(0..=i));
        }
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let draw = |seed| {
            let mut g = Gen::new(seed, 1);
            (g.bytes(64), g.name("f"), g.order(16))
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let mut other_stream = Gen::new(7, 2);
        assert_ne!(draw(7).0, other_stream.bytes(64));
    }

    #[test]
    fn order_is_a_permutation() {
        let mut o = Gen::new(3, 0).order(100);
        o.sort_unstable();
        assert_eq!(o, (0..100).collect::<Vec<_>>());
    }
}
