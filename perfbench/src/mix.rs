//! Seeded operation mixes with exact proportions.
//!
//! Drawing each operation independently would let the seed change how
//! many of each kind a run performs, and with it every throughput and
//! latency figure. A [`Deck`] instead deals blocks that hold each kind
//! exactly its weight's number of times, in a seeded order.

use rand::rngs::StdRng;
use rand::Rng;

/// Deals kinds in shuffled blocks of exact proportions.
pub struct Deck<T: Copy> {
    block: Vec<T>,
    next: usize,
}

impl<T: Copy> Deck<T> {
    /// A deck dealing each kind `weight` times per block.
    pub fn new(weights: &[(T, u32)]) -> Deck<T> {
        let block: Vec<T> = weights
            .iter()
            .flat_map(|&(kind, w)| std::iter::repeat_n(kind, w as usize))
            .collect();
        assert!(!block.is_empty(), "a mix needs a positive weight");
        let next = block.len();
        Deck { block, next }
    }

    /// The next kind; reshuffles when a block runs out.
    pub fn deal(&mut self, rng: &mut StdRng) -> T {
        if self.next == self.block.len() {
            for i in (1..self.block.len()).rev() {
                self.block.swap(i, rng.gen_range(0..=i));
            }
            self.next = 0;
        }
        self.next += 1;
        self.block[self.next - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn every_block_has_the_exact_proportions() {
        let mut deck = Deck::new(&[('a', 3), ('b', 1), ('c', 6)]);
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..4 {
                let block: Vec<char> = (0..10).map(|_| deck.deal(&mut rng)).collect();
                let count = |k| block.iter().filter(|&&c| c == k).count();
                assert_eq!((count('a'), count('b'), count('c')), (3, 1, 6));
            }
        }
    }

    #[test]
    fn order_follows_the_seed() {
        let deal = |seed| {
            let mut deck = Deck::new(&[(0u8, 5), (1, 5)]);
            let mut rng = StdRng::seed_from_u64(seed);
            (0..10).map(|_| deck.deal(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(deal(7), deal(7));
        assert_ne!(deal(7), deal(8));
    }
}
