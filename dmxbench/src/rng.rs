//! The seeded generator every workload input comes from.

/// SplitMix64: small, fast, and identical on every platform, so one seed
/// names one statement stream.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, mixed with `stream` so each client (or
    /// each purpose) of one seed draws an independent sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `lo..hi` (`lo < hi`).
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64) as i64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// Deals operation classes in shuffled decks, so every run holds the
/// mix's exact proportions (up to one partial deck) and only the order
/// depends on the seed.
pub struct Deck<C: Copy> {
    cards: Vec<C>,
    next: usize,
}

impl<C: Copy> Deck<C> {
    /// `mix` lists each class with its number of cards per deck.
    pub fn new(mix: &[(C, usize)]) -> Deck<C> {
        let cards: Vec<C> = mix
            .iter()
            .flat_map(|&(c, n)| std::iter::repeat_n(c, n))
            .collect();
        let next = cards.len();
        Deck { cards, next }
    }

    pub fn deal(&mut self, rng: &mut Rng) -> C {
        if self.next == self.cards.len() {
            rng.shuffle(&mut self.cards);
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1]
    }
}
