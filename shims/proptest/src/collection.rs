//! Collection strategies (`proptest::collection::vec`).

use crate::strategy::{Strategy, TestRng};
use std::ops::Range;

/// Length specification for [`vec()`]: a fixed size or a half-open range.
#[derive(Clone, Copy, Debug)]
pub struct SizeRange {
    lo: usize,
    hi: usize, // exclusive
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> SizeRange {
        SizeRange { lo: n, hi: n + 1 }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> SizeRange {
        assert!(r.start < r.end, "empty vec size range");
        SizeRange { lo: r.start, hi: r.end }
    }
}

/// Strategy producing `Vec`s of an element strategy.
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.size.hi - self.size.lo) as u64;
        let len = self.size.lo + if span > 1 { rng.below(span) as usize } else { 0 };
        (0..len).map(|_| self.element.sample(rng)).collect()
    }
}

/// `vec(strategy, len)` / `vec(strategy, lo..hi)`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbitrary::any;

    #[test]
    fn fixed_and_ranged_lengths() {
        let mut rng = TestRng::new(3);
        for _ in 0..200 {
            assert_eq!(vec(any::<u8>(), 5).sample(&mut rng).len(), 5);
            let v = vec(0u8..10, 2..6).sample(&mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        }
    }
}
