//! Labelled sample storage and mini-batch iteration.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use sia_tensor::Tensor;
use std::sync::Arc;

/// An in-memory labelled image set. The images sit behind one shared
/// handle, so [`LabelledSet::images`] hands them out without copying.
///
/// # Examples
///
/// ```
/// use sia_dataset::LabelledSet;
/// use sia_tensor::Tensor;
/// let set = LabelledSet::new(vec![Tensor::zeros(vec![3, 4, 4])], vec![7]);
/// assert_eq!(set.len(), 1);
/// assert_eq!(set.get(0).1, 7);
/// ```
#[derive(Clone, Debug, Default)]
pub struct LabelledSet {
    images: Arc<[Tensor]>,
    labels: Vec<usize>,
}

impl LabelledSet {
    /// Creates a set from parallel vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    #[must_use]
    pub fn new(images: Vec<Tensor>, labels: Vec<usize>) -> Self {
        assert_eq!(images.len(), labels.len(), "images/labels length mismatch");
        LabelledSet {
            images: images.into(),
            labels,
        }
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// Sample `i` as `(image, label)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn get(&self, i: usize) -> (&Tensor, usize) {
        (&self.images[i], self.labels[i])
    }

    /// All images, in sample order: a new handle on the set's own
    /// storage, not a copy.
    #[must_use]
    pub fn images(&self) -> Arc<[Tensor]> {
        Arc::clone(&self.images)
    }

    /// All labels.
    #[must_use]
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Takes the first `n` samples as a new set (cheap truncation for quick
    /// experiments).
    #[must_use]
    pub fn take(&self, n: usize) -> LabelledSet {
        let n = n.min(self.len());
        LabelledSet {
            images: self.images[..n].into(),
            labels: self.labels[..n].to_vec(),
        }
    }

    /// Iterator over shuffled mini-batches; each yield is a stacked
    /// `[B,C,H,W]` tensor and its labels. The final short batch is yielded.
    #[must_use]
    pub fn batches<'a>(&'a self, batch_size: usize, rng: &mut StdRng) -> BatchIter<'a> {
        assert!(batch_size > 0, "batch size must be positive");
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.shuffle(rng);
        BatchIter {
            set: self,
            order,
            pos: 0,
            batch_size,
        }
    }

    /// Iterator over batches in storage order (deterministic evaluation).
    #[must_use]
    pub fn batches_sequential(&self, batch_size: usize) -> BatchIter<'_> {
        assert!(batch_size > 0, "batch size must be positive");
        BatchIter {
            set: self,
            order: (0..self.len()).collect(),
            pos: 0,
            batch_size,
        }
    }
}

/// Mini-batch iterator produced by [`LabelledSet::batches`].
#[derive(Debug)]
pub struct BatchIter<'a> {
    set: &'a LabelledSet,
    order: Vec<usize>,
    pos: usize,
    batch_size: usize,
}

impl Iterator for BatchIter<'_> {
    type Item = (Tensor, Vec<usize>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.order.len() {
            return None;
        }
        let end = (self.pos + self.batch_size).min(self.order.len());
        let idxs = &self.order[self.pos..end];
        self.pos = end;
        let imgs: Vec<Tensor> = idxs.iter().map(|&i| self.set.images[i].clone()).collect();
        let labels: Vec<usize> = idxs.iter().map(|&i| self.set.labels[i]).collect();
        Some((Tensor::stack(&imgs), labels))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn tiny_set(n: usize) -> LabelledSet {
        let images = (0..n)
            .map(|i| Tensor::full(vec![1, 2, 2], i as f32))
            .collect();
        let labels = (0..n).map(|i| i % 3).collect();
        LabelledSet::new(images, labels)
    }

    #[test]
    fn batches_cover_everything_once() {
        let set = tiny_set(10);
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = vec![0usize; 10];
        for (imgs, labels) in set.batches(3, &mut rng) {
            assert_eq!(imgs.shape().dim(0), labels.len());
            for b in 0..labels.len() {
                let v = imgs.batch_item(b).data()[0] as usize;
                seen[v] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
    }

    #[test]
    fn final_short_batch_is_yielded() {
        let set = tiny_set(7);
        let sizes: Vec<usize> = set
            .batches_sequential(3)
            .map(|(t, _)| t.shape().dim(0))
            .collect();
        assert_eq!(sizes, vec![3, 3, 1]);
    }

    #[test]
    fn sequential_batches_preserve_order() {
        let set = tiny_set(4);
        let (imgs, labels) = set.batches_sequential(4).next().unwrap();
        assert_eq!(labels, vec![0, 1, 2, 0]);
        assert_eq!(imgs.batch_item(2).data()[0], 2.0);
    }

    #[test]
    fn shuffle_depends_on_rng_seed() {
        let set = tiny_set(32);
        let collect = |seed: u64| -> Vec<usize> {
            let mut rng = StdRng::seed_from_u64(seed);
            set.batches(32, &mut rng).next().unwrap().1
        };
        assert_ne!(collect(1), collect(2));
        assert_eq!(collect(5), collect(5));
    }

    #[test]
    fn take_truncates() {
        let set = tiny_set(10).take(4);
        assert_eq!(set.len(), 4);
        assert_eq!(set.take(100).len(), 4); // over-take is clamped
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn ragged_construction_rejected() {
        let _ = LabelledSet::new(vec![Tensor::zeros(vec![1])], vec![]);
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_rejected() {
        let set = tiny_set(2);
        let _ = set.batches_sequential(0);
    }
}
